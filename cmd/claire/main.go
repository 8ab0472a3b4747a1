// Command claire runs the full CLAIRE pipeline (training phase + test phase)
// and prints any of the paper's tables and figures.
//
// Usage:
//
//	claire                  # run everything, print all tables and figures
//	claire -table 4         # print only Table IV
//	claire -figure 2        # print only Figure 2
//	claire -dot out/        # also write Figure 3's DOT files into out/
//	claire -cluster greedy  # ablation: greedy bipartition instead of Louvain
//	claire -tau 0.5         # ablation: subset-formation threshold
//	claire -selfcheck       # differential validation: analytical PPA vs oracle
//	claire -catalogue c.json -space mix  # heterogeneous mixes from a catalogue
//	claire -space mixfine -search anneal -budget 20000 -seed 7  # budgeted DSE
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1-6)")
	figure := flag.Int("figure", 0, "print only this figure (2-4)")
	dotDir := flag.String("dot", "", "directory to write Figure 3 DOT files")
	csvDir := flag.String("csv", "", "directory to write CSV exports")
	jsonPath := flag.String("json", "", "file to write the JSON run summary")
	mdPath := flag.String("md", "", "file to write a markdown run report")
	assign := flag.String("assign", "", "model-dump file to assign to a library configuration")
	memoryAdvisory := flag.Bool("memory", false, "print the weight-residency / DRAM-streaming advisory")
	cluster := flag.String("cluster", "louvain", "clustering algorithm: louvain or greedy")
	tau := flag.Float64("tau", 0, "override subset-formation similarity threshold")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS, 1 = serial)")
	spaceFlag := flag.String("space", "paper", "DSE design space: paper, fine, mix, mixfine, or AxBxCxD axis cardinalities")
	catalogueFlag := flag.String("catalogue", "", "chiplet catalogue JSON file (empty: built-in 28nm default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile to this file on exit")
	selfcheck := flag.Bool("selfcheck", false, "run the differential validation sweep and exit (non-zero on violations)")
	seed := flag.Int64("seed", 0, "seed for -selfcheck sampling and -search randomness (0 = default)")
	searchFlag := flag.String("search", "", "budgeted search instead of exhaustive sweeps: anneal or genetic, with optional :key=val,... params")
	budget := flag.Int("budget", 0, "search evaluation budget in point x model units per exploration (0: 5% of the space)")
	fidelityFlag := flag.String("fidelity", "analytical", "evaluation pipeline: analytical (single-stage) or staged (frontier re-scored with NoC/placement/thermal models)")
	flag.Parse()

	cat, err := hw.LoadCatalogue(*catalogueFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "claire:", err)
		os.Exit(2)
	}

	if *selfcheck {
		r := check.Run(check.Options{Seed: *seed, Catalogue: cat})
		fmt.Print(r)
		if !r.OK() {
			os.Exit(1)
		}
		return
	}

	o := core.DefaultOptions()
	o.Workers = *workers
	o.Catalogue = cat
	if err := o.Resolve(*spaceFlag, *searchFlag, *budget, *seed, *fidelityFlag); err != nil {
		fmt.Fprintln(os.Stderr, "claire:", err)
		os.Exit(2)
	}
	stopProfiling, err := core.StartProfiles(core.ProfileConfig{
		CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile, Block: *blockProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "claire:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
		}
	}()
	// One engine for both phases: the test phase reuses the training phase's
	// plans and built designs.
	o.Evaluator = o.Engine()
	switch *cluster {
	case "louvain":
	case "greedy":
		o.Cluster = core.GreedyCluster
	default:
		fmt.Fprintf(os.Stderr, "unknown -cluster %q\n", *cluster)
		os.Exit(2)
	}
	if *tau > 0 {
		o.Similarity.Tau = *tau
	}

	tr, err := core.Train(workload.TrainingSet(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "training phase:", err)
		os.Exit(1)
	}
	tt, err := core.Test(tr, workload.TestSet(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "test phase:", err)
		os.Exit(1)
	}

	sections := []struct {
		table, figure int
		title         string
		body          func() string
	}{
		{1, 0, "Table I: AI algorithms in the training set",
			func() string { return report.TableI(tr.Models) }},
		{2, 0, "Table II: chiplet libraries of the library-synthesized configurations",
			func() string { return report.TableII(tr) }},
		{3, 0, "Table III: configuration subsets and test assignment",
			func() string { return report.TableIII(tr, tt) }},
		{4, 0, "Table IV: training-phase NRE costs",
			func() string { return report.TableIV(tr) }},
		{5, 0, "Table V: chiplet utilization on generic vs library configurations",
			func() string { return report.TableV(tr, tt) }},
		{6, 0, "Table VI: test-phase NRE costs",
			func() string { return report.TableVI(tr, tt) }},
		{0, 2, "Figure 2: most frequent edge combinations in the training set",
			func() string { return report.Figure2(tr.Models, 12) }},
		{0, 3, "Figure 3: CNN-class library graph before/after clustering (DOT)",
			func() string {
				before, after := report.Figure3(tr)
				return "--- before clustering (monolithic) ---\n" + before +
					"--- after clustering (chiplets) ---\n" + after
			}},
		{0, 4, "Figure 4: area/latency/energy of generic, custom and library configurations",
			func() string { return report.Figure4(tr, tt) }},
	}

	printed := 0
	for _, s := range sections {
		if *table != 0 && s.table != *table {
			continue
		}
		if *figure != 0 && s.figure != *figure {
			continue
		}
		if (*table != 0 && s.table == 0) || (*figure != 0 && s.figure == 0) {
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", s.title, s.body())
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; use -table 1..6 or -figure 2..4")
		os.Exit(2)
	}

	if *memoryAdvisory {
		printMemoryAdvisory(tr)
	}

	if *assign != "" {
		if err := assignModelFile(tr, o, *assign); err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, tr, tt); err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote CSV exports to %s\n", *csvDir)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
		err = report.WriteJSON(f, tr, tt)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON summary to %s\n", *jsonPath)
	}

	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(report.Markdown(tr, tt)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote markdown report to %s\n", *mdPath)
	}

	if *dotDir != "" {
		before, after := report.Figure3(tr)
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for name, body := range map[string]string{
			"figure3a_monolithic.dot": before,
			"figure3b_chiplets.dot":   after,
		} {
			if err := os.WriteFile(filepath.Join(*dotDir, name), []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote Figure 3 DOT files to %s\n", *dotDir)
	}

	if *table == 0 && *figure == 0 {
		s := o.Evaluator.Stats()
		fmt.Printf("training phase converged in %v over %d DSE configurations (%s; %d workers, eval cache: %d entries, %.0f%% hit rate)\n",
			tr.Elapsed, o.Space.Len(), o.Space.Desc(), o.Evaluator.Workers(), s.Entries, 100*s.HitRate())
	}
}

// printMemoryAdvisory reports, per training algorithm, whether its weights
// are resident in its library package's SRAM or must stream from DRAM — the
// on-chip assumption the paper leaves implicit (see internal/memory).
func printMemoryAdvisory(tr *core.TrainResult) {
	sys := memory.Default()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Println("=== Memory residency advisory (beyond paper; internal/memory) ===")
	fmt.Fprintln(w, "Algorithm	Weights	Package SRAM	Resident	DRAM floor (prefill)	DRAM floor (decode/token)")
	for _, m := range tr.Models {
		k := tr.SubsetOf(m.Name)
		chiplets := len(tr.Subsets[k].Library.Chiplets)
		a, err := memory.Analyze(memory.FootprintOf(m), chiplets, sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "claire:", err)
			os.Exit(1)
		}
		resident := "yes"
		prefill, decode := "-", "-"
		if !a.WeightsResident {
			resident = "no"
			prefill = fmt.Sprintf("%.1f ms", a.StreamLatencyS*1e3)
			decode = fmt.Sprintf("%.1f ms", a.StreamLatencyS*1e3) // every token re-streams
		}
		fmt.Fprintf(w, "%s\t%d MB\t%d MB\t%s\t%s\t%s\n",
			m.Name, memory.FootprintOf(m).WeightBytes>>20, a.CapacityBytes>>20,
			resident, prefill, decode)
	}
	w.Flush()
	fmt.Println()
}

// assignModelFile parses a user model dump and runs the test phase on it.
func assignModelFile(tr *core.TrainResult, o core.Options, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := workload.ParseDump(f)
	if err != nil {
		return err
	}
	tt, err := core.Test(tr, []*workload.Model{m}, o)
	if err != nil {
		return err
	}
	a := tt.Assignments[0]
	if a.SubsetIndex < 0 {
		fmt.Printf("%s: no library configuration reaches 100%% coverage; bespoke design required (custom NRE %.3f)\n",
			m.Name, a.Custom.NRE)
		return nil
	}
	s := tr.Subsets[a.SubsetIndex]
	fmt.Printf("%s -> %s (similarity %.2f, coverage 100%%): latency %.3f ms, energy %.2f mJ, utilization %.2f\n",
		m.Name, s.Name, a.Similarity,
		a.OnLibrary.Total.LatencyS*1e3, a.OnLibrary.Total.EnergyPJ*1e-9, a.OnLibrary.Utilization)
	return nil
}

// writeCSVs exports every table/figure series.
func writeCSVs(dir string, tr *core.TrainResult, tt *core.TestResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]func(f *os.File) error{
		"table1_training_set.csv": func(f *os.File) error { return report.TableICSV(f, tr.Models) },
		"table4_training_nre.csv": func(f *os.File) error { return report.TableIVCSV(f, tr) },
		"table5_utilization.csv":  func(f *os.File) error { return report.TableVCSV(f, tr, tt) },
		"table6_test_nre.csv":     func(f *os.File) error { return report.TableVICSV(f, tr, tt) },
		"figure2_edges.csv":       func(f *os.File) error { return report.Figure2CSV(f, tr.Models, 12) },
		"figure4_ppa.csv":         func(f *os.File) error { return report.Figure4CSV(f, tr, tt) },
	}
	for name, write := range files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
