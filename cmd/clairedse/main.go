// Command clairedse explores the raw design space for one algorithm: it
// sweeps all 81 tunable hardware configurations, prints each point's PPA and
// constraint status, and marks the selected custom configuration — the
// per-algorithm view of Algorithm 1, lines 1-8.
//
// Usage:
//
//	clairedse -model Resnet50
//	clairedse -model BERT-base -feasible   # only constraint-satisfying rows
//	clairedse -model VGG16 -pareto         # only area/latency Pareto points
//	clairedse -model GPT2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	clairedse -model Resnet50 -space mix -catalogue examples/catalogue/mobile-7nm.json
//	clairedse -model Resnet50 -space mixfine -search anneal -budget 5000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

func main() {
	model := flag.String("model", "Resnet50", "algorithm to explore")
	onlyFeasible := flag.Bool("feasible", false, "print only feasible points")
	onlyPareto := flag.Bool("pareto", false, "print only area/latency Pareto-optimal points")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS, 1 = serial)")
	spaceFlag := flag.String("space", "paper", "design space: paper, fine, mix, mixfine, or AxBxCxD axis cardinalities")
	catalogueFlag := flag.String("catalogue", "", "chiplet catalogue JSON file (empty: built-in 28nm default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile to this file on exit")
	searchFlag := flag.String("search", "", "budgeted search instead of the exhaustive sweep: anneal or genetic, with optional :key=val,... params")
	budget := flag.Int("budget", 0, "search evaluation budget in point x model units (0: 5% of the space)")
	seed := flag.Int64("seed", 0, "search random seed")
	fidelityFlag := flag.String("fidelity", "analytical", "evaluation pipeline: analytical (single-stage) or staged (frontier re-scored with NoC/placement/thermal models)")
	flag.Parse()

	stopProfiling, err := core.StartProfiles(core.ProfileConfig{
		CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile, Block: *blockProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintln(os.Stderr, "clairedse:", err)
		}
	}()

	m, err := workload.ByName(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clairedse: %v\nknown algorithms: %s\n",
			err, strings.Join(workload.Names(), ", "))
		os.Exit(1)
	}
	cat, err := hw.LoadCatalogue(*catalogueFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(2)
	}
	// The full pipeline's defaults on the chosen catalogue: staged fidelity
	// re-scores the selection frontier with exactly the physical models the
	// pipeline uses.
	o := core.DefaultOptions()
	o.Catalogue = cat
	o.Evaluator = eval.New(eval.Options{Workers: *workers})
	if err := o.Resolve(*spaceFlag, *searchFlag, *budget, *seed, *fidelityFlag); err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(2)
	}
	ev := o.Evaluator
	models := []*workload.Model{m}

	// Budgeted search: no per-point table (the whole point is not visiting
	// every row); print the winner and the trace instead.
	if o.Search != nil {
		res, tr, err := core.Explore(models, o, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairedse:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s search selected %v (%.1f mm2) on %s\n",
			m.Name, tr.Strategy, res.Config.Point, res.Config.AreaMM2(), res.SpaceDesc)
		total := o.Space.Len()
		fmt.Printf("budget: %d evaluations (%d unique points, %.1f%% of the space), winner found after %d; %d cache hits\n",
			tr.Evaluations, tr.UniquePoints, 100*float64(tr.UniquePoints)/float64(total), tr.EvalsToWin, tr.CacheHits)
		if tr.Fallback {
			fmt.Println("budget covered the whole space: fell back to the exhaustive streaming sweep")
		}
		printStaged(res)
		for _, imp := range tr.Improvements {
			fmt.Printf("  improvement at eval %d: %.1f mm2 %s\n", imp.Evals, imp.AreaMM2, imp.Point)
		}
		s := ev.Stats()
		fmt.Printf("eval engine: %d workers, %d entries, %d hits / %d misses (%.0f%% hit rate)\n",
			ev.Workers(), s.Entries, s.Hits, s.Misses, 100*s.HitRate())
		return
	}

	// The per-point table below inherently materializes every row, so the
	// sweep uses SweepSpace's explicit point list; the selection streams.
	pts, err := dse.SweepSpace(m, o.Space, o.Constraints, ev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(1)
	}
	// The selection pass re-reads the sweep's evaluations straight from the
	// engine's cache; under staged fidelity it additionally refines the
	// surviving frontier with the physical models.
	sel, _, err := core.Explore(models, o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(1)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Configuration\tArea(mm2)\tLatency(ms)\tEnergy(mJ)\tPD(W/mm2)\tFeasible\tPareto\tSelected\n")
	printed := 0
	for _, p := range pts {
		if *onlyFeasible && !p.Feasible {
			continue
		}
		if *onlyPareto && !p.Pareto {
			continue
		}
		mark := ""
		if p.Point == sel.Config.Point {
			mark = "<== C_i"
		}
		fmt.Fprintf(w, "%v\t%.1f\t%.3f\t%.2f\t%.2f\t%v\t%v\t%s\n",
			p.Point, p.Eval.AreaMM2, p.Eval.LatencyS*1e3, p.Eval.EnergyPJ()*1e-9,
			p.Eval.PowerDensity(), p.Feasible, p.Pareto, mark)
		printed++
	}
	w.Flush()
	fmt.Printf("\n%s: %d/%d points printed (%s), %d feasible, %d on the Pareto front; selected %v (%.1f mm2)\n",
		m.Name, printed, len(pts), sel.SpaceDesc, sel.Feasible, len(dse.ParetoFront(pts)),
		sel.Config.Point, sel.Config.AreaMM2())
	printStaged(sel)
	s := ev.Stats()
	fmt.Printf("eval engine: %d workers, %d entries, %d hits / %d misses (%.0f%% hit rate)\n",
		ev.Workers(), s.Entries, s.Hits, s.Misses, 100*s.HitRate())
}

// printStaged prints staged fidelity's stage-1 work and the winner's refined
// scores — what staged selection actually compared, next to the analytical
// numbers. It prints nothing for an analytical run.
func printStaged(res dse.Result) {
	r := res.Refined
	if r == nil {
		return
	}
	fmt.Printf("staged fidelity: %d frontier candidates refined with the physical models, %d rejected on junction temperature\n",
		r.Refined, r.ThermalRejected)
	if len(r.WinnerLatencyS) != len(res.Evals) {
		return
	}
	for i, e := range res.Evals {
		fmt.Printf("winner refined latency (%s): %.3f ms analytical -> %.3f ms with NoC/NoP transfer; peak Tj %.1f C\n",
			e.Model.Name, e.LatencyS*1e3, r.WinnerLatencyS[i]*1e3, r.WinnerPeakTempC)
	}
}
