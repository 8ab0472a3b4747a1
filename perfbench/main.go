// Command perfbench is the repository's benchmark. It runs one of three
// workloads for a fixed window, checks the outputs, and prints one JSON
// result line as the last line of standard output:
//
//   - pipeline: full CLAIRE runs (core.Train over 13 networks, then
//     core.Test over the other 6) on the fine space with staged fidelity,
//     back to back with one client.
//   - explore: passes of cold analytical sweeps of fine and mixfine plus four
//     budgeted searches, back to back with one client.
//   - serve: an open loop of async explore requests against a claired child
//     process on loopback at a fixed reference rate, then, in traced runs, a
//     closed loop of sync requests that keeps a second claired child
//     saturated.
//
// Untraced runs (-trace 0) print the end-to-end metrics; traced runs
// (-trace 1) time the calls into each layer and print the per-layer metrics.
// The workloads and metrics are described in BENCHMARK.json.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload explore --seed 3 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	claired  string
	traceDir string
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics a traced run prints, on every workload. A layer
// idle on a workload reads 0 there.
var perLayer = []metricDef{
	{"pipeline_s", "s"},
	{"fine_sweep_s", "s"},
	{"mixfine_sweep_s", "s"},
	{"search_s", "s"},
	{"search_gap", "ratio"},
	{"latency_p99_ms", "ms"},
	{"ppa.summary_ns", "ns"},
	{"ppa.mix_summary_ns", "ns"},
	{"ppa.full_eval_us", "us"},
	{"eval.cache_hit_ratio", "ratio"},
	{"eval.cache_entries", "count"},
	{"eval.plan_build_ms", "ms"},
	{"dse.sweep_ns_per_eval", "ns"},
	{"dse.reduce_ns_per_eval", "ns"},
	{"dse.max_retained", "count"},
	{"fidelity.stage1_ms", "ms"},
	{"fidelity.refined_points", "count"},
	{"fidelity.ms_per_refined_point", "ms"},
	{"fidelity.build_ms", "ms"},
	{"fidelity.rescore_us", "us"},
	{"louvain.cluster_ms", "ms"},
	{"louvain.calls", "count"},
	{"search.anneal_ms", "ms"},
	{"search.genetic_ms", "ms"},
	{"search.evals_ratio", "ratio"},
	{"search.coord_share", "ratio"},
	{"core.train_s", "s"},
	{"core.test_s", "s"},
	{"core.build_design_ms", "ms"},
	{"core.designs", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.job_ms_p50", "ms"},
	{"serve.job_ms_p99", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.backlog_growth", "count"},
	{"serve.saturated_rps", "1/s"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.heap_peak_mib", "MiB"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run incorrect.
	problems []string
	values   map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"pipeline": runPipeline,
	"explore":  runExplore,
	"serve":    runServe,
}

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pipeline, explore or serve")
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed (0: the paper's Table I split first)")
	flag.IntVar(&seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.claired, "claired", "", "claired binary the serve workload starts")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for span files of traced runs (empty: not written)")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload pipeline|explore|serve, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if tr != nil {
		tr.report(os.Stderr)
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				os.Exit(1)
			}
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]reportedMetric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = reportedMetric{Value: out.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupReps is how many times the batch workloads set up; setup_s is the
// median.
const setupReps = 31

// timeSetup runs setup reps times and returns the median wall-clock in
// seconds; the last run's state is what the workload then uses.
func timeSetup(reps int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	q1, q3 := quartiles(secs)
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups: median %.2f ms, quartiles %.2f-%.2f ms\n",
		reps, median(secs)*1e3, q1*1e3, q3*1e3)
	return median(secs), nil
}

// selfPeakRSSMiB is the peak resident memory of this process.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSampler reads the Go runtime's own counters for the go.* metrics:
// allocation counts and bytes, GC CPU share, and the peak of the live heap
// objects sampled after every operation.
type runtimeSampler struct {
	samples  []metrics.Sample
	start    [4]float64
	heapPeak uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{samples: make([]metrics.Sample, len(runtimeNames))}
	for i, n := range runtimeNames {
		s.samples[i].Name = n
	}
	s.read()
	for i := range s.start {
		s.start[i] = s.value(i)
	}
	return s
}

func (s *runtimeSampler) read() {
	metrics.Read(s.samples)
	if s.samples[4].Value.Kind() == metrics.KindUint64 {
		s.heapPeak = max(s.heapPeak, s.samples[4].Value.Uint64())
	}
}

func (s *runtimeSampler) value(i int) float64 {
	switch v := s.samples[i].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// tick samples the live heap; call it after every operation.
func (s *runtimeSampler) tick() { s.read() }

// finish stores the go.* metrics for ops operations.
func (s *runtimeSampler) finish(out *outcome, ops int) {
	s.read()
	ops = max(ops, 1)
	d := func(i int) float64 { return s.value(i) - s.start[i] }
	out.values["go.allocs_per_op"] = d(0) / float64(ops)
	out.values["go.bytes_per_op"] = d(1) / float64(ops)
	if cpu := d(3); cpu > 0 {
		out.values["go.gc_cpu_fraction"] = d(2) / cpu
	}
	out.values["go.heap_peak_mib"] = float64(s.heapPeak) / (1 << 20)
}

// opLog collects the latencies of a closed loop's operations per draw, and
// whether each ran traced, for the latency and trace-overhead metrics.
type opLog struct {
	lat    [drawsPerRun][]float64
	traced [drawsPerRun][]bool
	ops    int
}

func (l *opLog) add(draw int, d time.Duration, traced bool) {
	l.lat[draw] = append(l.lat[draw], d.Seconds())
	l.traced[draw] = append(l.traced[draw], traced)
	l.ops++
}

// perDrawMedian is the mean over draws of each draw's median value: the
// run's typical figure with every draw weighted equally.
func perDrawMedian(vals [drawsPerRun][]float64) float64 {
	var meds []float64
	for _, v := range vals {
		if len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	return mean(meds)
}

// latencyP50 is the per-draw median operation latency in seconds.
func (l *opLog) latencyP50() float64 { return perDrawMedian(l.lat) }

// traceOverhead compares, draw by draw, the median latency of traced and
// untraced operations, and returns the mean relative difference.
func (l *opLog) traceOverhead() float64 {
	var diffs []float64
	for d := range l.lat {
		var on, off []float64
		for i, v := range l.lat[d] {
			if l.traced[d][i] {
				on = append(on, v)
			} else {
				off = append(off, v)
			}
		}
		if len(on) > 0 && len(off) > 0 {
			diffs = append(diffs, median(on)/median(off)-1)
		}
	}
	return mean(diffs)
}

// closedLoop runs op back to back until the window closes, cycling through
// the draws; every draw runs at least once. In traced runs every other
// operation runs traced, so the trace's overhead can be measured against
// the untraced ones. A failed operation is counted and logged, and the loop
// goes on.
func closedLoop(cfg config, rs *runtimeSampler, op func(i, draw int, traced bool) error) (*opLog, int) {
	log := &opLog{}
	failed := 0
	deadline := time.Now().Add(cfg.window)
	for i := 0; i < drawsPerRun || time.Now().Before(deadline); i++ {
		draw := i % drawsPerRun
		traced := cfg.trace && i%2 == 0
		start := time.Now()
		err := op(i, draw, traced)
		elapsed := time.Since(start)
		rs.tick()
		// Start every operation from a collected heap, as a fresh process
		// would, so one operation's garbage neither slows the next nor
		// stacks onto its peak memory.
		runtime.GC()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			continue
		}
		log.add(draw, elapsed, traced)
	}
	for d, lat := range log.lat {
		q1, q3 := quartiles(lat)
		fmt.Fprintf(os.Stderr, "perfbench: draw %d: %d ops, median %.4fs, quartiles %.4fs-%.4fs, ops %.4f\n", d, len(lat), median(lat), q1, q3, lat)
	}
	return log, failed
}

// checkDigests compares each draw's operation digests with each other (the
// program is deterministic) and, where recorded for this seed, with the
// committed ones.
func checkDigests(out *outcome, workload string, seed int64, got [drawsPerRun]map[string]int) {
	want := recordedDigests(workload, seed)
	for d, seen := range got {
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d draw %d output digests %v\n", workload, seed, d, keys)
		if len(keys) > 1 {
			out.problem("%s draw %d: repeated runs disagree: digests %v", workload, d, keys)
			continue
		}
		if want != nil && len(keys) == 1 && keys[0] != want[d] {
			out.problem("%s seed %d draw %d: output digest %s, recorded %s", workload, seed, d, keys[0], want[d])
		}
	}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the committed per-draw output digests of a
// workload at a seed, or nil when none are recorded. The file maps
// "<workload>/<seed>" to one digest per draw.
func recordedDigests(workload string, seed int64) []string {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: embedded digests.json: %v", err))
	}
	d := all[fmt.Sprintf("%s/%d", workload, seed)]
	if len(d) != drawsPerRun {
		return nil
	}
	return d
}
