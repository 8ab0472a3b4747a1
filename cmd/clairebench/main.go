// Command clairebench measures the framework's hot paths with the standard
// testing.Benchmark driver and writes a machine-readable perf trajectory
// (BENCH_PR10.json by default): ns/op, bytes/op and allocs/op for a
// cold-cache 81-point exploration of the training set (serial and parallel),
// the streaming fine-space exploration, and the full training phase. The
// report also records the streaming sweep's retained-candidate memory versus
// the naive summary matrix, the heterogeneous "mixfine" catalogue-space
// stream (>=10^5 mixed-type points), parallel-scaling curves — wall-clock,
// speedup, efficiency and allocations swept over GOMAXPROCS x workers for
// the cold explore, both streams and the train pipeline — the shared
// engine's cache counters for a full train+test run, the budgeted
// metaheuristic search (internal/search) against the exhaustive optimum of
// the fine and mixfine spaces (optimality gap, evaluations-per-win and
// evaluation fraction for both strategies at a 5% budget, gated by -max-gap
// and -max-evals-ratio), the staged multi-fidelity overhead: analytical
// versus staged wall-clock on the paper and fine spaces with the stage-1
// counters, gated by -max-refined-ratio on large spaces, and a served-DSE
// load run: -server-requests mixed explore requests fired at an in-process
// claired server from -server-concurrency clients, reporting throughput,
// p50/p99/max latency, coalescing and the shared cache's hit rate. When
// -baseline points at a committed earlier report the cold-explore paths
// additionally gate against it via -max-regress.
//
// Usage:
//
//	clairebench                                        # write BENCH_PR10.json
//	clairebench -o bench.json -benchtime 2s            # custom path/budget
//	clairebench -scale-procs 1,2,4 -scale-reps 3       # custom scaling sweep
//	clairebench -baseline BENCH_PR9.json -max-regress 0.25
//	clairebench -max-gap 0.01 -max-evals-ratio 0.05    # search acceptance gate
//	clairebench -max-refined-ratio 0.05                # staged fidelity budget gate
//	clairebench -server-requests 256 -server-concurrency 16
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Measurement is one benchmark result in machine-readable form.
type Measurement struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func measure(r testing.BenchmarkResult) Measurement {
	return Measurement{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// FineStream reports one streaming exploration of the fine preset with the
// full training set — the large-space mode that was previously infeasible to
// hold in memory as a per-point summary matrix.
type FineStream struct {
	SpaceDesc     string  `json:"space_desc"`
	Points        int     `json:"points"`
	Models        int     `json:"models"`
	Seconds       float64 `json:"seconds"`
	ChunkSize     int     `json:"chunk_size"`
	MaxRetained   int     `json:"max_retained_candidates"`
	RetainedBytes int64   `json:"retained_bytes"`
	NaiveBytes    int64   `json:"naive_matrix_bytes"`
	RetainedRatio float64 `json:"retained_ratio"`
	CacheBypassed bool    `json:"cache_bypassed"`
	SelectedPoint string  `json:"selected_point"`
}

// ScalePoint is one cell of a parallel-scaling curve: wall-clock for a
// workload at a given GOMAXPROCS x workers setting, plus speedup relative to
// the same curve's (1,1) cell and efficiency (speedup / GOMAXPROCS).
type ScalePoint struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	Allocs     uint64  `json:"allocs"`
}

// ScalingCurve is the swept scaling behaviour of one workload. Speedup and
// efficiency are relative to this curve's own serial (1 proc, 1 worker)
// cell, so the curve is self-contained and machine-comparable across
// reports regardless of absolute machine speed.
type ScalingCurve struct {
	Desc   string       `json:"desc"`
	Points []ScalePoint `json:"points"`
}

// CacheStats snapshots the shared engine after a full train+test run.
type CacheStats struct {
	Entries int     `json:"entries"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// SearchRun is one budgeted metaheuristic search measured against the
// exhaustive optimum of the same space: the paper-criterion quantities
// (optimality gap on the summed per-model selection area, evaluation
// fraction of the exhaustive sweep) plus the trace's efficiency numbers.
type SearchRun struct {
	Space             string  `json:"space"`
	Strategy          string  `json:"strategy"`
	Models            int     `json:"models"`
	Points            int     `json:"points"`
	Seed              int64   `json:"seed"`
	Budget            int     `json:"budget"`
	Evaluations       int     `json:"evaluations"`
	UniquePoints      int     `json:"unique_points"`
	EvalsToWin        int     `json:"evals_to_win"`
	CacheHits         int     `json:"cache_hits"`
	Seconds           float64 `json:"seconds"`
	ExhaustiveEvals   int     `json:"exhaustive_evals"`
	EvalsRatio        float64 `json:"evals_ratio"`
	BestAreaMM2       float64 `json:"best_area_mm2"`
	ExhaustiveAreaMM2 float64 `json:"exhaustive_area_mm2"`
	Gap               float64 `json:"optimality_gap"`
	SelectedPoint     string  `json:"selected_point"`
}

// StagedRun is one analytical-vs-staged comparison on a space: the same
// streaming sweep run twice, once single-stage and once with the frontier
// re-scored through the physical NoC/placement/thermal models, with the
// stage-1 counters that prove the expensive models touched only the
// dominance frontier.
type StagedRun struct {
	Space         string `json:"space"`
	Points        int    `json:"points"`
	Models        int    `json:"models"`
	Retained      int    `json:"retained"`
	RefinedPoints int    `json:"refined_points"`
	ThermalRej    int    `json:"thermal_rejected"`
	// RefinedRatio is RefinedPoints / Points — the fraction of the space the
	// expensive models evaluated, gated by -max-refined-ratio on large spaces.
	RefinedRatio      float64 `json:"refined_ratio"`
	AnalyticalSeconds float64 `json:"analytical_seconds"`
	StagedSeconds     float64 `json:"staged_seconds"`
	// OverheadFraction is (staged - analytical) / analytical wall-clock.
	OverheadFraction float64 `json:"overhead_fraction"`
	AnalyticalPoint  string  `json:"analytical_point"`
	SelectedPoint    string  `json:"selected_point"`
	WinnerChanged    bool    `json:"winner_changed"`
}

// ServerLoad is one claired load run: Requests sync explore requests cycled
// over DistinctShapes request bodies, fired from Concurrency clients at an
// in-process server over real HTTP. Identical in-flight requests coalesce,
// so Accepted < Requests by construction; latency quantiles come from the
// server's own /metrics reservoir (per-job admission-to-settled time).
type ServerLoad struct {
	Workers        int     `json:"workers"`
	Concurrency    int     `json:"concurrency"`
	Requests       int     `json:"requests"`
	DistinctShapes int     `json:"distinct_shapes"`
	Seconds        float64 `json:"seconds"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	Accepted       int64   `json:"accepted"`
	Coalesced      int64   `json:"coalesced"`
	Completed      int64   `json:"completed"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

// Report is the BENCH_PR10.json schema (claire-bench/v6): v5 plus the served
// DSE load section.
type Report struct {
	Schema     string                 `json:"schema"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
	// BaselinePR1 is the pre-PR-2 state of the two original tracked paths,
	// measured on the reference machine immediately before the
	// layer-granular kernel refactor landed.
	BaselinePR1 map[string]Measurement `json:"baseline_pr1"`
	// Improvement reports current-vs-PR-1 ratios (fraction eliminated).
	Improvement map[string]float64 `json:"improvement_vs_baseline"`
	FineStream  *FineStream        `json:"fine_stream,omitempty"`
	// MixStream is the heterogeneous analogue of FineStream: one streaming
	// exploration of the "mixfine" catalogue space (>=10^5 mixed-type points).
	MixStream *FineStream `json:"mix_stream,omitempty"`
	// Scaling holds one curve per workload: explore_cold (full
	// GOMAXPROCS x workers cross), stream_fine / stream_mixfine / train
	// (diagonal, workers = GOMAXPROCS).
	Scaling   map[string]*ScalingCurve `json:"scaling,omitempty"`
	EvalCache *CacheStats              `json:"eval_cache,omitempty"`
	// Search holds one run per (space, strategy): anneal and genetic on the
	// fine preset (training set) and the mixfine catalogue space (3 models),
	// each at a 5% evaluation budget.
	Search []*SearchRun `json:"search,omitempty"`
	// Staged holds one analytical-vs-staged overhead run per space: the
	// 81-point paper space (small-space floor effects, not ratio-gated) and
	// the fine preset, both over the training set.
	Staged []*StagedRun `json:"staged,omitempty"`
	// Server is the claired load run (nil when -server-requests is 0).
	Server *ServerLoad `json:"server,omitempty"`
}

// baselinePR1 pins the pre-PR-2 numbers (seed + PR 1 engine) for the two
// tracked paths, measured with -benchtime 10x on the reference machine.
var baselinePR1 = map[string]Measurement{
	"explore_cold_workers1": {N: 10, NsPerOp: 38899091, BytesPerOp: 36954028, AllocsPerOp: 25274},
	"train_full":            {N: 10, NsPerOp: 52075371, BytesPerOp: 39403296, AllocsPerOp: 56084},
}

func main() {
	out := flag.String("o", "BENCH_PR10.json", "output file for the perf trajectory")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark time budget")
	baselinePath := flag.String("baseline", "", "earlier report to gate cold-explore regressions against")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional regression vs -baseline before failing")
	scaleProcs := flag.String("scale-procs", "1,2,4,8", "comma-separated GOMAXPROCS values for the scaling sweep (empty disables)")
	scaleReps := flag.Int("scale-reps", 2, "runs per scaling cell (best-of)")
	maxGap := flag.Float64("max-gap", 0.01, "allowed |optimality gap| for the budgeted search runs")
	maxEvalsRatio := flag.Float64("max-evals-ratio", 0.05, "allowed evaluation fraction of exhaustive for the search runs")
	searchSeed := flag.Int64("search-seed", 7, "seed for the budgeted search runs")
	maxRefinedRatio := flag.Float64("max-refined-ratio", 0.05, "allowed refined fraction of the space for staged fidelity on large (>=1000-point) spaces")
	serverRequests := flag.Int("server-requests", 256, "requests for the claired load run (0 disables)")
	serverConcurrency := flag.Int("server-concurrency", 16, "concurrent clients for the claired load run")
	serverWorkers := flag.Int("server-workers", 0, "claired worker pool for the load run (0: GOMAXPROCS)")
	testing.Init() // registers test.benchtime so the budget below takes effect
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "clairebench:", err)
		os.Exit(1)
	}
	procs, err := parseProcs(*scaleProcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench:", err)
		os.Exit(1)
	}

	models := workload.TrainingSet()
	space := hw.PointList(hw.Space())
	fine := hw.FineSpace()
	cons := dse.DefaultConstraints()
	benchmarks := map[string]func(b *testing.B){
		// Cold-cache exploration: a fresh engine per iteration, so every
		// iteration pays the full 13 x 81 sweep.
		"explore_cold_workers1": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := eval.New(eval.Options{Workers: 1})
				if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
					b.Fatal(err)
				}
			}
		},
		"explore_cold_workersN": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := eval.New(eval.Options{})
				if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
					b.Fatal(err)
				}
			}
		},
		// Warm-cache exploration: what tau/slack/evolution re-sweeps cost.
		"explore_warm": func(b *testing.B) {
			ev := eval.New(eval.Options{})
			if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
					b.Fatal(err)
				}
			}
		},
		// Streaming fine-space exploration (12k+ points x 13 models), cache
		// bypassed, memory bounded by the retained-candidate frontier.
		"explore_stream_fine": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := eval.New(eval.Options{})
				if _, err := dse.ExploreSpaceCtx(context.Background(), models, fine, cons, ev, nil); err != nil {
					b.Fatal(err)
				}
			}
		},
		// Full training phase (Algorithm 1 end to end).
		"train_full": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(models, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		},
	}

	rep := Report{
		Schema:      "claire-bench/v6",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Benchmarks:  make(map[string]Measurement, len(benchmarks)),
		BaselinePR1: baselinePR1,
		Improvement: make(map[string]float64),
	}
	for name, fn := range benchmarks {
		fmt.Fprintf(os.Stderr, "clairebench: running %s...\n", name)
		rep.Benchmarks[name] = measure(testing.Benchmark(fn))
	}
	for name, base := range baselinePR1 {
		cur, ok := rep.Benchmarks[name]
		if !ok || base.NsPerOp <= 0 || base.AllocsPerOp <= 0 {
			continue
		}
		rep.Improvement[name+"_ns"] = 1 - cur.NsPerOp/base.NsPerOp
		rep.Improvement[name+"_allocs"] = 1 - float64(cur.AllocsPerOp)/float64(base.AllocsPerOp)
	}

	rep.FineStream = measureFineStream(models, fine, cons)
	rep.MixStream = measureMixStream(cons)
	rep.Scaling = measureScaling(models, fine, cons, procs, *scaleReps)
	rep.EvalCache = measureCacheStats(models)
	rep.Search = measureSearch(models, fine, cons, *searchSeed)
	rep.Staged = measureStaged(models, fine, cons)
	rep.Server = measureServerLoad(*serverRequests, *serverConcurrency, *serverWorkers)

	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "clairebench:", err)
		os.Exit(1)
	}

	for _, name := range []string{"explore_cold_workers1", "train_full"} {
		m := rep.Benchmarks[name]
		fmt.Printf("%-22s %12.0f ns/op %12d B/op %8d allocs/op  (%.0f%% faster, %.0f%% fewer allocs than PR 1)\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp,
			100*rep.Improvement[name+"_ns"], 100*rep.Improvement[name+"_allocs"])
	}
	fs := rep.FineStream
	fmt.Printf("fine stream: %d points x %d models in %.2fs, %d retained candidates peak (%.1f%% of naive %d-byte matrix)\n",
		fs.Points, fs.Models, fs.Seconds, fs.MaxRetained, 100*fs.RetainedRatio, fs.NaiveBytes)
	ms := rep.MixStream
	fmt.Printf("mix stream:  %d points x %d models in %.2fs, %d retained candidates peak (%.1f%% of naive %d-byte matrix), selected %s\n",
		ms.Points, ms.Models, ms.Seconds, ms.MaxRetained, 100*ms.RetainedRatio, ms.NaiveBytes, ms.SelectedPoint)
	printScaling(rep.Scaling, rep.NumCPU)
	ec := rep.EvalCache
	fmt.Printf("eval cache (train+test): %d entries, %d hits / %d misses (%.0f%% hit rate)\n",
		ec.Entries, ec.Hits, ec.Misses, 100*ec.HitRate)
	for _, sr := range rep.Search {
		fmt.Printf("search %-8s %-8s gap %+.3f%% at %.2f%% of %d exhaustive evals (winner after %d of %d, %.2fs) selected %s\n",
			sr.Space, sr.Strategy, 100*sr.Gap, 100*sr.EvalsRatio, sr.ExhaustiveEvals,
			sr.EvalsToWin, sr.Evaluations, sr.Seconds, sr.SelectedPoint)
	}
	for _, st := range rep.Staged {
		fmt.Printf("staged %-8s refined %d of %d points (%.2f%%), %d thermal-rejected, overhead %+.0f%% (%.2fs vs %.2fs), winner %s -> %s\n",
			st.Space, st.RefinedPoints, st.Points, 100*st.RefinedRatio, st.ThermalRej,
			100*st.OverheadFraction, st.StagedSeconds, st.AnalyticalSeconds,
			st.AnalyticalPoint, st.SelectedPoint)
	}
	if sv := rep.Server; sv != nil {
		fmt.Printf("server load: %d requests (%d shapes) x %d clients on %d workers: %.0f req/s, p50 %.1f ms, p99 %.1f ms, max %.1f ms, %d coalesced, cache hit rate %.0f%%\n",
			sv.Requests, sv.DistinctShapes, sv.Concurrency, sv.Workers,
			sv.ThroughputRPS, sv.P50Ms, sv.P99Ms, sv.MaxMs, sv.Coalesced, 100*sv.CacheHitRate)
	}
	fmt.Printf("wrote %s\n", *out)

	if err := gateSearch(rep.Search, *maxGap, *maxEvalsRatio); err != nil {
		fmt.Fprintln(os.Stderr, "clairebench:", err)
		os.Exit(1)
	}
	fmt.Printf("search within gap %.1f%% at <=%.0f%% of exhaustive evaluations on every space\n",
		100**maxGap, 100**maxEvalsRatio)

	if err := gateStaged(rep.Staged, *maxRefinedRatio); err != nil {
		fmt.Fprintln(os.Stderr, "clairebench:", err)
		os.Exit(1)
	}
	fmt.Printf("staged fidelity refined <=%.0f%% of every large space\n", 100**maxRefinedRatio)

	if *baselinePath != "" {
		if err := gateRegressions(*baselinePath, rep, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "clairebench:", err)
			os.Exit(1)
		}
		fmt.Printf("no regression beyond %.0f%% vs %s\n", 100**maxRegress, *baselinePath)
	}
}

// measureSearch runs both metaheuristic strategies at a 5% budget on the
// fine preset (training set) and the mixfine catalogue space (3 models),
// measuring each against the exhaustive optimum of the same space — the
// paper-criterion acceptance quantities.
func measureSearch(models []*workload.Model, fine hw.SpaceSpec, cons dse.Constraints, seed int64) []*SearchRun {
	mixSpace, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: search:", err)
		os.Exit(1)
	}
	mixModels := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	var out []*SearchRun
	for _, tc := range []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"fine", fine, models},
		{"mixfine", mixSpace, mixModels},
	} {
		fmt.Fprintf(os.Stderr, "clairebench: measuring budgeted search on %s...\n", tc.name)
		n, nm := tc.space.Len(), len(tc.models)
		refEv := eval.New(eval.Options{})
		exh, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, refEv, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairebench: search:", err)
			os.Exit(1)
		}
		exhArea, err := selectionArea(refEv, tc.models, tc.space, exh.Config.Point)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairebench: search:", err)
			os.Exit(1)
		}
		budget := n * nm / 20
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := search.ParseSpec(kind)
			if err != nil {
				fmt.Fprintln(os.Stderr, "clairebench: search:", err)
				os.Exit(1)
			}
			ev := eval.New(eval.Options{})
			opt, err := search.New(spec, search.Options{Seed: seed, Evaluator: ev})
			if err != nil {
				fmt.Fprintln(os.Stderr, "clairebench: search:", err)
				os.Exit(1)
			}
			start := time.Now()
			res, tr, err := opt.Run(context.Background(), tc.models, tc.space, cons, budget)
			elapsed := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clairebench: search %s/%s: %v\n", tc.name, kind, err)
				os.Exit(1)
			}
			out = append(out, &SearchRun{
				Space:             tc.name,
				Strategy:          tr.Strategy,
				Models:            nm,
				Points:            n,
				Seed:              seed,
				Budget:            budget,
				Evaluations:       tr.Evaluations,
				UniquePoints:      tr.UniquePoints,
				EvalsToWin:        tr.EvalsToWin,
				CacheHits:         tr.CacheHits,
				Seconds:           elapsed.Seconds(),
				ExhaustiveEvals:   n * nm,
				EvalsRatio:        float64(tr.Evaluations) / float64(n*nm),
				BestAreaMM2:       tr.BestAreaMM2,
				ExhaustiveAreaMM2: exhArea,
				Gap:               (tr.BestAreaMM2 - exhArea) / exhArea,
				SelectedPoint:     res.Config.Point.String(),
			})
		}
	}
	return out
}

// measureStaged runs the streaming sweep twice per space — analytical, then
// staged with the default physical-fidelity parameters — on the 81-point
// paper space and the fine preset (training set both times), capturing
// wall-clock overhead and the stage-1 counters. A fresh engine per run keeps
// the timings cold-cache-comparable.
func measureStaged(models []*workload.Model, fine hw.SpaceSpec, cons dse.Constraints) []*StagedRun {
	params := core.DefaultOptions().FidelityParams()
	var out []*StagedRun
	for _, tc := range []struct {
		name  string
		space hw.DesignSpace
	}{
		{"paper", hw.PaperSpace()},
		{"fine", fine},
	} {
		fmt.Fprintf(os.Stderr, "clairebench: measuring staged fidelity on %s...\n", tc.name)
		anaEv := eval.New(eval.Options{})
		anaStart := time.Now()
		ana, err := dse.ExploreSpaceCtx(context.Background(), models, tc.space, cons, anaEv, nil)
		anaElapsed := time.Since(anaStart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairebench: staged:", err)
			os.Exit(1)
		}
		var stats dse.ExploreStats
		stEv := eval.New(eval.Options{})
		fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: params}
		stStart := time.Now()
		st, err := dse.ExploreSpaceCtx(context.Background(), models, tc.space, cons, stEv, &dse.ExploreOptions{Fidelity: fo, Stats: &stats})
		stElapsed := time.Since(stStart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairebench: staged:", err)
			os.Exit(1)
		}
		out = append(out, &StagedRun{
			Space:             tc.name,
			Points:            stats.Points,
			Models:            stats.Models,
			Retained:          stats.Retained,
			RefinedPoints:     stats.RefinedPoints,
			ThermalRej:        stats.ThermalRejected,
			RefinedRatio:      float64(stats.RefinedPoints) / float64(stats.Points),
			AnalyticalSeconds: anaElapsed.Seconds(),
			StagedSeconds:     stElapsed.Seconds(),
			OverheadFraction:  (stElapsed.Seconds() - anaElapsed.Seconds()) / anaElapsed.Seconds(),
			AnalyticalPoint:   ana.Config.Point.String(),
			SelectedPoint:     st.Config.Point.String(),
			WinnerChanged:     st.Config.Point != ana.Config.Point,
		})
	}
	return out
}

// measureServerLoad boots an in-process claired server and fires requests
// sync explore requests at it from concurrency clients over real HTTP,
// cycling through a fixed set of distinct request shapes so identical
// in-flight requests exercise coalescing while the shared evaluator cache
// warms across shapes. Latency quantiles are the server's own per-job
// reservoir (admission to settled); throughput is client-side wall-clock.
func measureServerLoad(requests, concurrency, workers int) *ServerLoad {
	if requests <= 0 {
		return nil
	}
	if concurrency <= 0 {
		concurrency = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "clairebench: measuring served-DSE load (%d requests x %d clients)...\n",
		requests, concurrency)

	names := workload.Names()
	shapes := [][]byte{
		// One slow fine-space shape: concurrent identical submissions overlap
		// its execution window, so the coalescing path is exercised for real;
		// the paper-space shapes measure the cached steady state.
		[]byte(fmt.Sprintf(`{"models":[%q],"space":"fine","sync":true}`, names[0])),
		[]byte(fmt.Sprintf(`{"models":[%q],"sync":true}`, names[0])),
		[]byte(fmt.Sprintf(`{"models":[%q,%q],"sync":true}`, names[0], names[1])),
		[]byte(fmt.Sprintf(`{"models":[%q],"fidelity":"staged","sync":true}`, names[1])),
		[]byte(fmt.Sprintf(`{"models":[%q],"search":"anneal","budget":32,"seed":7,"sync":true}`, names[2%len(names)])),
		[]byte(fmt.Sprintf(`{"models":[%q],"constraints":{"latency_slack":0.2},"sync":true}`, names[0])),
		[]byte(fmt.Sprintf(`{"models":[%q,%q],"constraints":{"latency_slack":0.3},"sync":true}`, names[1], names[2%len(names)])),
	}

	srv := serve.New(serve.ManagerConfig{Workers: workers, MaxQueue: requests + 1})
	hs := httptest.NewServer(srv.Handler())
	client := hs.Client()

	var next atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				resp, err := client.Post(hs.URL+"/v1/explore", "application/json",
					bytes.NewReader(shapes[i%len(shapes)]))
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	hs.Close()
	srv.Close()
	if n := failures.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "clairebench: server load: %d of %d requests failed\n", n, requests)
		os.Exit(1)
	}

	met := srv.Manager().Metrics()
	lat := met.Latency()
	es := srv.Manager().Evaluator().Stats()
	return &ServerLoad{
		Workers:        workers,
		Concurrency:    concurrency,
		Requests:       requests,
		DistinctShapes: len(shapes),
		Seconds:        elapsed.Seconds(),
		ThroughputRPS:  float64(requests) / elapsed.Seconds(),
		Accepted:       met.Accepted.Load(),
		Coalesced:      met.Coalesced.Load(),
		Completed:      met.Completed.Load(),
		P50Ms:          lat.P50Ms,
		P99Ms:          lat.P99Ms,
		MaxMs:          lat.MaxMs,
		CacheHitRate:   es.HitRate(),
	}
}

// gateStaged enforces the multi-fidelity acceptance criterion: on large
// spaces the expensive models may touch at most maxRatio of the points. The
// 81-point paper space is exempt — its dominance frontier is a double-digit
// fraction of the space by floor effect alone — but it must still refine
// strictly fewer points than it swept.
func gateStaged(runs []*StagedRun, maxRatio float64) error {
	for _, st := range runs {
		if st.RefinedPoints >= st.Points {
			return fmt.Errorf("staged %s: refined %d of %d points — frontier pruning is not bounding stage 1",
				st.Space, st.RefinedPoints, st.Points)
		}
		if st.Points >= 1000 && st.RefinedRatio > maxRatio {
			return fmt.Errorf("staged %s: refined %.2f%% of %d points, above %.0f%%",
				st.Space, 100*st.RefinedRatio, st.Points, 100*maxRatio)
		}
	}
	return nil
}

// selectionArea recomputes the summed per-model selection area of a point —
// the quantity the search minimizes, so gap comparisons are like for like.
func selectionArea(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, pt hw.Point) (float64, error) {
	area := 0.0
	for _, m := range models {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		c.Point = pt
		s, err := ev.EvaluateSummary(m, c, 1)
		if err != nil {
			return 0, err
		}
		area += s.AreaMM2
	}
	return area, nil
}

// gateSearch enforces the acceptance criterion on every search run: within
// maxGap of the exhaustive optimum at no more than maxRatio of its
// evaluations.
func gateSearch(runs []*SearchRun, maxGap, maxRatio float64) error {
	for _, sr := range runs {
		if math.Abs(sr.Gap) > maxGap {
			return fmt.Errorf("search %s/%s: optimality gap %.4f exceeds %.4f (search %.4f mm2, exhaustive %.4f mm2)",
				sr.Space, sr.Strategy, sr.Gap, maxGap, sr.BestAreaMM2, sr.ExhaustiveAreaMM2)
		}
		if sr.EvalsRatio > maxRatio {
			return fmt.Errorf("search %s/%s: %d evaluations are %.2f%% of exhaustive, above %.0f%%",
				sr.Space, sr.Strategy, sr.Evaluations, 100*sr.EvalsRatio, 100*maxRatio)
		}
	}
	return nil
}

// parseProcs parses the -scale-procs list; an empty string disables the
// scaling sweep entirely.
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var procs []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-scale-procs: bad value %q", part)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// measureFineStream runs one streaming exploration of the fine preset and
// captures its timing plus the bounded-memory evidence.
func measureFineStream(models []*workload.Model, fine hw.SpaceSpec, cons dse.Constraints) *FineStream {
	fmt.Fprintln(os.Stderr, "clairebench: measuring fine-space stream...")
	var stats dse.ExploreStats
	ev := eval.New(eval.Options{})
	start := time.Now()
	r, err := dse.ExploreSpaceCtx(context.Background(), models, fine, cons, ev, &dse.ExploreOptions{Stats: &stats})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: fine stream:", err)
		os.Exit(1)
	}
	return &FineStream{
		SpaceDesc:     fine.Desc(),
		Points:        stats.Points,
		Models:        stats.Models,
		Seconds:       elapsed.Seconds(),
		ChunkSize:     stats.ChunkSize,
		MaxRetained:   stats.MaxRetained,
		RetainedBytes: stats.RetainedBytes,
		NaiveBytes:    stats.NaiveBytes,
		RetainedRatio: float64(stats.RetainedBytes) / float64(stats.NaiveBytes),
		CacheBypassed: stats.CacheBypassed,
		SelectedPoint: r.Config.Point.String(),
	}
}

// measureMixStream runs one streaming exploration of the heterogeneous
// "mixfine" preset (>=10^5 mixed-type points on the default catalogue) over a
// three-model set, capturing timing plus the bounded-memory evidence.
func measureMixStream(cons dse.Constraints) *FineStream {
	fmt.Fprintln(os.Stderr, "clairebench: measuring mixfine catalogue stream...")
	sp, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: mix stream:", err)
		os.Exit(1)
	}
	models := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	var stats dse.ExploreStats
	ev := eval.New(eval.Options{})
	start := time.Now()
	r, err := dse.ExploreSpaceCtx(context.Background(), models, sp, cons, ev, &dse.ExploreOptions{Stats: &stats})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: mix stream:", err)
		os.Exit(1)
	}
	return &FineStream{
		SpaceDesc:     sp.Desc(),
		Points:        stats.Points,
		Models:        stats.Models,
		Seconds:       elapsed.Seconds(),
		ChunkSize:     stats.ChunkSize,
		MaxRetained:   stats.MaxRetained,
		RetainedBytes: stats.RetainedBytes,
		NaiveBytes:    stats.NaiveBytes,
		RetainedRatio: float64(stats.RetainedBytes) / float64(stats.NaiveBytes),
		CacheBypassed: stats.CacheBypassed,
		SelectedPoint: r.Config.Point.String(),
	}
}

// measureScaling sweeps every workload across the -scale-procs GOMAXPROCS
// list: the cold explore over the full GOMAXPROCS x workers cross (it is
// cheap enough), the two streams and the train pipeline along the diagonal
// (workers = GOMAXPROCS, the deployment configuration). Each cell is
// best-of-reps wall-clock with the allocation count of the last run; speedup
// is relative to the curve's own (1,1) cell. GOMAXPROCS is restored before
// returning.
func measureScaling(models []*workload.Model, fine hw.SpaceSpec, cons dse.Constraints, procs []int, reps int) map[string]*ScalingCurve {
	if len(procs) == 0 {
		return nil
	}
	if reps < 1 {
		reps = 1
	}
	fmt.Fprintf(os.Stderr, "clairebench: measuring parallel scaling (procs=%v, NumCPU=%d)...\n", procs, runtime.NumCPU())

	mixSpace, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: scaling:", err)
		os.Exit(1)
	}
	mixModels := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	paperSpace := hw.PointList(hw.Space())

	workloads := []struct {
		name  string
		desc  string
		cross bool // full procs x workers cross vs diagonal only
		run   func(workers int) error
	}{
		{"explore_cold", "cold 81-point paper-space explore, training set", true,
			func(w int) error {
				ev := eval.New(eval.Options{Workers: w})
				_, err := dse.ExploreSpaceCtx(context.Background(), models, paperSpace, cons, ev, nil)
				return err
			}},
		{"stream_fine", "streaming fine-space explore, training set", false,
			func(w int) error {
				ev := eval.New(eval.Options{Workers: w})
				_, err := dse.ExploreSpaceCtx(context.Background(), models, fine, cons, ev, nil)
				return err
			}},
		{"stream_mixfine", "streaming mixfine catalogue explore, 3 models", false,
			func(w int) error {
				ev := eval.New(eval.Options{Workers: w})
				_, err := dse.ExploreSpaceCtx(context.Background(), mixModels, mixSpace, cons, ev, nil)
				return err
			}},
		{"train", "full training pipeline, paper space", false,
			func(w int) error {
				o := core.DefaultOptions()
				o.Workers = w
				_, err := core.Train(models, o)
				return err
			}},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	cell := func(run func(int) error, p, w int) ScalePoint {
		runtime.GOMAXPROCS(p)
		best := 0.0
		var allocs uint64
		for i := 0; i < reps; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := run(w); err != nil {
				fmt.Fprintln(os.Stderr, "clairebench: scaling:", err)
				os.Exit(1)
			}
			elapsed := time.Since(start).Seconds()
			runtime.ReadMemStats(&after)
			if best == 0 || elapsed < best {
				best = elapsed
				allocs = after.Mallocs - before.Mallocs
			}
		}
		return ScalePoint{GOMAXPROCS: p, Workers: w, Seconds: best, Allocs: allocs}
	}

	out := make(map[string]*ScalingCurve, len(workloads))
	for _, wl := range workloads {
		curve := &ScalingCurve{Desc: wl.desc}
		for _, p := range procs {
			if wl.cross {
				for _, w := range procs {
					curve.Points = append(curve.Points, cell(wl.run, p, w))
				}
			} else {
				curve.Points = append(curve.Points, cell(wl.run, p, p))
			}
		}
		// Speedup/efficiency relative to this curve's first cell — the
		// smallest swept GOMAXPROCS with workers to match, i.e. the serial
		// (1,1) cell under the default -scale-procs list.
		base := curve.Points[0].Seconds
		for i := range curve.Points {
			pt := &curve.Points[i]
			if pt.Seconds > 0 && base > 0 {
				pt.Speedup = base / pt.Seconds
				pt.Efficiency = pt.Speedup / float64(pt.GOMAXPROCS)
			}
		}
		out[wl.name] = curve
		fmt.Fprintf(os.Stderr, "clairebench: scaling %s done (%d cells)\n", wl.name, len(curve.Points))
	}
	return out
}

// printScaling renders the scaling curves as a fixed-width table.
func printScaling(curves map[string]*ScalingCurve, numCPU int) {
	if len(curves) == 0 {
		return
	}
	fmt.Printf("parallel scaling (NumCPU=%d; speedup vs each curve's serial cell):\n", numCPU)
	for _, name := range []string{"explore_cold", "stream_fine", "stream_mixfine", "train"} {
		c, ok := curves[name]
		if !ok {
			continue
		}
		for _, pt := range c.Points {
			fmt.Printf("  %-15s procs=%-2d workers=%-2d %9.4fs  %5.2fx  eff %4.0f%%  %9d allocs\n",
				name, pt.GOMAXPROCS, pt.Workers, pt.Seconds, pt.Speedup, 100*pt.Efficiency, pt.Allocs)
		}
	}
}

// measureCacheStats runs a full train+test on one shared engine and
// snapshots its counters — the cache line both CLIs print, machine-readable.
func measureCacheStats(models []*workload.Model) *CacheStats {
	fmt.Fprintln(os.Stderr, "clairebench: measuring train+test cache reuse...")
	o := core.DefaultOptions()
	o.Evaluator = o.Engine()
	tr, err := core.Train(models, o)
	if err == nil {
		_, err = core.Test(tr, workload.TestSet(), o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairebench: cache stats:", err)
		os.Exit(1)
	}
	s := o.Evaluator.Stats()
	return &CacheStats{Entries: s.Entries, Hits: s.Hits, Misses: s.Misses, HitRate: s.HitRate()}
}

// gateRegressions compares the cold-explore paths against an earlier
// committed report and errors when ns/op or allocs/op regressed beyond the
// allowed fraction.
func gateRegressions(path string, rep Report, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	for _, name := range []string{"explore_cold_workers1", "explore_cold_workersN"} {
		b, ok := base.Benchmarks[name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		cur := rep.Benchmarks[name]
		if cur.NsPerOp > b.NsPerOp*(1+maxRegress) {
			return fmt.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (>%.0f%%)",
				name, cur.NsPerOp, b.NsPerOp, 100*maxRegress)
		}
		if b.AllocsPerOp > 0 && float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxRegress) {
			return fmt.Errorf("%s allocs regressed: %d/op vs baseline %d (>%.0f%%)",
				name, cur.AllocsPerOp, b.AllocsPerOp, 100*maxRegress)
		}
	}
	return nil
}

func writeReport(path string, rep Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
