package claire

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates its artifact from scratch), plus the design-
// choice ablations listed in DESIGN.md: D1 utilization granularity, D2
// subset-formation threshold, D3 clustering algorithm, D4 latency-constraint
// slack, D5 analytical-vs-simulated systolic timing, D6 weight- vs
// output-stationary dataflow, D7 sequential vs pipelined layer execution.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/jaccard"
	"repro/internal/metrics"
	"repro/internal/ppa"
	"repro/internal/report"
	"repro/internal/schedule"
	"repro/internal/search"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// --- Tables ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := report.TableI(workload.TrainingSet())
		if len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func benchTrain(b *testing.B) *core.TrainResult {
	b.Helper()
	tr, err := core.Train(workload.TrainingSet(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchTest(b *testing.B, tr *core.TrainResult) *core.TestResult {
	b.Helper()
	tt, err := core.Test(tr, workload.TestSet(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return tt
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		if len(report.TableII(tr)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		tt := benchTest(b, tr)
		if len(report.TableIII(tr, tt)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		if len(report.TableIV(tr)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		tt := benchTest(b, tr)
		if len(report.TableV(tr, tt)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		tt := benchTest(b, tr)
		if len(report.TableVI(tr, tt)) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figures ---

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := report.Figure2Data(workload.TrainingSet(), 12)
		if data[0].Pair.String() != "LINEAR-LINEAR" {
			b.Fatalf("top edge = %s", data[0].Pair)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		before, after := report.Figure3(tr)
		if len(before) == 0 || len(after) == 0 {
			b.Fatal("empty DOT output")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := benchTrain(b)
		tt := benchTest(b, tr)
		if len(report.Figure4Data(tr, tt)) != 19 {
			b.Fatal("figure 4 incomplete")
		}
	}
}

// --- Pipeline stages (for profiling the framework itself) ---

func BenchmarkTrainingPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchTrain(b)
	}
}

func BenchmarkTestPhase(b *testing.B) {
	tr := benchTrain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTest(b, tr)
	}
}

func BenchmarkDSESweep81Points(b *testing.B) {
	m := workload.NewResNet50()
	space := hw.PointList(hw.PaperSpace().Points())
	cons := dse.DefaultConstraints()
	ev := eval.New(eval.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ExploreSpaceCtx(context.Background(), []*workload.Model{m}, space, cons, ev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Evaluation engine ---

// BenchmarkExplore measures the parallel DSE engine on the 13-model training
// set (13 x 81 = 1053 evaluations per exploration). The workers=1 and
// workers=N sub-benchmarks run with a cold cache each iteration, isolating
// the worker pool's wall-clock speedup; outputs are identical at any worker
// count (see TestExploreDeterministicAcrossWorkers). The warm-cache
// sub-benchmark shows what a repeated sweep (tau, slack, evolution) costs on
// an engine that already holds the models' plans and the winner's
// evaluations: the sweep still scores every point, and only the winner's
// materialization hits, which the reported hit rate counts.
func BenchmarkExplore(b *testing.B) {
	models := workload.TrainingSet()
	space := hw.PointList(hw.PaperSpace().Points())
	cons := dse.DefaultConstraints()
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("cold/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := eval.New(eval.Options{Workers: w})
				if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("warm-cache", func(b *testing.B) {
		ev := eval.New(eval.Options{})
		if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*ev.Stats().HitRate(), "hit%")
	})
}

// BenchmarkEvaluateBatch isolates the analytical model itself on a deep CNN:
// the direct path (folds and counts recomputed per call), the plan path
// (cached fold decompositions, full per-layer materialization) and the
// summary path (cached plans, scalar totals only, near-zero allocation).
func BenchmarkEvaluateBatch(b *testing.B) {
	m := workload.NewResNet50()
	c := hw.NewConfig(hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16},
		[]*workload.Model{m})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ppa.EvaluateBatch(m, c, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	plan := ppa.NewModelPlan(m)
	b.Run("plan-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.EvaluateBatch(c, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan-summary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Summary(c, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExploreCold is the allocation-tracked acceptance benchmark of the
// layer-granular kernel refactor: a full cold-cache 13-model x 81-point
// exploration per iteration at Workers=1 (so ns/op and allocs/op are
// scheduling-noise-free). CI's perf gate (.github/benchgate.sh) runs it and
// BenchmarkExploreColdParallel at the base commit and at HEAD on one runner.
func BenchmarkExploreCold(b *testing.B) {
	models := workload.TrainingSet()
	space := hw.PointList(hw.PaperSpace().Points())
	cons := dse.DefaultConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := eval.New(eval.Options{Workers: 1})
		if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreColdParallel is the cold explore with the engine's default
// worker fan-out (GOMAXPROCS), so `go test -cpu 1,2,4` sweeps the sharded
// reduction across core counts — the CI parallel-scaling smoke.
func BenchmarkExploreColdParallel(b *testing.B) {
	models := workload.TrainingSet()
	space := hw.PointList(hw.PaperSpace().Points())
	cons := dse.DefaultConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := eval.New(eval.Options{})
		if _, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreStreamFine sweeps the 12k-point fine preset with the full
// training set through the streaming engine — the large-space mode whose
// naive per-point summary matrix the chunked sweep never materializes. It
// reports the sweep's unit cost, wall-clock nanoseconds per point·model,
// and its held rows (reportHeld).
func BenchmarkExploreStreamFine(b *testing.B) {
	models := workload.TrainingSet()
	fine := hw.FineSpace()
	cons := dse.DefaultConstraints()
	b.ReportAllocs()
	var stats dse.ExploreStats
	for i := 0; i < b.N; i++ {
		ev := eval.New(eval.Options{})
		if _, err := dse.ExploreSpaceCtx(context.Background(), models, fine, cons, ev, &dse.ExploreOptions{Stats: &stats}); err != nil {
			b.Fatal(err)
		}
		if stats.RetainedBytes*10 > stats.NaiveBytes {
			b.Fatalf("retained %d bytes exceeds 10%% of naive %d", stats.RetainedBytes, stats.NaiveBytes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fine.Len()*len(models)), "ns/point-model")
	reportHeld(b, stats)
}

// reportHeld reports a sweep's peak held rows per op: held-rows
// (ExploreStats.MaxRetained, the rows held with index and area) and
// band-rows (MaxBand, the bare latency rows of one-model staircases). On
// one worker (-cpu 1) both are exact, so a change to how selection holds
// rows shows up as a count, not only as time.
func reportHeld(b *testing.B, stats dse.ExploreStats) {
	b.ReportMetric(float64(stats.MaxRetained), "held-rows")
	b.ReportMetric(float64(stats.MaxBand), "band-rows")
}

// BenchmarkExploreStagedFine is BenchmarkExploreStreamFine with staged
// fidelity: the same sweep, then stage 1 re-scores its 288-point frontier
// with the physical models (one clustering, then per candidate a die split,
// a floorplan and uncached summaries). Each iteration runs on a fresh
// engine; run it with -benchmem for stage 1's allocation footprint.
func BenchmarkExploreStagedFine(b *testing.B) {
	models := workload.TrainingSet()
	fine := hw.FineSpace()
	cons := dse.DefaultConstraints()
	fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: core.DefaultOptions().FidelityParams()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := eval.New(eval.Options{})
		res, err := dse.ExploreSpaceCtx(context.Background(), models, fine, cons, ev,
			&dse.ExploreOptions{Fidelity: fo})
		if err != nil {
			b.Fatal(err)
		}
		if res.Refined.Refined == 0 {
			b.Fatal("stage 1 refined nothing")
		}
	}
}

// BenchmarkPipeline is perfbench's pipeline operation: one Table I run, the
// training set through core.Train and then the test set through core.Test,
// on the fine space with staged fidelity and a fresh engine per iteration.
// Each run makes 2 sweeps — one per phase, whose targets are the 19
// training and 6 test selections — that build 19 cost tables, so the
// sweep's chunk loop dominates it.
func BenchmarkPipeline(b *testing.B) {
	train, test := workload.TrainingSet(), workload.TestSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		o.Space = hw.FineSpace()
		o.Fidelity = dse.FidelityStaged
		o.Evaluator = o.Engine()
		tr, err := core.Train(train, o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Test(tr, test, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFine is perfbench's explore searches as a Go benchmark:
// anneal and genetic at a 5% budget on the fine space with the Table I
// training set, and on the mixfine space with AlexNet, ViT-base and
// ResNet18, at seed 7. Each search runs on a fresh engine, as perfbench's
// do; one op is all four searches. Each search's wall time per op is
// reported beside ns/op as <space>-<strategy>-ms.
func BenchmarkSearchFine(b *testing.B) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		b.Fatal(err)
	}
	jobs := []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"fine", hw.FineSpace(), workload.TrainingSet()},
		{"mixfine", mixfine, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}},
	}
	kinds := []string{"anneal", "genetic"}
	var specs []search.Spec
	for _, kind := range kinds {
		spec, err := search.ParseSpec(kind)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	cons := dse.DefaultConstraints()
	elapsed := make([]time.Duration, len(jobs)*len(specs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ji, j := range jobs {
			budget := j.space.Len() * len(j.models) / 20
			for si, spec := range specs {
				start := time.Now()
				opt, err := search.New(spec, search.Options{Seed: 7, Evaluator: eval.New(eval.Options{})})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := opt.Run(context.Background(), j.models, j.space, cons, budget); err != nil {
					b.Fatal(err)
				}
				elapsed[ji*len(specs)+si] += time.Since(start)
			}
		}
	}
	for ji, j := range jobs {
		for si, kind := range kinds {
			ms := float64(elapsed[ji*len(specs)+si].Microseconds()) / 1e3 / float64(b.N)
			b.ReportMetric(ms, j.name+"-"+kind+"-ms")
		}
	}
}

// BenchmarkExploreStreamMixFine is BenchmarkExploreStreamFine on the
// 110528-point heterogeneous mixfine preset with AlexNet, ViT-base and
// ResNet18 — the mix cost table's per-layer dispatch to the fastest chiplet
// type — reporting the same unit cost in ns/point-model and the same held
// rows.
func BenchmarkExploreStreamMixFine(b *testing.B) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		b.Fatal(err)
	}
	cons := dse.DefaultConstraints()
	b.ReportAllocs()
	b.ResetTimer()
	var stats dse.ExploreStats
	for i := 0; i < b.N; i++ {
		ev := eval.New(eval.Options{})
		if _, err := dse.ExploreSpaceCtx(context.Background(), models, mixfine, cons, ev, &dse.ExploreOptions{Stats: &stats}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mixfine.Len()*len(models)), "ns/point-model")
	reportHeld(b, stats)
}

// BenchmarkTauSweepCached contrasts the tau sweep (which retrains the whole
// library per threshold) on one shared engine with a fresh engine per tau:
// the shared engine keeps the models' plans and the designs already built
// (customs, generic, libraries), while every sweep rebuilds its cost tables.
func BenchmarkTauSweepCached(b *testing.B) {
	taus := []float64{0.30, 0.42, 0.60, 0.80}
	models := workload.TrainingSet()
	b.Run("shared-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SweepTau(models, core.DefaultOptions(), taus); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-per-tau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tau := range taus {
				o := core.DefaultOptions()
				o.Similarity.Tau = tau
				if _, err := core.Train(models, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Ablations ---

// BenchmarkAblationGranularity (D1): utilization at bank granularity vs
// instance-weighted granularity on the generic configuration.
func BenchmarkAblationGranularity(b *testing.B) {
	tr := benchTrain(b)
	banks := make([][]hw.Bank, len(tr.Generic.Chiplets))
	for i, c := range tr.Generic.Chiplets {
		banks[i] = c.Banks
	}
	need := hw.UnitsFor(workload.NewBERTBase())
	b.ResetTimer()
	var bankU, instU float64
	for i := 0; i < b.N; i++ {
		bankU = metrics.Utilization(banks, need)
		instU = metrics.WeightedUtilization(banks, need)
	}
	b.ReportMetric(bankU, "bank-utilization")
	b.ReportMetric(instU, "instance-utilization")
}

// BenchmarkAblationTau (D2): subset count as the similarity threshold sweeps.
func BenchmarkAblationTau(b *testing.B) {
	profiles := make([]jaccard.Profile, 0, 13)
	for _, m := range workload.TrainingSet() {
		profiles = append(profiles, jaccard.ProfileOfModel(m))
	}
	for _, tau := range []float64{0.30, 0.42, 0.60, 0.80} {
		tau := tau
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			o := jaccard.DefaultOptions()
			o.Tau = tau
			var subsets int
			for i := 0; i < b.N; i++ {
				subsets = len(jaccard.Partition(profiles, o))
			}
			b.ReportMetric(float64(subsets), "subsets")
		})
	}
}

// BenchmarkAblationCluster (D3): Louvain vs greedy bipartition, reporting the
// CNN library's chiplet count.
func BenchmarkAblationCluster(b *testing.B) {
	for _, c := range []struct {
		name string
		fn   core.ClusterFunc
	}{
		{"louvain", core.LouvainCluster},
		{"greedy", core.GreedyCluster},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			o := core.DefaultOptions()
			o.Cluster = c.fn
			var chiplets int
			for i := 0; i < b.N; i++ {
				tr, err := core.Train(workload.TrainingSet(), o)
				if err != nil {
					b.Fatal(err)
				}
				chiplets = len(tr.Subsets[tr.SubsetOf("Resnet18")].Library.Chiplets)
			}
			b.ReportMetric(float64(chiplets), "cnn-chiplets")
		})
	}
}

// BenchmarkAblationSlack (D4): custom-configuration area as the latency
// constraint tightens.
func BenchmarkAblationSlack(b *testing.B) {
	m := workload.NewResNet50()
	space := hw.PointList(hw.PaperSpace().Points())
	ev := eval.New(eval.Options{})
	for _, slack := range []float64{2.0, 1.0, 0.5} {
		slack := slack
		b.Run(fmt.Sprintf("slack=%.1f", slack), func(b *testing.B) {
			cons := dse.DefaultConstraints()
			cons.LatencySlack = slack
			var area float64
			for i := 0; i < b.N; i++ {
				r, err := dse.ExploreSpaceCtx(context.Background(), []*workload.Model{m}, space, cons, ev, nil)
				if err != nil {
					b.Fatal(err)
				}
				area = r.Config.AreaMM2()
			}
			b.ReportMetric(area, "mm2")
		})
	}
}

// BenchmarkAblationDataflow (D6): weight-stationary vs output-stationary
// dataflow on a reuse-heavy convolution — cycles and operand movement.
func BenchmarkAblationDataflow(b *testing.B) {
	conv := workload.Layer{
		Kind: workload.Conv2d, NIFM: 64, NOFM: 64, KX: 3, KY: 3,
		OFMX: 56, OFMY: 56,
	}
	for _, df := range []string{"weight-stationary", "output-stationary"} {
		df := df
		b.Run(df, func(b *testing.B) {
			var cost systolic.DataflowCost
			for i := 0; i < b.N; i++ {
				ws, os := systolic.Compare(conv, 32, 32)
				if df == "weight-stationary" {
					cost = ws
				} else {
					cost = os
				}
			}
			b.ReportMetric(float64(cost.Cycles), "cycles")
			b.ReportMetric(float64(cost.Moved), "operands-moved")
		})
	}
}

// BenchmarkAblationPipelining (D7): the paper's sequential layer execution
// vs tile-grained pipelining across unit banks, on AlexNet's custom config.
func BenchmarkAblationPipelining(b *testing.B) {
	m := workload.NewAlexNet()
	cfg := hw.NewConfig(hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16},
		[]*workload.Model{m})
	e, err := ppa.Evaluate(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	chain := schedule.FromEval(e)
	for _, mode := range []struct {
		name   string
		chunks int
	}{{"sequential", 1}, {"pipelined-32", 32}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				ms, err := chain.Pipelined(mode.chunks)
				if err != nil {
					b.Fatal(err)
				}
				makespan = ms
			}
			b.ReportMetric(makespan*1e6, "makespan-us")
		})
	}
}

// BenchmarkAblationSystolicTiming (D5): PE-level simulated fold timing vs the
// analytical model, on a real convolution fold.
func BenchmarkAblationSystolicTiming(b *testing.B) {
	l := workload.Layer{
		Kind: workload.Conv2d, NIFM: 64, NOFM: 128, KX: 3, KY: 3, OFMX: 28, OFMY: 28,
	}
	plan := systolic.PlanLayer(l, 16)
	b.Run("analytical", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			cycles = plan.AnalyticalFoldCycles()
		}
		b.ReportMetric(float64(cycles), "cycles/fold")
	})
	b.Run("simulated", func(b *testing.B) {
		a, err := systolic.New(16)
		if err != nil {
			b.Fatal(err)
		}
		w := make([][]float64, 16)
		for r := range w {
			w[r] = make([]float64, 16)
		}
		if err := a.LoadWeights(w); err != nil {
			b.Fatal(err)
		}
		x := make([][]float64, plan.Streams)
		for t := range x {
			x[t] = make([]float64, 16)
		}
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			_, c, err := a.Stream(x)
			if err != nil {
				b.Fatal(err)
			}
			cycles = c + a.LoadCycles()
		}
		b.ReportMetric(float64(cycles), "cycles/fold")
	})
}

// BenchmarkAblationPrecision (D8): INT8 vs INT16 datapath on the ResNet-18
// custom configuration — area, energy and the resulting power density.
func BenchmarkAblationPrecision(b *testing.B) {
	m := workload.NewResNet18()
	for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
		prec := prec
		b.Run(prec.String(), func(b *testing.B) {
			c := hw.NewConfig(hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16},
				[]*workload.Model{m})
			c.Precision = prec
			var e *ppa.Eval
			for i := 0; i < b.N; i++ {
				var err error
				e, err = ppa.Evaluate(m, c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(e.AreaMM2, "mm2")
			b.ReportMetric(e.EnergyPJ()*1e-9, "mJ")
			b.ReportMetric(e.PowerDensity(), "W/mm2")
		})
	}
}
