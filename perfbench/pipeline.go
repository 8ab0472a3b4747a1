package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// pipelineInput is one draw of the pipeline workload: a training/test split
// of the 19 networks, built once at set-up.
type pipelineInput struct {
	trainNames, testNames []string
	train, test           []*workload.Model
}

// runPipeline is the pipeline workload: full CLAIRE runs back to back, one
// client, each on a fresh engine (Algorithm 1 train, then test), on the fine
// space with staged fidelity.
func runPipeline(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var inputs [drawsPerRun]pipelineInput
	setupS, err := timeSetup(setupReps, func() error {
		layers := layerCounts()
		for d := range inputs {
			train, test := drawSplit(cfg.seed, d, layers)
			inputs[d] = pipelineInput{trainNames: train, testNames: test, train: models(train), test: models(test)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var parts []string
	for _, in := range inputs {
		parts = append(parts, joinNames(in.trainNames), joinNames(in.testNames))
	}
	fmt.Fprintf(os.Stderr, "perfbench: pipeline seed %d inputs %s\n", cfg.seed, digest(parts...))

	rs := newRuntimeSampler()
	var digests [drawsPerRun]map[string]int
	var last *pipelineRun
	log, failed := closedLoop(cfg, rs, func(i, draw int, traced bool) error {
		var optr *tracer
		if traced {
			optr = tr
		}
		run, err := pipelineOp(inputs[draw], optr, i)
		if err != nil {
			return err
		}
		if digests[draw] == nil {
			digests[draw] = make(map[string]int)
		}
		digests[draw][run.digest()]++
		last = run
		return nil
	})
	rs.finish(out, log.ops)
	out.attempted, out.failed = log.ops+failed, failed
	checkDigests(out, "pipeline", cfg.seed, digests)

	out.values["setup_s"] = setupS
	out.values["peak_rss_mib"] = selfPeakRSSMiB()
	out.values["latency_p50_ms"] = log.latencyP50() * 1e3
	if tr == nil || last == nil {
		return out, nil
	}

	out.values["pipeline_s"] = log.latencyP50()
	out.values["trace.overhead"] = log.traceOverhead()
	out.values["core.train_s"] = median(tr.seconds("core.Train"))
	out.values["core.test_s"] = median(tr.seconds("core.Test"))
	out.values["louvain.cluster_ms"] = median(tr.seconds("louvain.Cluster")) * 1e3
	if runs := len(tr.named("pipeline.run")); runs > 0 {
		out.values["louvain.calls"] = float64(len(tr.named("louvain.Cluster"))) / float64(runs)
	}
	out.values["core.designs"] = float64(len(last.designs()))
	st := last.opts.Evaluator.Stats()
	out.values["eval.cache_hit_ratio"] = st.HitRate()
	out.values["eval.cache_entries"] = float64(st.Entries)
	out.values["eval.plan_build_ms"] = planBuildMS(inputs[0].train)
	if err := last.replayDesigns(out); err != nil {
		return nil, err
	}
	if err := replayStage1(out, last); err != nil {
		return nil, err
	}
	return out, nil
}

// pipelineRun is one completed train + test run.
type pipelineRun struct {
	opts  core.Options
	train *core.TrainResult
	test  *core.TestResult
}

// pipelineOp runs one full train + test on a fresh engine. Under a tracer it
// records the run, both phases, and every clustering call the library makes
// through core.Options.Cluster.
func pipelineOp(in pipelineInput, tr *tracer, op int) (*pipelineRun, error) {
	o := core.DefaultOptions()
	o.Space = hw.FineSpace()
	o.Fidelity = dse.FidelityStaged
	o.Evaluator = o.Engine()
	var phase atomic.Int64
	if tr != nil {
		o.Cluster = func(n int, edges []louvain.Edge) ([]int, error) {
			_, end := tr.begin("louvain.Cluster", phase.Load(), op)
			defer end()
			return core.LouvainCluster(n, edges)
		}
	}
	root, endRoot := tr.begin("pipeline.run", 0, op)
	defer endRoot()

	id, end := tr.begin("core.Train", root, op)
	phase.Store(id)
	trainRes, err := core.Train(in.train, o)
	end()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	id, end = tr.begin("core.Test", root, op)
	phase.Store(id)
	testRes, err := core.Test(trainRes, in.test, o)
	end()
	if err != nil {
		return nil, fmt.Errorf("test: %w", err)
	}
	return &pipelineRun{opts: o, train: trainRes, test: testRes}, nil
}

// designs lists every design the run built, in a fixed order: the training
// customs in input order, the generic configuration, the subset libraries,
// then the test customs.
func (r *pipelineRun) designs() []*core.DesignPoint {
	var out []*core.DesignPoint
	for _, m := range r.train.Models {
		out = append(out, r.train.Customs[m.Name])
	}
	out = append(out, r.train.Generic)
	for _, s := range r.train.Subsets {
		out = append(out, s.Library)
	}
	for _, a := range r.test.Assignments {
		out = append(out, a.Custom)
	}
	return out
}

// digest fingerprints the run's outputs: every design's winning point and
// area with its staged refined latencies, the subset membership, and each
// test network's assignment.
func (r *pipelineRun) digest() string {
	var parts []string
	for _, d := range r.designs() {
		parts = append(parts, d.Name, d.Config.Point.String(), fmt.Sprintf("%.9g", d.Config.AreaMM2()))
		if ref := d.DSE.Refined; ref != nil {
			parts = append(parts, fmt.Sprintf("%.9g", ref.WinnerLatencyS))
		}
	}
	for _, s := range r.train.Subsets {
		parts = append(parts, joinNames(s.Members))
	}
	for _, a := range r.test.Assignments {
		parts = append(parts, a.Algorithm, strconv.Itoa(a.SubsetIndex))
	}
	return digest(parts...)
}

// replayDesigns times core.Options.BuildDesign on each of the run's
// exploration results again, from outside the pipeline.
func (r *pipelineRun) replayDesigns(out *outcome) error {
	var ms []float64
	for _, d := range r.designs() {
		start := time.Now()
		if _, err := r.opts.BuildDesign(d.Name, d.DSE); err != nil {
			return fmt.Errorf("replaying BuildDesign %s: %w", d.Name, err)
		}
		ms = append(ms, time.Since(start).Seconds()*1e3)
	}
	out.values["core.build_design_ms"] = median(ms)
	return nil
}

// planBuildMS is the median time to build one network's evaluation plan on
// a fresh engine.
func planBuildMS(ms []*workload.Model) float64 {
	ev := eval.New(eval.Options{})
	var t []float64
	for _, m := range ms {
		start := time.Now()
		ev.Plan(m)
		t = append(t, time.Since(start).Seconds()*1e3)
	}
	return median(t)
}

// replayStage1 measures stage 1 from outside on the run's generic
// exploration (all training networks on the fine space): it rebuilds the
// analytical frontier with a dse.Selector over uncached summaries, times
// FidelityOptions.RefineSelect over it, then times fidelity.Params.Build and
// Params.Eval per candidate.
func replayStage1(out *outcome, r *pipelineRun) error {
	ms := r.train.Models
	space := r.opts.Space
	cons := r.opts.Constraints
	ev := eval.New(eval.Options{})
	cat := hw.CatalogueOf(space)
	tmpl := make([]hw.Config, len(ms))
	for i, m := range ms {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
		tmpl[i].Cat = cat
	}
	sel := dse.NewSelector(len(ms), cons)
	lats := make([]float64, len(ms))
	statics := make([]bool, len(ms))
	for k := 0; k < space.Len(); k++ {
		pt := space.At(k)
		area := 0.0
		for i, m := range ms {
			c := tmpl[i]
			c.Point = pt
			s, err := ev.EvaluateSummaryUncached(m, c, 1)
			if err != nil {
				return fmt.Errorf("stage-1 replay: %w", err)
			}
			lats[i] = s.LatencyS
			statics[i] = cons.MeetsStatic(s.AreaMM2, s.PowerDensity())
			area += s.AreaMM2
		}
		sel.Observe(k, area, lats, statics)
	}
	front := sel.FeasibleFrontier()
	fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: r.opts.FidelityParams()}
	start := time.Now()
	idx, stats, err := fo.RefineSelect(context.Background(), front, ms, space, cons, ev)
	stage1 := time.Since(start)
	if err != nil {
		return fmt.Errorf("stage-1 replay: %w", err)
	}
	if want := r.train.Generic.Config.Point; space.At(idx) != want {
		out.problem("stage-1 replay selected %v, the pipeline's generic design is %v", space.At(idx), want)
	}
	out.values["fidelity.stage1_ms"] = stage1.Seconds() * 1e3
	out.values["fidelity.refined_points"] = float64(stats.Refined)
	if stats.Refined > 0 {
		out.values["fidelity.ms_per_refined_point"] = stage1.Seconds() * 1e3 / float64(stats.Refined)
	}

	var buildMS, rescoreUS []float64
	for _, k := range front {
		cfg := hw.NewConfig(space.At(k), ms)
		cfg.Cat = cat
		full := make([]*ppa.Eval, len(ms))
		for i, m := range ms {
			e, err := ev.Evaluate(m, cfg)
			if err != nil {
				return fmt.Errorf("stage-1 replay: %w", err)
			}
			full[i] = e
		}
		start := time.Now()
		pkg, err := fo.Params.Build(fmt.Sprintf("stage1:%d", k), full)
		buildMS = append(buildMS, time.Since(start).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("stage-1 replay: %w", err)
		}
		for _, e := range full {
			start := time.Now()
			fo.Params.Eval(pkg, e)
			rescoreUS = append(rescoreUS, time.Since(start).Seconds()*1e6)
		}
	}
	out.values["fidelity.build_ms"] = median(buildMS)
	out.values["fidelity.rescore_us"] = median(rescoreUS)
	return nil
}
