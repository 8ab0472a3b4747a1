package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// searchBudgetShare is the budgeted searches' evaluation budget as a share
// of the exhaustive point x model count.
const searchBudgetShare = 0.05

// exploreInput is one draw of the explore workload.
type exploreInput struct {
	fineNames, mixNames []string
	fine, mix           []*workload.Model
	searchSeed          int64
}

// exploreSpaces holds the two spaces every pass sweeps.
type exploreSpaces struct {
	fine, mixfine hw.DesignSpace
}

// exploreCall is one timed exploration of a pass.
type exploreCall struct {
	name      string // "sweep" or the search strategy
	spaceName string
	seconds   float64
	point     string
	areaMM2   float64 // summed per-model selection area of the winner
	evals     int     // summary evaluations a search spent
	exhEvals  int     // points x models of the space
	stats     dse.ExploreStats
	entries   int
}

// runExplore is the explore workload: passes of cold explorations the way
// clairedse issues them, back to back with one client. Each pass sweeps
// fine x 13 networks and mixfine x 3 networks exhaustively and
// analytically, then runs anneal and genetic at a 5% budget on both spaces.
// Every call gets a fresh engine.
func runExplore(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var inputs [drawsPerRun]exploreInput
	var spaces exploreSpaces
	setupS, err := timeSetup(setupReps, func() error {
		layers := layerCounts()
		for d := range inputs {
			train, _ := drawSplit(cfg.seed, d, layers)
			trio := drawTrio(cfg.seed, d, layers)
			inputs[d] = exploreInput{fineNames: train, mixNames: trio,
				fine: models(train), mix: models(trio), searchSeed: cfg.seed*10 + int64(d) + 7}
		}
		mixfine, err := hw.FineMixSpec(nil).Build()
		if err != nil {
			return err
		}
		spaces = exploreSpaces{fine: hw.FineSpace(), mixfine: mixfine}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var parts []string
	for _, in := range inputs {
		parts = append(parts, joinNames(in.fineNames), joinNames(in.mixNames), fmt.Sprint(in.searchSeed))
	}
	fmt.Fprintf(os.Stderr, "perfbench: explore seed %d inputs %s\n", cfg.seed, digest(parts...))

	rs := newRuntimeSampler()
	var digests [drawsPerRun]map[string]int
	var passes [drawsPerRun][][]exploreCall
	log, failed := closedLoop(cfg, rs, func(i, draw int, traced bool) error {
		var optr *tracer
		if traced {
			optr = tr
		}
		calls, err := explorePass(inputs[draw], spaces, optr, i)
		if err != nil {
			return err
		}
		if digests[draw] == nil {
			digests[draw] = make(map[string]int)
		}
		digests[draw][passDigest(calls)]++
		passes[draw] = append(passes[draw], calls)
		return nil
	})
	rs.finish(out, log.ops)
	out.attempted, out.failed = log.ops+failed, failed
	checkDigests(out, "explore", cfg.seed, digests)

	// A budgeted search can only match the exhaustive winner's area, never
	// beat it: a negative gap means one of the two is wrong.
	gap := 0.0
	for _, ps := range passes {
		for _, calls := range ps {
			for _, g := range searchGaps(calls) {
				if g < -1e-9 {
					out.problem("search beat the exhaustive sweep: gap %.6g", g)
				}
				gap = max(gap, g)
			}
		}
	}

	out.values["setup_s"] = setupS
	out.values["peak_rss_mib"] = selfPeakRSSMiB()
	out.values["latency_p50_ms"] = log.latencyP50() * 1e3
	if tr == nil {
		return out, nil
	}

	out.values["trace.overhead"] = log.traceOverhead()
	out.values["search_gap"] = gap
	sum := func(pick func(c exploreCall) bool) [drawsPerRun][]float64 {
		var v [drawsPerRun][]float64
		for d, ps := range passes {
			for _, calls := range ps {
				s := 0.0
				for _, c := range calls {
					if pick(c) {
						s += c.seconds
					}
				}
				v[d] = append(v[d], s)
			}
		}
		return v
	}
	isSweep := func(space string) func(exploreCall) bool {
		return func(c exploreCall) bool { return c.name == "sweep" && c.spaceName == space }
	}
	out.values["fine_sweep_s"] = perDrawMedian(sum(isSweep("fine")))
	out.values["mixfine_sweep_s"] = perDrawMedian(sum(isSweep("mixfine")))
	out.values["search_s"] = perDrawMedian(sum(func(c exploreCall) bool { return c.name != "sweep" }))
	out.values["search.anneal_ms"] = perDrawMedian(sum(func(c exploreCall) bool { return c.name == "anneal" })) * 1e3
	out.values["search.genetic_ms"] = perDrawMedian(sum(func(c exploreCall) bool { return c.name == "genetic" })) * 1e3

	// Kernel unit costs, measured on the last draw's own networks and
	// points, single-threaded.
	in := inputs[drawsPerRun-1]
	fineNS := summaryNS(in.fine, spaces.fine)
	mixNS := summaryNS(in.mix, spaces.mixfine)
	out.values["ppa.summary_ns"] = fineNS
	out.values["ppa.mix_summary_ns"] = mixNS
	out.values["ppa.full_eval_us"] = fullEvalUS(in.fine, spaces.fine)
	out.values["eval.plan_build_ms"] = planBuildMS(in.fine)

	workers := float64(runtime.GOMAXPROCS(0))
	var sweepNS, retained, ratios, coord, entries []float64
	for _, ps := range passes {
		for _, calls := range ps {
			for _, c := range calls {
				kernelNS := fineNS
				if c.spaceName == "mixfine" {
					kernelNS = mixNS
				}
				switch c.name {
				case "sweep":
					if c.spaceName == "fine" {
						sweepNS = append(sweepNS, c.seconds*1e9*workers/float64(c.exhEvals))
						entries = append(entries, float64(c.entries))
					}
					retained = append(retained, float64(c.stats.MaxRetained))
				default:
					ratios = append(ratios, float64(c.evals)/float64(c.exhEvals))
					kernel := float64(c.evals) * kernelNS / workers / 1e9
					coord = append(coord, max(0, 1-kernel/c.seconds))
				}
			}
		}
	}
	out.values["dse.sweep_ns_per_eval"] = median(sweepNS)
	out.values["dse.reduce_ns_per_eval"] = median(sweepNS) - fineNS
	out.values["dse.max_retained"] = median(retained)
	out.values["search.evals_ratio"] = mean(ratios)
	out.values["search.coord_share"] = median(coord)
	out.values["eval.cache_entries"] = median(entries)
	return out, nil
}

// explorePass runs one pass over a draw and returns its calls in order.
func explorePass(in exploreInput, sp exploreSpaces, tr *tracer, op int) ([]exploreCall, error) {
	root, endRoot := tr.begin("explore.pass", 0, op)
	defer endRoot()
	cons := dse.DefaultConstraints()
	ctx := context.Background()
	type job struct {
		space     hw.DesignSpace
		spaceName string
		models    []*workload.Model
	}
	jobs := []job{{sp.fine, "fine", in.fine}, {sp.mixfine, "mixfine", in.mix}}
	var calls []exploreCall
	for _, j := range jobs {
		ev := eval.New(eval.Options{})
		c := exploreCall{name: "sweep", spaceName: j.spaceName, exhEvals: j.space.Len() * len(j.models)}
		_, end := tr.begin("dse.ExploreSpaceCtx/"+j.spaceName, root, op)
		start := time.Now()
		res, err := dse.ExploreSpaceCtx(ctx, j.models, j.space, cons, ev, &dse.ExploreOptions{Stats: &c.stats})
		c.seconds = time.Since(start).Seconds()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", j.spaceName, err)
		}
		c.entries = ev.Stats().Entries
		c.point = res.Config.Point.String()
		if c.areaMM2, err = selectionArea(ev, j.models, j.space, res.Config.Point); err != nil {
			return nil, err
		}
		calls = append(calls, c)
	}
	for _, j := range jobs {
		budget := int(searchBudgetShare * float64(j.space.Len()*len(j.models)))
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := search.ParseSpec(kind)
			if err != nil {
				return nil, err
			}
			opt, err := search.New(spec, search.Options{Seed: in.searchSeed, Evaluator: eval.New(eval.Options{})})
			if err != nil {
				return nil, err
			}
			_, end := tr.begin("search.Run/"+kind+"/"+j.spaceName, root, op)
			start := time.Now()
			res, trace, err := opt.Run(ctx, j.models, j.space, cons, budget)
			secs := time.Since(start).Seconds()
			end()
			if err != nil {
				return nil, fmt.Errorf("%s search on %s: %w", kind, j.spaceName, err)
			}
			calls = append(calls, exploreCall{name: kind, spaceName: j.spaceName, seconds: secs,
				point: res.Config.Point.String(), areaMM2: trace.BestAreaMM2,
				evals: trace.Evaluations, exhEvals: j.space.Len() * len(j.models)})
		}
	}
	return calls, nil
}

// passDigest fingerprints a pass's outputs: each call's winning point and
// selection area.
func passDigest(calls []exploreCall) string {
	var parts []string
	for _, c := range calls {
		parts = append(parts, c.name, c.spaceName, c.point, fmt.Sprintf("%.9g", c.areaMM2))
	}
	return digest(parts...)
}

// searchGaps returns the optimality gap of each of a pass's searches
// against the exhaustive winner of the same space.
func searchGaps(calls []exploreCall) []float64 {
	exh := make(map[string]float64)
	for _, c := range calls {
		if c.name == "sweep" {
			exh[c.spaceName] = c.areaMM2
		}
	}
	var gaps []float64
	for _, c := range calls {
		if c.name != "sweep" {
			gaps = append(gaps, (c.areaMM2-exh[c.spaceName])/exh[c.spaceName])
		}
	}
	return gaps
}

// selectionArea recomputes a point's summed per-model selection area, the
// quantity both the sweep and the searches minimise.
func selectionArea(ev *eval.Evaluator, ms []*workload.Model, space hw.DesignSpace, pt hw.Point) (float64, error) {
	area := 0.0
	for _, m := range ms {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		c.Point = pt
		s, err := ev.EvaluateSummary(m, c, 1)
		if err != nil {
			return 0, fmt.Errorf("selection area: %w", err)
		}
		area += s.AreaMM2
	}
	return area, nil
}

// summaryNS times eval.Evaluator.EvaluateSummaryUncached, the analytical
// chunk kernel, over a strided sample of the space's points for every
// network, and returns nanoseconds per point x model.
func summaryNS(ms []*workload.Model, space hw.DesignSpace) float64 {
	ev := eval.New(eval.Options{Workers: 1})
	cat := hw.CatalogueOf(space)
	const samples = 1024
	stride := max(1, space.Len()/samples)
	n := 0
	var elapsed time.Duration
	for _, m := range ms {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = cat
		ev.Plan(m) // plan building is not the kernel
		start := time.Now()
		for k := 0; k < space.Len(); k += stride {
			c.Point = space.At(k)
			if _, err := ev.EvaluateSummaryUncached(m, c, 1); err == nil {
				n++
			}
		}
		elapsed += time.Since(start)
	}
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// fullEvalUS times a full per-layer evaluation (eval.Evaluator.Evaluate) of
// distinct points on a fresh engine, in microseconds per point x model.
func fullEvalUS(ms []*workload.Model, space hw.DesignSpace) float64 {
	ev := eval.New(eval.Options{Workers: 1})
	cat := hw.CatalogueOf(space)
	const samples = 64
	stride := max(1, space.Len()/samples)
	n := 0
	var elapsed time.Duration
	for _, m := range ms {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = cat
		ev.Plan(m)
		start := time.Now()
		for k := 0; k < space.Len(); k += stride {
			c.Point = space.At(k)
			if _, err := ev.Evaluate(m, c); err == nil {
				n++
			}
		}
		elapsed += time.Since(start)
	}
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n) / 1e3
}
