package check

// Budgeted-search cross-checks: the metaheuristic layer (internal/search)
// against the exhaustive streaming sweep it approximates, plus the
// early-exit certificate of the sweep itself.
//
//   - Determinism: for a fixed seed, both strategies must return the same
//     winner and byte-identical traces at 1 and 8 evaluator workers.
//   - Budget exactness: on a fresh evaluator the miss count after a run
//     (scoring plus winner materialization) never exceeds the budget, and
//     evaluations equal unique points x models.
//   - Optimality gap: on exhaustively verifiable spaces the search winner's
//     selection area stays within the coarse selfcheck threshold of the
//     brute-force optimum (the bench gates the tight 1% criterion).
//   - Early exit: the certified sweep must return the full sweep's exact
//     winner with a worker-count-independent skip count.
//   - Fallback: a budget covering the whole space must route to the
//     exhaustive sweep and reproduce its winner exactly.

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// searchGapThreshold is the coarse selfcheck bound on the optimality gap at
// a quarter budget; the CI bench gates the paper criterion (1% at 5%).
const searchGapThreshold = 0.05

// searchSpaces returns the exhaustively verifiable spaces the family runs
// on, bound to the options' catalogue.
func searchSpaces(o *Options) []struct {
	name   string
	space  hw.DesignSpace
	models []*workload.Model
} {
	grid := hw.PaperSpace()
	grid.Cat = o.Catalogue
	spaces := []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"paper", grid, []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
	}
	if mix, err := hw.DefaultMixSpec(o.Catalogue).Build(); err == nil {
		spaces = append(spaces, struct {
			name   string
			space  hw.DesignSpace
			models []*workload.Model
		}{"mix", mix, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}})
	}
	return spaces
}

// selectionAreaAt recomputes the summed per-model selection area of a point,
// the quantity the search minimizes and the gap check compares.
func selectionAreaAt(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, pt hw.Point) (float64, error) {
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

// checkSearch runs the budgeted-search family.
func checkSearch(o *Options) Section {
	c := newCollector("search")
	ctx := context.Background()
	cons := dse.DefaultConstraints()
	for _, tc := range searchSpaces(o) {
		n, nm := tc.space.Len(), len(tc.models)

		// Exhaustive reference, full sweep.
		refEv := eval.New(eval.Options{Workers: 4})
		full, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, refEv, nil)
		if !c.check(err == nil, "", "", tc.name, "exhaustive sweep failed: %v", err) {
			continue
		}
		exhArea, err := selectionAreaAt(refEv, tc.models, tc.space, full.Config.Point)
		if !c.check(err == nil, "", "", tc.name, "selection area of exhaustive winner: %v", err) {
			continue
		}

		// Early-exit certificate: exact winner, worker-independent skips.
		var skips []int
		for _, workers := range []int{1, 8} {
			var stats dse.ExploreStats
			ev := eval.New(eval.Options{Workers: workers})
			res, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, ev, &dse.ExploreOptions{EarlyExit: true, Stats: &stats})
			if !c.check(err == nil, "", "", tc.name, "early-exit sweep failed: %v", err) {
				continue
			}
			c.check(res.Config.Point == full.Config.Point, "", "", tc.name,
				"early-exit winner %+v != full-sweep winner %+v (workers=%d)",
				res.Config.Point, full.Config.Point, workers)
			skips = append(skips, stats.SkippedPoints)
		}
		c.check(len(skips) == 2 && skips[0] == skips[1], "", "", tc.name,
			"early-exit skip counts differ across workers: %v", skips)

		budget := n * nm / 4
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := search.ParseSpec(kind)
			if !c.check(err == nil, "", "", kind, "spec parse failed: %v", err) {
				continue
			}
			cfg := fmt.Sprintf("%s/%s", tc.name, kind)

			// Determinism across worker counts, on fresh evaluators so cache
			// state cannot leak between runs.
			type outcome struct {
				point  hw.Point
				trace  search.Trace
				misses uint64
			}
			var runs []outcome
			ok := true
			for _, workers := range []int{1, 8} {
				ev := eval.New(eval.Options{Workers: workers})
				opt, err := search.New(spec, search.Options{Seed: o.Seed, Evaluator: ev})
				if !c.check(err == nil, "", "", cfg, "optimizer build failed: %v", err) {
					ok = false
					break
				}
				res, tr, err := opt.Run(ctx, tc.models, tc.space, cons, budget)
				if !c.check(err == nil, "", "", cfg, "run failed (workers=%d): %v", workers, err) {
					ok = false
					break
				}
				runs = append(runs, outcome{res.Config.Point, tr, ev.Stats().Misses})
			}
			if !ok {
				continue
			}
			c.check(runs[0].point == runs[1].point, "", "", cfg,
				"winner differs across workers: %+v vs %+v", runs[0].point, runs[1].point)
			c.check(reflect.DeepEqual(runs[0].trace, runs[1].trace), "", "", cfg,
				"trace differs across workers:\nw1: %+v\nw8: %+v", runs[0].trace, runs[1].trace)

			// Budget exactness on the fresh-evaluator runs.
			for i, r := range runs {
				c.check(r.misses <= uint64(budget), "", "", cfg,
					"evaluator misses %d exceed budget %d (run %d)", r.misses, budget, i)
				c.check(r.trace.Evaluations == r.trace.UniquePoints*nm, "", "", cfg,
					"Evaluations=%d != UniquePoints(%d) x models(%d)",
					r.trace.Evaluations, r.trace.UniquePoints, nm)
			}

			// Optimality gap at a quarter budget.
			gap := (runs[0].trace.BestAreaMM2 - exhArea) / exhArea
			c.check(gap <= searchGapThreshold && gap >= -searchGapThreshold, "", "", cfg,
				"optimality gap %.4f exceeds +-%.0f%% (search %.4f mm2, exhaustive %.4f mm2)",
				gap, 100*searchGapThreshold, runs[0].trace.BestAreaMM2, exhArea)
		}

		// Exhaustive fallback: full budget routes to the streaming sweep.
		spec, _ := search.ParseSpec("anneal")
		opt, err := search.New(spec, search.Options{Seed: o.Seed, Evaluator: eval.New(eval.Options{Workers: 4})})
		if !c.check(err == nil, "", "", tc.name, "optimizer build failed: %v", err) {
			continue
		}
		res, tr, err := opt.Run(ctx, tc.models, tc.space, cons, n*nm)
		if c.check(err == nil, "", "", tc.name, "fallback run failed: %v", err) {
			c.check(tr.Fallback && tr.Strategy == "exhaustive", "", "", tc.name,
				"full budget did not fall back to the exhaustive sweep: %+v", tr)
			c.check(res.Config.Point == full.Config.Point, "", "", tc.name,
				"fallback winner %+v != exhaustive winner %+v", res.Config.Point, full.Config.Point)
		}
	}
	return c.s
}
