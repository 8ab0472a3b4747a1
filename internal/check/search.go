package check

// Budgeted-search cross-checks (check family 8): the metaheuristic layer
// (internal/search) against the brute-force selection oracle
// (internal/check/oracle) over each space's full observation matrix.
//
//   - Determinism: for a fixed seed, both strategies must return the same
//     winner and byte-identical traces at 1 and 8 evaluator workers.
//   - Budget exactness: on a fresh evaluator the miss count after a run
//     (scoring plus winner materialization) never exceeds the budget, and
//     evaluations equal unique points x models.
//   - Optimality gap: on exhaustively verifiable spaces the search winner's
//     selection area stays within the coarse selfcheck threshold of the
//     oracle winner's area (the bench gates the tight 1% criterion).
//   - Fallback: a budget covering the whole space must route to the
//     exhaustive sweep and return the oracle's winner and feasible count,
//     with the whole space explored.

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

// checkSearch runs the budgeted-search family.
func checkSearch(o *Options) Section {
	c := newCollector("search")
	ctx := context.Background()
	cons := dse.DefaultConstraints()
	for _, tc := range searchSpaces(o) {
		n, nm := tc.space.Len(), len(tc.models)

		// Oracle reference over the full observation matrix.
		mat, err := observe(tc.models, tc.space, cons, eval.New(eval.Options{Workers: 4}))
		if !c.check(err == nil, "", "", tc.name, "observation matrix: %v", err) {
			continue
		}
		want := mat.Select(cons.LatencySlack)
		if !c.check(want.Winner() >= 0, "", "", tc.name, "oracle found no feasible point") {
			continue
		}
		optArea := mat.Area(want.Winner())

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
			gap := (runs[0].trace.BestAreaMM2 - optArea) / optArea
			c.check(gap <= searchGapThreshold && gap >= -searchGapThreshold, "", "", cfg,
				"optimality gap %.4f exceeds +-%.0f%% (search %.4f mm2, oracle %.4f mm2)",
				gap, 100*searchGapThreshold, runs[0].trace.BestAreaMM2, optArea)
		}

		// Exhaustive fallback: full budget routes to the streaming sweep and
		// returns the oracle's selection over the whole space.
		spec, _ := search.ParseSpec("anneal")
		opt, err := search.New(spec, search.Options{Seed: o.Seed, Evaluator: eval.New(eval.Options{Workers: 4})})
		if !c.check(err == nil, "", "", tc.name, "optimizer build failed: %v", err) {
			continue
		}
		res, tr, err := opt.Run(ctx, tc.models, tc.space, cons, n*nm)
		if c.check(err == nil, "", "", tc.name, "fallback run failed: %v", err) {
			c.check(tr.Fallback && tr.Strategy == "exhaustive", "", "", tc.name,
				"full budget did not fall back to the exhaustive sweep: %+v", tr)
			c.check(res.Config.Point == tc.space.At(want.Winner()), "", "", tc.name,
				"fallback winner %+v != oracle winner %+v", res.Config.Point, tc.space.At(want.Winner()))
			c.check(res.Feasible == want.Feasible, "", "", tc.name,
				"fallback Feasible = %d, oracle %d", res.Feasible, want.Feasible)
			c.check(res.Explored == n, "", "", tc.name,
				"fallback Explored = %d, space has %d points", res.Explored, n)
		}
	}
	return c.s
}
