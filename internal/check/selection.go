package check

// Selection soundness (check family 6): quantized random candidate sets, with
// per-model static infeasibility, fed in random order through dse.Selector —
// the streaming selection discipline budgeted search replays — must
// reproduce the brute-force oracle's winner, slack-feasible frontier and
// feasible count. dse's own tests drive the sweep's sharded reduction against
// the same oracle.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/check/oracle"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// observe builds the brute-force oracle's observation matrix for models over
// space — every point's per-model summary through ev's cache, judged by the
// static constraints — the reference families 8 and 9 select against.
func observe(models []*workload.Model, space hw.DesignSpace, cons dse.Constraints, ev *eval.Evaluator) (oracle.Matrix, error) {
	cat := hw.CatalogueOf(space)
	return oracle.Build(space.Len(), len(models), func(k, i int) (oracle.Obs, error) {
		c := hw.NewConfig(space.At(k), []*workload.Model{models[i]})
		c.Cat = cat
		s, err := ev.EvaluateSummary(models[i], c, 1)
		if err != nil {
			return oracle.Obs{}, err
		}
		return oracle.Obs{AreaMM2: s.AreaMM2, LatencyS: s.LatencyS,
			Static: cons.MeetsStatic(s.AreaMM2, s.PowerDensity())}, nil
	})
}

// selector is the part of dse.Selector family 6 drives; the family's tests
// substitute broken selectors to prove it catches them.
type selector interface {
	Observe(idx int, area float64, lats []float64, statics []bool)
	Best() (idx int, area float64, ok bool)
	FeasibleFrontier() []int
	Feasible() int
}

// checkSelection runs family 6 against dse.Selector.
func checkSelection(o *Options) Section {
	col := newCollector("selection")
	selectionTrials(col, o.Seed, o.Trials, func(nModels int, cons dse.Constraints) selector {
		return dse.NewSelector(nModels, cons)
	})
	return col.s
}

// selectionTrials runs randomized oracle trials through selectors built by
// newSel and records three checks per trial: the winner, the feasible
// frontier, and the selector's own feasible count over every observed point.
func selectionTrials(col *collector, seed int64, trials int, newSel func(nModels int, cons dse.Constraints) selector) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		m, slack := oracle.RandomTrial(rng)
		want := m.Select(slack)
		cons := dse.DefaultConstraints()
		cons.LatencySlack = slack
		sel := newSel(m.Models, cons)
		lats := make([]float64, m.Models)
		statics := make([]bool, m.Models)
		for _, k := range rng.Perm(m.Points()) {
			for i, ob := range m.Row(k) {
				lats[i], statics[i] = ob.LatencyS, ob.Static
			}
			sel.Observe(k, m.Area(k), lats, statics)
		}

		cfg := fmt.Sprintf("trial %d: %d points x %d models, slack %.2f", trial, m.Points(), m.Models, slack)
		winner, _, ok := sel.Best()
		if !ok {
			winner = -1
		}
		col.check(winner == want.Winner(), "", "", cfg,
			"selector winner %d, oracle %d", winner, want.Winner())
		front := sel.FeasibleFrontier()
		col.check(slices.Equal(front, want.Frontier), "", "", cfg,
			"selector frontier %v, oracle %v", front, want.Frontier)
		feasible := sel.Feasible()
		col.check(feasible == want.Feasible, "", "", cfg,
			"selector counts %d feasible points, oracle %d", feasible, want.Feasible)
	}
}
