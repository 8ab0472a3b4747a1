package search

import (
	"context"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// genetic is a steady-state genetic algorithm over coordinate vectors: each
// generation breeds a batch of offspring (tournament parent selection,
// uniform per-axis crossover, ±1-step mutation), scores the batch in
// parallel through the evaluator pool, then — sequentially, on the
// coordinator — replaces the worst population member with any offspring that
// beats it. Offspring landing on non-admitted coordinate tuples (mixes the
// budgets filtered out) are repaired by extra mutation, falling back to a
// random index, so the budget is never spent proposing nothing.
type genetic struct {
	eng engine
}

// Name returns "genetic".
func (g *genetic) Name() string { return "genetic" }

// Run executes the genetic search.
func (g *genetic) Run(ctx context.Context, models []*workload.Model, space hw.DesignSpace,
	cons dse.Constraints, budget int) (dse.Result, Trace, error) {
	return g.eng.run(ctx, models, space, cons, budget, g.evolve)
}

func (g *genetic) evolve(st *state) error {
	p := g.eng.spec.Genetic
	// Found the population on everything already scored (the corner and
	// random seeds), topping up with random points until Pop members or the
	// budget runs dry. Population entries are slots; membership is tracked
	// by point index so one point never occupies two entries.
	pop := make([]int, 0, p.Pop)
	inPop := make(map[int]bool, p.Pop)
	for s := range st.pts {
		if len(pop) >= p.Pop {
			break
		}
		if st.errs[s] == nil && !inPop[st.pts[s]] {
			pop = append(pop, s)
			inPop[st.pts[s]] = true
		}
	}
	batch := make([]int, 0, p.Batch)
	for len(pop) < p.Pop && !st.exhausted() {
		batch = batch[:0]
		for j := 0; j < p.Batch && len(pop)+len(batch) < p.Pop; j++ {
			batch = append(batch, st.rng.Intn(st.n))
		}
		slots := st.visit(batch)
		if st.err != nil {
			return st.err
		}
		for _, s := range slots {
			if s >= 0 && !inPop[st.pts[s]] && len(pop) < p.Pop {
				pop = append(pop, s)
				inPop[st.pts[s]] = true
			}
		}
	}
	if len(pop) == 0 {
		return nil
	}
	stall := 0
	fit := make([]float64, len(pop))
	for !st.exhausted() {
		batch = batch[:0]
		for j := 0; j < p.Batch; j++ {
			batch = append(batch, g.offspring(st, pop))
		}
		// A converged population can breed only already-scored offspring;
		// those are cache hits, the budget stops moving, and the loop would
		// spin forever. After a few stalled generations inject a random
		// unvisited immigrant, which is guaranteed to consume budget.
		if stall >= 3 {
			stall = 0
			batch[0] = st.randomUnvisited()
		}
		before := len(st.pts)
		slots := st.visit(batch)
		if st.err != nil {
			return st.err
		}
		if len(st.pts) == before {
			stall++
		} else {
			stall = 0
		}
		// Fitness depends on the selector's reference, which only visit
		// moves, so the members' values hold for the whole replacement pass.
		for i, ps := range pop {
			fit[i] = st.fitness(ps)
		}
		for _, s := range slots {
			if s < 0 || inPop[st.pts[s]] {
				continue
			}
			worst, wf := -1, 0.0
			for i, f := range fit {
				if worst < 0 || f > wf {
					worst, wf = i, f
				}
			}
			if f := st.fitness(s); f < wf {
				delete(inPop, st.pts[pop[worst]])
				pop[worst], fit[worst] = s, f
				inPop[st.pts[s]] = true
			}
		}
	}
	return nil
}

// tournament returns the population slot with the best fitness among Tourn
// uniformly drawn members.
func (g *genetic) tournament(st *state, pop []int) int {
	k := g.eng.spec.Genetic.Tourn
	best, bf := -1, 0.0
	for i := 0; i < k; i++ {
		s := pop[st.rng.Intn(len(pop))]
		if f := st.fitness(s); best < 0 || f < bf {
			best, bf = s, f
		}
	}
	return best
}

// offspring proposes one child point index from the population.
func (g *genetic) offspring(st *state, pop []int) int {
	v := st.view
	if v == nil {
		return st.rng.Intn(st.n)
	}
	p := g.eng.spec.Genetic
	p1 := g.tournament(st, pop)
	p2 := g.tournament(st, pop)
	c1 := make([]int, v.dims)
	c2 := make([]int, v.dims)
	v.coordsOf(st.pts[p1], c1)
	v.coordsOf(st.pts[p2], c2)
	child := c1
	if st.rng.Float64() < p.Cross {
		for d := 0; d < v.dims; d++ {
			if st.rng.Intn(2) == 1 {
				child[d] = c2[d]
			}
		}
	}
	for d := 0; d < v.dims; d++ {
		if st.rng.Float64() < p.Mut {
			if st.rng.Intn(2) == 0 {
				if child[d] > 0 {
					child[d]--
				}
			} else if child[d] < v.card[d]-1 {
				child[d]++
			}
		}
	}
	if idx := v.indexOf(child); idx >= 0 {
		return idx
	}
	// Repair non-admitted tuples (budget-filtered mixes) with extra random
	// single-axis steps before giving up on the lineage.
	for try := 0; try < 2*v.dims; try++ {
		d := st.rng.Intn(v.dims)
		if st.rng.Intn(2) == 0 {
			if child[d] > 0 {
				child[d]--
			}
		} else if child[d] < v.card[d]-1 {
			child[d]++
		}
		if idx := v.indexOf(child); idx >= 0 {
			return idx
		}
	}
	return st.rng.Intn(st.n)
}
