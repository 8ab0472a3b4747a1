package search

// evolve is a steady-state genetic algorithm over coordinate vectors: each
// generation breeds a batch of offspring (tournament parent selection,
// uniform per-axis crossover, ±1-step mutation), scores the batch in
// parallel through the evaluator pool, then — sequentially, on the
// coordinator — replaces the worst population member with any offspring that
// beats it. Offspring landing on non-admitted coordinate tuples (mixes the
// budgets filtered out) are repaired by extra mutation, falling back to a
// random index, so the budget is never spent proposing nothing. It stops
// when the state is exhausted or st.err is set.
func evolve(st *state, p GeneticParams) {
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
			return
		}
		for _, s := range slots {
			if s >= 0 && !inPop[st.pts[s]] && len(pop) < p.Pop {
				pop = append(pop, s)
				inPop[st.pts[s]] = true
			}
		}
	}
	if len(pop) == 0 {
		return
	}
	br := newBreeder(st, p, pop)
	stall := 0
	for !st.exhausted() {
		batch = batch[:0]
		for j := 0; j < p.Batch; j++ {
			batch = append(batch, br.offspring())
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
			return
		}
		if len(st.pts) == before {
			stall++
		} else {
			stall = 0
		}
		br.refresh()
		for _, s := range slots {
			if s < 0 || inPop[st.pts[s]] {
				continue
			}
			worst, wf := -1, 0.0
			for i, f := range br.fit {
				if worst < 0 || f > wf {
					worst, wf = i, f
				}
			}
			if f := st.fitness(s); f < wf {
				delete(inPop, st.pts[br.pop[worst]])
				br.pop[worst], br.fit[worst] = s, f
				inPop[st.pts[s]] = true
			}
		}
	}
}

// breeder is a genetic run's breeding state: the population's slots, each
// member's fitness, the selector reference that fitness was computed
// against, and the coordinate scratch offspring are bred in. Fitness
// depends only on the slot and the reference, and only visit moves the
// reference, so the members' values are recomputed only after a visit that
// moved it.
type breeder struct {
	st     *state
	p      GeneticParams
	pop    []int     // population slots
	fit    []float64 // fit[i] is st.fitness(pop[i]) under ref
	ref    []float64
	c1, c2 []int
}

// newBreeder computes the population's fitness under the current reference.
func newBreeder(st *state, p GeneticParams, pop []int) *breeder {
	br := &breeder{st: st, p: p, pop: pop, fit: make([]float64, len(pop)), ref: make([]float64, st.nm),
		c1: make([]int, len(st.card)), c2: make([]int, len(st.card))}
	copy(br.ref, st.sel.BestLatencies())
	for i, s := range pop {
		br.fit[i] = st.fitness(s)
	}
	return br
}

// refresh recomputes the members' fitness when the selector's reference has
// moved since it was last computed.
func (br *breeder) refresh() {
	ref := br.st.sel.BestLatencies()
	same := true
	for i, r := range ref {
		if r != br.ref[i] {
			same = false
			break
		}
	}
	if same {
		return
	}
	copy(br.ref, ref)
	for i, s := range br.pop {
		br.fit[i] = br.st.fitness(s)
	}
}

// tournament returns the population slot with the best fitness among Tourn
// uniformly drawn members.
func (br *breeder) tournament() int {
	best, bf := -1, 0.0
	for i := 0; i < br.p.Tourn; i++ {
		j := br.st.rng.Intn(len(br.pop))
		if f := br.fit[j]; best < 0 || f < bf {
			best, bf = br.pop[j], f
		}
	}
	return best
}

// offspring proposes one child point index from the population.
func (br *breeder) offspring() int {
	st, p := br.st, br.p
	if st.cs == nil {
		return st.rng.Intn(st.n)
	}
	dims := len(st.card)
	p1 := br.tournament()
	p2 := br.tournament()
	child, c2 := br.c1, br.c2
	st.cs.CoordsOf(st.pts[p1], child)
	st.cs.CoordsOf(st.pts[p2], c2)
	if st.rng.Float64() < p.Cross {
		for d := 0; d < dims; d++ {
			if st.rng.Intn(2) == 1 {
				child[d] = c2[d]
			}
		}
	}
	for d := 0; d < dims; d++ {
		if st.rng.Float64() < p.Mut {
			br.step(child, d)
		}
	}
	if idx := st.cs.IndexOf(child); idx >= 0 {
		return idx
	}
	// Repair non-admitted tuples (budget-filtered mixes) with extra random
	// single-axis steps before giving up on the lineage.
	for try := 0; try < 2*dims; try++ {
		br.step(child, st.rng.Intn(dims))
		if idx := st.cs.IndexOf(child); idx >= 0 {
			return idx
		}
	}
	return st.rng.Intn(st.n)
}

// step moves coordinate d of c one value down or up, as one RNG draw picks,
// clamped to the axis.
func (br *breeder) step(c []int, d int) {
	if br.st.rng.Intn(2) == 0 {
		if c[d] > 0 {
			c[d]--
		}
	} else if c[d] < br.st.card[d]-1 {
		c[d]++
	}
}
