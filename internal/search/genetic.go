package search

// evolve is a steady-state genetic algorithm over coordinate vectors: each
// generation breeds a batch of offspring (tournament parent selection,
// uniform per-axis crossover, ±1-step mutation), scores the batch's new
// points through one visit, then replaces the worst population member with
// any offspring that beats it, in batch order. Offspring landing on
// non-admitted coordinate tuples (mixes the budgets filtered out) are
// repaired by extra mutation, falling back to a random index, so the budget
// is never spent proposing nothing. It stops when the state is exhausted or
// st.err is set.
func evolve(st *state, p GeneticParams) {
	// Found the population on everything already scored (the corner and
	// random seeds), topping up with random points until Pop members or the
	// budget runs dry. One point never occupies two members.
	br := newBreeder(st, p)
	for s := range st.pts {
		if len(br.pop) >= p.Pop {
			break
		}
		if st.errs[s] == nil {
			br.add(s)
		}
	}
	batch := make([]int, 0, p.Batch)
	for len(br.pop) < p.Pop && !st.exhausted() {
		batch = batch[:0]
		for j := 0; j < p.Batch && len(br.pop)+len(batch) < p.Pop; j++ {
			batch = append(batch, st.rng.Intn(st.n))
		}
		slots := st.visit(batch)
		if st.err != nil {
			return
		}
		for _, s := range slots {
			if s >= 0 && len(br.pop) < p.Pop {
				br.add(s)
			}
		}
	}
	if len(br.pop) == 0 {
		return
	}
	br.rank()
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
			if s >= 0 {
				br.offer(s)
			}
		}
	}
}

// breeder is a genetic run's population: each member's slot, fitness and
// coordinates, the member of the first maximal fitness (the one an
// offspring replaces), a per-slot membership flag, the selector reference
// the fitness was computed against, and the coordinate scratch offspring are
// bred in. Fitness depends only on the slot and the reference, and only
// visit moves the reference, so the members' values are recomputed only
// after a visit that moved it, and the worst member is rescanned only then
// or after a replacement.
type breeder struct {
	st     *state
	p      GeneticParams
	dims   int
	pop    []int     // member -> slot
	fit    []float64 // fit[i] is st.fitness(pop[i]) under ref
	coords []int     // member i's coordinates at [i*dims, (i+1)*dims)
	worst  int       // the first member of maximal fitness
	in     []bool    // in[s] reports whether slot s is a member
	ref    []float64
	child  []int
}

// newBreeder returns an empty population for st; add founds it and rank
// computes its fitness.
func newBreeder(st *state, p GeneticParams) *breeder {
	dims := len(st.card)
	return &breeder{st: st, p: p, dims: dims,
		pop: make([]int, 0, p.Pop), fit: make([]float64, 0, p.Pop), coords: make([]int, 0, p.Pop*dims),
		ref: make([]float64, st.nm), child: make([]int, dims)}
}

// add makes slot s a member unless it is one already. Its fitness is set by
// the next rank.
func (br *breeder) add(s int) {
	if br.member(s) {
		return
	}
	br.setMember(s, true)
	br.pop = append(br.pop, s)
	br.fit = append(br.fit, 0)
	br.coords = append(br.coords, make([]int, br.dims)...)
	br.coordsOf(len(br.pop) - 1)
}

// member reports whether slot s is in the population.
func (br *breeder) member(s int) bool { return s < len(br.in) && br.in[s] }

// setMember sets slot s's membership flag, growing the flags to cover it.
func (br *breeder) setMember(s int, in bool) {
	if s >= len(br.in) {
		br.in = append(br.in, make([]bool, s+1-len(br.in))...)
	}
	br.in[s] = in
}

// coordsOf writes member i's coordinates from its slot's point.
func (br *breeder) coordsOf(i int) {
	if br.st.cs != nil {
		br.st.cs.CoordsOf(br.st.pts[br.pop[i]], br.coords[i*br.dims:(i+1)*br.dims])
	}
}

// rank computes every member's fitness under the selector's current
// reference and finds the worst member.
func (br *breeder) rank() {
	copy(br.ref, br.st.sel.BestLatencies())
	for i, s := range br.pop {
		br.fit[i] = br.st.fitness(s)
	}
	br.findWorst()
}

// refresh ranks the population again when the selector's reference has
// moved since it was last ranked.
func (br *breeder) refresh() {
	for i, r := range br.st.sel.BestLatencies() {
		if r != br.ref[i] {
			br.rank()
			return
		}
	}
}

// findWorst sets worst to the first member of maximal fitness.
func (br *breeder) findWorst() {
	worst, wf := -1, 0.0
	for i, f := range br.fit {
		if worst < 0 || f > wf {
			worst, wf = i, f
		}
	}
	br.worst = worst
}

// offer replaces the worst member with slot s when s is not a member and
// its fitness is strictly lower.
func (br *breeder) offer(s int) {
	if br.member(s) {
		return
	}
	f := br.st.fitness(s)
	if w := br.worst; f < br.fit[w] {
		br.setMember(br.pop[w], false)
		br.setMember(s, true)
		br.pop[w], br.fit[w] = s, f
		br.coordsOf(w)
		br.findWorst()
	}
}

// tournament returns the member with the best fitness among Tourn uniformly
// drawn members.
func (br *breeder) tournament() int {
	best, bf := -1, 0.0
	for i := 0; i < br.p.Tourn; i++ {
		j := br.st.rng.Intn(len(br.pop))
		if f := br.fit[j]; best < 0 || f < bf {
			best, bf = j, f
		}
	}
	return best
}

// offspring proposes one child point index from the population. It performs
// no allocation.
func (br *breeder) offspring() int {
	st, p, dims := br.st, br.p, br.dims
	if st.cs == nil {
		return st.rng.Intn(st.n)
	}
	p1 := br.tournament()
	p2 := br.tournament()
	child := br.child
	copy(child, br.coords[p1*dims:(p1+1)*dims])
	c2 := br.coords[p2*dims : (p2+1)*dims]
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
