package search

import "math"

// anneal is simulated annealing with coordinate-neighborhood moves: each
// round proposes a batch of ±1-axis-step neighbors of the current point,
// scores the batch's new points through one visit, then applies the
// Metropolis acceptance rule to the batch in order. Temperature
// cools geometrically with budget progress from T0 to T1 (fractions of the
// walk's starting fitness), and the budget is split into Restarts phases
// that re-center the walk — even phases on the best point seen, odd phases
// on a fresh random point — so one deep local minimum cannot strand the
// whole budget. It stops when the state is exhausted or st.err is set.
func anneal(st *state, p AnnealParams) {
	total := st.budget // remaining after seeding; defines cooling progress
	if total < st.nm {
		return
	}
	cur := st.bestByFitness()
	if cur < 0 {
		return
	}
	scale := st.tempScale(cur)
	phase := 0
	stall := 0
	batch := make([]int, 0, p.Batch)
	for !st.exhausted() {
		// A stalled walk — several rounds whose every proposal was already
		// scored — consumes no budget, so without intervention the loop would
		// spin forever inside a fully-visited neighborhood. Teleport to a
		// fresh random point; the forced visit is guaranteed to move the
		// budget (or trip exhaustion).
		if stall >= 3 {
			stall = 0
			slots := st.visit([]int{st.randomUnvisited()})
			if st.err != nil {
				return
			}
			if s := slots[0]; s >= 0 {
				cur = s
				scale = st.tempScale(cur)
			}
			continue
		}
		// Restart when budget progress crosses a phase boundary.
		used := total - st.budget
		if ph := used * p.Restarts / total; ph > phase {
			phase = ph
			if phase%2 == 0 {
				cur = st.bestByFitness()
			} else {
				slots := st.visit([]int{st.rng.Intn(st.n)})
				if st.err != nil {
					return
				}
				if s := slots[0]; s >= 0 {
					cur = s
				}
			}
			scale = st.tempScale(cur)
		}
		batch = batch[:0]
		for j := 0; j < p.Batch; j++ {
			batch = append(batch, st.neighbor(st.pts[cur]))
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
		// Sequential Metropolis acceptance over the scored batch: fitness is
		// re-read per step because the selector's latency reference may have
		// tightened mid-batch.
		prog := float64(total-st.budget) / float64(total)
		temp := p.T0 * scale * math.Pow(p.T1/p.T0, prog)
		if temp < 1e-300 {
			temp = 1e-300
		}
		for _, s := range slots {
			if s < 0 || s == cur {
				continue
			}
			delta := st.fitness(s) - st.fitness(cur)
			if delta <= 0 || st.rng.Float64() < math.Exp(-delta/temp) {
				cur = s
			}
		}
	}
}

// tempScale is the temperature scale of a walk (re)started at slot s: its
// fitness, or 1 when that is non-positive or infinite.
func (st *state) tempScale(s int) float64 {
	f := st.fitness(s)
	if f <= 0 || math.IsInf(f, 1) {
		return 1
	}
	return f
}
