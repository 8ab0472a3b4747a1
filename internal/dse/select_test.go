package dse

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check/oracle"
)

// TestObserveBatchMatchesOneAtATime pins ObserveBatch's contract, which the
// sweep's chunk loop and search's visits rest on: a batch that also holds a
// failed row and a row statically infeasible on one model leaves a Selector
// with the same Best, BestLatencies, Feasible and FeasibleFrontier as
// observing the scored rows one at a time, in index order, in reverse and in
// a random order. The failed row is fast enough to empty the held set if its
// latencies were read; the infeasible row is slightly faster than point 0,
// so it tightens every other model's reference but is never held.
func TestObserveBatchMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	held := 0
	for trial := 0; trial < 300; trial++ {
		m, slack := oracle.RandomTrial(rng)
		cons := Constraints{MaxChipAreaMM2: 100, MaxPowerDensityWPerMM2: 1, LatencySlack: slack}
		nm, n := m.Models, m.Points()+2
		idxs, areas, errs := make([]int, n), make([]float64, n), make([]error, n)
		lats, statics := make([]float64, n*nm), make([]bool, n*nm)
		for k := 0; k < m.Points(); k++ {
			idxs[k], areas[k] = k, m.Area(k)
			for i, o := range m.Row(k) {
				lats[k*nm+i], statics[k*nm+i] = o.LatencyS, o.Static
			}
		}
		failed, infeasible := n-2, n-1
		idxs[failed], errs[failed] = failed, errors.New("scoring failed")
		for i := 0; i < nm; i++ {
			statics[failed*nm+i] = true
		}
		idxs[infeasible], areas[infeasible] = infeasible, 0
		for i, o := range m.Row(0) {
			lats[infeasible*nm+i], statics[infeasible*nm+i] = 0.999*o.LatencyS, i > 0
		}

		batch := NewSelector(nm, cons)
		batch.ObserveBatch(idxs, areas, lats, statics, errs)
		bIdx, bArea, bOK := batch.Best()
		held += batch.Feasible()
		forward, reversed := make([]int, n), make([]int, n)
		for j := range forward {
			forward[j], reversed[j] = j, n-1-j
		}
		for _, order := range [][]int{forward, reversed, rng.Perm(n)} {
			one := NewSelector(nm, cons)
			for _, j := range order {
				if errs[j] == nil {
					one.Observe(idxs[j], areas[j], lats[j*nm:(j+1)*nm], statics[j*nm:(j+1)*nm])
				}
			}
			oIdx, oArea, oOK := one.Best()
			if bIdx != oIdx || bArea != oArea || bOK != oOK ||
				!slices.Equal(batch.BestLatencies(), one.BestLatencies()) ||
				batch.Feasible() != one.Feasible() ||
				!slices.Equal(batch.FeasibleFrontier(), one.FeasibleFrontier()) {
				t.Fatalf("trial %d, order %v:\nbatch: best %d (%v, %v) refs %v feasible %d frontier %v\n"+
					"rows:  best %d (%v, %v) refs %v feasible %d frontier %v", trial, order,
					bIdx, bArea, bOK, batch.BestLatencies(), batch.Feasible(), batch.FeasibleFrontier(),
					oIdx, oArea, oOK, one.BestLatencies(), one.Feasible(), one.FeasibleFrontier())
			}
		}
	}
	if held == 0 {
		t.Fatal("no trial held a row; the comparison lost its teeth")
	}
}
