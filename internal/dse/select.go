package dse

import (
	"math"
	"slices"
)

// MeetsStatic checks the constraints that do not depend on the best-latency
// reference (area and power density) — the exported form the budgeted search
// layer uses so its per-model static feasibility matches the sweep's bit for
// bit.
func (c Constraints) MeetsStatic(areaMM2, powerDensity float64) bool {
	return c.meetsStatic(areaMM2, powerDensity)
}

// Selector is the streaming sweep's selection discipline over an arbitrary
// stream of candidate observations: a per-model best-latency reference that
// only tightens, slack re-filtering of every held row when it does, and an
// area-dominance frontier ordered in (area, index) selection order. It is
// the sweep's own reduction — every worker shard of ExploreSpaceCtx reduces
// its chunks through one — so feeding it every point of a space in any order
// yields the same winner and feasible count as ExploreSpaceCtx over that
// space (the single-shard case of the merge argument in DESIGN.md §8), which
// is what makes budgeted-search results bit-compatible with exhaustive ones
// restricted to the visited set.
//
// A Selector holds every slack-feasible observation exactly once: the
// non-dominated ones in the frontier, the dominated ones as bare latency
// rows in the frontier's band. Both are re-filtered whenever the reference
// tightens and a row is admitted only when it passes slack, so every held
// row is feasible under the current reference.
//
// Selector is not safe for concurrent use; callers observe candidates from
// one goroutine (internal/search scores batches in parallel, then observes
// the results in deterministic slot order).
type Selector struct {
	cons  Constraints
	front frontier
	best  []float64
}

// NewSelector builds a selector for nModels models under cons.
func NewSelector(nModels int, cons Constraints) *Selector {
	s := &Selector{cons: cons, best: make([]float64, nModels)}
	s.front.init(nModels)
	for i := range s.best {
		s.best[i] = math.Inf(1)
	}
	return s
}

// Observe feeds one candidate: its point index, summed area, per-model
// latencies, and per-model static feasibility (dse.Constraints.MeetsStatic of
// each model's summary). Latencies of statically feasible models tighten the
// reference; the candidate is held only when every model is statically
// feasible and the latencies pass slack against the current reference. lats
// and statics may be reused by the caller after return. It is the one-row
// case of ObserveBatch.
func (s *Selector) Observe(idx int, area float64, lats []float64, statics []bool) {
	s.ObserveBatch([]int{idx}, []float64{area}, lats, statics, nil)
}

// ObserveBatch feeds a batch of scored candidates at once. Row j is point
// idxs[j] with summed area areas[j], and with per-model latencies and static
// feasibility at lats[j*m:(j+1)*m] and statics[j*m:(j+1)*m], for the
// Selector's m models. A row whose errs[j] is non-nil failed to score and is
// skipped; a nil errs means no row failed. The reference first lowers to the
// batch's statically feasible minima and the held rows are re-filtered once;
// then the rows statically feasible on every model that pass slack are added
// in row order. The Selector then holds exactly what observing the rows one
// at a time, in any order, would leave it holding: under a given reference
// the held set does not depend on observation order (DESIGN.md §8), and a
// row failing slack against the batch's reference also fails every later
// one. Only the peak sizes can differ, since rows that fail slack are never
// added. The slices may be reused by the caller after return.
func (s *Selector) ObserveBatch(idxs []int, areas, lats []float64, statics []bool, errs []error) {
	m := len(s.best)
	tightened := false
	for j := range idxs {
		if errs != nil && errs[j] != nil {
			continue
		}
		row, ok := lats[j*m:(j+1)*m], statics[j*m:(j+1)*m]
		for i, l := range row {
			if ok[i] && l < s.best[i] {
				s.best[i] = l
				tightened = true
			}
		}
	}
	if tightened {
		s.front.filterSlack(s.best, s.cons.LatencySlack)
	}
	for j, idx := range idxs {
		if errs != nil && errs[j] != nil || slices.Contains(statics[j*m:(j+1)*m], false) {
			continue
		}
		if row := lats[j*m : (j+1)*m]; slackOK(row, s.best, s.cons.LatencySlack) {
			s.front.add(idx, areas[j], row)
		}
	}
}

// lowerTo lowers the reference to its element-wise min with ref, re-filtering
// the held rows when that tightened anything. Callers pass references that
// are everywhere >= the final one — a snapshot of the sweep's watermark, or
// the final references themselves — so no row the final pass keeps is lost.
func (s *Selector) lowerTo(ref []float64) {
	tightened := false
	for i, r := range ref {
		if r < s.best[i] {
			s.best[i] = r
			tightened = true
		}
	}
	if tightened {
		s.front.filterSlack(s.best, s.cons.LatencySlack)
	}
}

// Best returns the min-(area, index) candidate feasible under the current
// reference, or ok=false when nothing observed so far is feasible.
func (s *Selector) Best() (idx int, area float64, ok bool) {
	if len(s.front.cands) == 0 {
		return -1, 0, false
	}
	c := s.front.cands[0]
	return c.idx, c.area, true
}

// BestLatencies returns the current per-model reference latencies (+Inf for
// models with no statically feasible observation yet). The returned slice is
// live; callers must not mutate it.
func (s *Selector) BestLatencies() []float64 { return s.best }

// Feasible returns the number of observed candidates that are statically
// feasible on every model and pass slack against the current reference —
// Result.Feasible over the observed set once the reference is final.
func (s *Selector) Feasible() int { return s.front.held() }

// FeasibleFrontier returns the point indices of the non-dominated candidates
// feasible under the current reference, in (area, index) selection order —
// the candidate list staged fidelity refines (FidelityOptions.RefineSelect).
// Its first element is Best()'s index.
func (s *Selector) FeasibleFrontier() []int {
	out := make([]int, len(s.front.cands))
	for i := range s.front.cands {
		out[i] = s.front.cands[i].idx
	}
	return out
}
