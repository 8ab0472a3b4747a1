package dse

import (
	"math"
	"sync/atomic"
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
// only tightens, slack re-filtering of retained candidates when it does, and
// an area-dominance frontier ordered in (area, index) selection order. It is
// the sweep's own reduction — every worker shard of ExploreSpaceCtx reduces
// its chunks through one — so feeding it every point of a space in any order
// yields the same winner as ExploreSpaceCtx over that space (the single-shard
// case of the merge argument in DESIGN.md §8), which is what makes
// budgeted-search results bit-compatible with exhaustive ones restricted to
// the visited set.
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
// reference; the candidate is retained only when every model is statically
// feasible and the latencies pass slack against the current reference. lats
// and statics may be reused by the caller after return.
func (s *Selector) Observe(idx int, area float64, lats []float64, statics []bool) {
	tightened := false
	allOK := true
	for i := range lats {
		if !statics[i] {
			allOK = false
			continue
		}
		if lats[i] < s.best[i] {
			s.best[i] = lats[i]
			tightened = true
		}
	}
	if tightened {
		s.front.filterSlack(s.best, s.cons.LatencySlack)
	}
	if allOK && slackOK(lats, s.best, s.cons.LatencySlack) {
		s.front.add(idx, area, lats)
	}
}

// lowerRef lowers the reference to its element-wise min with a snapshot of
// the sweep's shared watermark cells, re-filtering the frontier when that
// tightened anything. The cells only ever decrease and each holds some
// shard's own minimum, so the reference stays >= the final one.
func (s *Selector) lowerRef(wm []atomic.Uint64) {
	tightened := false
	for i := range s.best {
		if r := math.Float64frombits(wm[i].Load()); r < s.best[i] {
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
	for i := range s.front.cands {
		fc := &s.front.cands[i]
		if slackOK(s.front.latsOf(fc), s.best, s.cons.LatencySlack) {
			return fc.idx, fc.area, true
		}
	}
	return -1, 0, false
}

// BestLatencies returns the current per-model reference latencies (+Inf for
// models with no statically feasible observation yet). The returned slice is
// live; callers must not mutate it.
func (s *Selector) BestLatencies() []float64 { return s.best }

// SlackOK reports whether the latencies meet the slack constraint against
// the current reference — the final feasibility predicate search uses to
// count Result.Feasible over its visited set.
func (s *Selector) SlackOK(lats []float64) bool {
	return slackOK(lats, s.best, s.cons.LatencySlack)
}

// FeasibleFrontier returns the point indices of retained candidates that are
// slack-feasible under the current reference, in (area, index) selection
// order — the candidate list staged fidelity refines (FidelityOptions.
// RefineSelect). Its first element is Best()'s index.
func (s *Selector) FeasibleFrontier() []int {
	out := make([]int, 0, len(s.front.cands))
	for i := range s.front.cands {
		fc := &s.front.cands[i]
		if slackOK(s.front.latsOf(fc), s.best, s.cons.LatencySlack) {
			out = append(out, fc.idx)
		}
	}
	return out
}
