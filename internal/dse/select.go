package dse

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// Selector is the streaming sweep's selection discipline over an arbitrary
// stream of candidate observations: a per-model best-latency reference that
// only tightens, slack re-filtering of every held row when it does, and the
// lead, the held row first in (area, index) selection order. It is the
// sweep's own reduction — every worker shard of ExploreSpaceCtx reduces
// its chunks through one — so feeding it every point of a space in any order
// yields the same winner and feasible count as ExploreSpaceCtx over that
// space (the single-shard case of the merge argument in DESIGN.md §8), which
// is what makes budgeted-search results bit-compatible with exhaustive ones
// restricted to the visited set.
//
// A Selector holds every slack-feasible observation exactly once (see
// frontier): on several models each with its index and area, on one model
// the non-dominated ones that way and the dominated ones as bare latencies.
// Held rows are re-filtered whenever the reference tightens and a row is
// admitted only when it passes slack, so every held row is feasible under
// the current reference. The dominance frontier staged fidelity refines is
// filtered from the held rows once, when it is read (FeasibleFrontier).
//
// Each point index is observed at most once, as sweeps and searches observe
// them: a one-model staircase rests on it (frontier.addStair).
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

// absorb folds o, the Selector of another sweep shard, into s, whose
// reference must already be the final one — the min over every shard's. o is
// lowered to it, which drops exactly o's rows that fail the final slack pass;
// o's rows are then added to s's and its band rows kept in s's band. s then
// holds every row of both that passes slack (DESIGN.md §8).
func (s *Selector) absorb(o *Selector) {
	o.lowerTo(s.best)
	s.front.absorb(&o.front)
}

// Conclude ends a selection — the search's over its visited points; a
// sweep ends each target's merged one the same way, in its two halves —
// with the Result Algorithm 1 reports, the winner's point index and its
// selection area (its per-model areas summed in model order). sc is the Scorer of the selection's models the
// observations came from; explored is the number of points observed, and ev
// the engine, which must not be nil. It fails when some model has no
// statically feasible observation, and when nothing observed passes slack on
// every model. Under staged fidelity (fo) the winner instead comes from
// stage 1 over the feasible frontier, filtered once from the held rows,
// which reads the candidates' summaries from sc and then reads sc no more,
// so the caller dropping its own reference frees the cost tables while the
// candidates refine. The winner is materialized on the union-kind
// configuration through the engine's cache, so the reported PPA includes
// idle banks' leakage. A cancelled ctx aborts the frontier's filter and
// stage 1 with ctx.Err(). Its halves are settle, which reads sc for the last
// time, and the ending's finish.
func (s *Selector) Conclude(ctx context.Context, sc *Scorer, explored int, fo *FidelityOptions, ev *eval.Evaluator) (Result, int, float64, error) {
	e, err := s.settle(ctx, sc, explored, fo)
	if err != nil {
		return Result{}, -1, 0, err
	}
	return e.finish(ctx, fo, ev)
}

// ending is a selection between the last read of its Scorer and its
// Result: the checked winner and, under staged fidelity, every frontier
// candidate's point and summaries, so a sweep can drop its cost tables
// before any target refines.
type ending struct {
	models []*workload.Model
	space  hw.DesignSpace
	cons   Constraints
	res    Result // Feasible, Explored and SpaceDesc
	best   int
	area   float64
	front  []row     // the feasible frontier, under staged fidelity
	cands  []int     // its point indices
	blk    candBlock // the candidates' points and summaries
}

// settle runs Conclude's checks and, under staged fidelity, reads the
// feasible frontier's points and summaries from sc; nothing after it reads
// sc.
func (s *Selector) settle(ctx context.Context, sc *Scorer, explored int, fo *FidelityOptions) (*ending, error) {
	for i, m := range sc.models {
		if math.IsInf(s.best[i], 1) {
			return nil, fmt.Errorf("dse: no space point meets area/power constraints for %s", m.Name)
		}
	}
	best, area, ok := s.Best()
	if !ok {
		return nil, fmt.Errorf("dse: no feasible configuration for %d models under %+v", len(sc.models), sc.cons)
	}
	e := &ending{models: sc.models, space: sc.space, cons: sc.cons, best: best, area: area,
		res: Result{Feasible: s.Feasible(), Explored: explored, SpaceDesc: sc.space.Desc()}}
	if fo.Staged() {
		var err error
		if e.front, err = s.front.skyline(ctx); err != nil {
			return nil, err
		}
		e.cands = idxsOf(e.front)
		if e.blk, err = gatherCands(ctx, sc, e.cands); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// finish is the rest of Conclude: stage 1 over the gathered candidates when
// fo is staged, then the winner's materialization.
func (e *ending) finish(ctx context.Context, fo *FidelityOptions, ev *eval.Evaluator) (Result, int, float64, error) {
	res, best, area := e.res, e.best, e.area
	if fo.Staged() {
		var stats RefineStats
		var err error
		best, stats, err = fo.refineBlock(ctx, e.models, e.space, e.cons, e.cands, e.blk, ev)
		if err != nil {
			return Result{}, -1, 0, err
		}
		res.Refined = &stats
		area = e.front[slices.Index(e.cands, best)].area
	}
	res.Config = hw.NewConfig(e.space.At(best), e.models)
	res.Config.Cat = hw.CatalogueOf(e.space)
	res.Evals = make([]*ppa.Eval, len(e.models))
	for i, m := range e.models {
		me, err := ev.Evaluate(m, res.Config)
		if err != nil {
			return Result{}, -1, 0, err
		}
		res.Evals[i] = me
	}
	return res, best, area, nil
}

// Best returns the min-(area, index) candidate feasible under the current
// reference, or ok=false when nothing observed so far is feasible.
func (s *Selector) Best() (idx int, area float64, ok bool) {
	if len(s.front.rows) == 0 {
		return -1, 0, false
	}
	r := s.front.rows[s.front.lead]
	return r.idx, r.area, true
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
// Its first element is Best()'s index. Each call filters the held rows
// anew.
func (s *Selector) FeasibleFrontier() []int {
	// The filter fails only on a done context, and this one never is.
	front, _ := s.front.skyline(context.TODO())
	return idxsOf(front)
}

// idxsOf returns the rows' point indices, in order.
func idxsOf(rows []row) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = r.idx
	}
	return out
}
