package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// Optimizer is a budgeted search strategy over a design space. Run returns a
// dse.Result bit-compatible with dse.ExploreSpaceCtx restricted to the points
// the search visited (the sweep's own dse.Selector reduction and ending,
// dse.Selector.Conclude), plus a Trace of how the budget was
// spent. The budget is in summary-evaluation units (one point × one model);
// repeat visits of an already-scored point are cache hits and cost nothing.
// When budget >= Len(space) × len(models), Run falls back to the exhaustive
// streaming sweep and returns its Result unchanged. budget <= 0 selects the
// default: 5% of the exhaustive count, floored at 64 points.
type Optimizer interface {
	// Name is the strategy name ("anneal", "genetic").
	Name() string
	// Run executes the search. Deterministic for a fixed seed at any
	// evaluator worker count. ctx must be non-nil; cancelling it stops the
	// search with the context's error.
	Run(ctx context.Context, models []*workload.Model, space hw.DesignSpace,
		cons dse.Constraints, budget int) (dse.Result, Trace, error)
}

// Options configures an Optimizer independent of its strategy parameters.
type Options struct {
	// Seed seeds the strategy's random stream; runs with equal seeds are
	// byte-identical.
	Seed int64
	// Evaluator is the scoring engine (nil: the shared default).
	Evaluator *eval.Evaluator
	// Fidelity selects the evaluation pipeline (nil: analytical). Under the
	// staged mode the run's winner comes from re-scoring the visited-set
	// dominance frontier with the physical models (stage 1, as the sweep
	// runs it); stage-1 evaluations run outside the summary budget and are
	// reported in the result's Refined stats.
	Fidelity *dse.FidelityOptions
}

// Improvement records one strictly better incumbent during a search: how
// many evaluations had been spent when it was found, and its selection area.
type Improvement struct {
	// Evals is the cumulative summary-evaluation count when the point
	// became the incumbent.
	Evals int
	// AreaMM2 is the incumbent's summed per-model selection area.
	AreaMM2 float64
	// Point renders the incumbent's design point.
	Point string
}

// Trace reports how a search run spent its budget — the observability behind
// the optimality-gap and evaluation-fraction bounds TestSearchAcceptanceGate
// holds.
type Trace struct {
	// Strategy is the strategy that ran ("anneal", "genetic", or
	// "exhaustive" for the fallback).
	Strategy string
	// Seed is the seed the run used.
	Seed int64
	// Budget is the evaluation budget after defaulting.
	Budget int
	// Evaluations counts summary evaluations consumed (unique visited
	// points × models): the evaluator-miss bound the budget caps.
	Evaluations int
	// CacheHits counts repeat point visits served from the run's memo —
	// free under the budget.
	CacheHits int
	// UniquePoints is the number of distinct space points scored.
	UniquePoints int
	// EvalsToWin is the cumulative evaluation count at the moment the
	// returned winner was first scored — the evaluations-per-win metric.
	EvalsToWin int
	// BestAreaMM2 is the winner's summed per-model selection area (the
	// quantity optimality gap compares against the exhaustive optimum).
	BestAreaMM2 float64
	// Improvements is the incumbent trajectory in evaluation order.
	Improvements []Improvement
	// Fallback reports that the budget covered the space and the exhaustive
	// sweep ran instead.
	Fallback bool
}

// New builds the Optimizer for a spec. The spec must validate.
func New(spec Spec, o Options) (Optimizer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := engine{spec: spec, opts: o}
	switch spec.Kind {
	case "anneal":
		return &annealer{eng}, nil
	default:
		return &genetic{eng}, nil
	}
}

// engine is the strategy-independent half of a run: validation, budget
// accounting, the exhaustive fallback, scoring and selection, ending in the
// sweep's own conclusion (dse.Selector.Conclude).
type engine struct {
	spec Spec
	opts Options
}

// run drives one search: it builds the shared state, seeds it with corner
// and random points, hands control to the strategy, then concludes the
// selector's selection (finish).
func (g *engine) run(ctx context.Context, models []*workload.Model, space hw.DesignSpace,
	cons dse.Constraints, budget int, strategy func(*state) error) (dse.Result, Trace, error) {
	if len(models) == 0 {
		return dse.Result{}, Trace{}, fmt.Errorf("search: no models")
	}
	if space == nil || space.Len() == 0 {
		return dse.Result{}, Trace{}, fmt.Errorf("search: empty design space")
	}
	if err := cons.Validate(); err != nil {
		return dse.Result{}, Trace{}, err
	}
	ev := g.opts.Evaluator
	if ev == nil {
		ev = eval.Shared()
	}
	n, nm := space.Len(), len(models)
	if budget <= 0 {
		budget = n * nm / 20
		if min := 64 * nm; budget < min {
			budget = min
		}
	}
	if budget >= n*nm {
		return g.fallback(ctx, models, space, cons, ev)
	}
	if min := 3 * nm; budget < min {
		return dse.Result{}, Trace{}, fmt.Errorf("search: budget %d too small for %d models (want >= %d)", budget, nm, min)
	}

	st := newState(ctx, ev, space, models, cons, g.opts.Seed, budget)
	st.fid = g.opts.Fidelity
	st.visit(st.seedPoints())
	if st.err == nil {
		st.calibrate()
	}
	if st.err == nil {
		if err := strategy(st); err != nil {
			return dse.Result{}, st.trace(g.spec.Kind), err
		}
	}
	if st.err != nil {
		return dse.Result{}, st.trace(g.spec.Kind), st.err
	}
	if err := ctx.Err(); err != nil {
		return dse.Result{}, st.trace(g.spec.Kind), err
	}
	return st.finish(g.spec.Kind)
}

// fallback runs the exhaustive streaming sweep — the path taken when the
// budget covers the whole space — and returns its Result unchanged; the
// trace's winner area is the sweep's own (ExploreStats.WinnerAreaMM2).
func (g *engine) fallback(ctx context.Context, models []*workload.Model, space hw.DesignSpace,
	cons dse.Constraints, ev *eval.Evaluator) (dse.Result, Trace, error) {
	var stats dse.ExploreStats
	res, err := dse.ExploreSpaceCtx(ctx, models, space, cons, ev,
		&dse.ExploreOptions{Stats: &stats, Fidelity: g.opts.Fidelity})
	if err != nil {
		return dse.Result{}, Trace{Strategy: "exhaustive", Fallback: true}, err
	}
	evals := stats.Points * stats.Models
	return res, Trace{
		Strategy:     "exhaustive",
		Seed:         g.opts.Seed,
		Budget:       evals,
		Evaluations:  evals,
		UniquePoints: stats.Points,
		EvalsToWin:   evals,
		BestAreaMM2:  stats.WinnerAreaMM2,
		Fallback:     true,
	}, nil
}

// state is the shared per-run search state: the scored-point memo (slots),
// the budget ledger, the dse.Selector replaying the sweep's selection
// discipline, and the coordinator-owned RNG. Scoring fans out over the
// evaluator's worker pool; every decision that touches the RNG or the
// selector happens on the coordinator in deterministic slot order, which is
// what makes runs byte-identical at any worker count.
type state struct {
	ctx    context.Context
	ev     *eval.Evaluator
	space  hw.DesignSpace
	view   *coordView
	models []*workload.Model
	cons   dse.Constraints
	score  *dse.Scorer
	sel    *dse.Selector
	rng    *rand.Rand
	fid    *dse.FidelityOptions
	n, nm  int

	seed    int64
	budget0 int // the budget as given (after defaulting)
	budget  int // remaining summary evaluations (nm reserved for materialization)
	evals   int // consumed summary evaluations
	hits    int // repeat-visit memo hits

	slots  map[int]int // point index -> slot
	pts    []int       // slot -> point index
	areas  []float64   // slot -> summed per-model area
	lats   []float64   // slot*nm latency rows
	static []bool      // slot*nm per-model static feasibility
	evalAt []int       // slot -> cumulative evals when scored
	errs   []error     // slot -> scoring error (nil normally)
	err    error       // first error in slot order

	improvements []Improvement
	lastBest     int

	slotScratch  []int
	coordScratch []int
}

func newState(ctx context.Context, ev *eval.Evaluator, space hw.DesignSpace,
	models []*workload.Model, cons dse.Constraints, seed int64, budget int) *state {
	nm := len(models)
	st := &state{
		ctx: ctx, ev: ev, space: space, view: newCoordView(space),
		models: models, cons: cons,
		score: dse.NewScorer(ev, models, space, cons),
		sel:   dse.NewSelector(nm, cons),
		rng:   rand.New(rand.NewSource(seed)),
		n:     space.Len(), nm: nm,
		seed:    seed,
		budget0: budget,
		// Reserve nm evaluations for winner materialization: the final
		// union-kind config is a fresh cache key, so without the reserve
		// the evaluator-miss count could exceed the budget.
		budget:   budget - nm,
		slots:    make(map[int]int, budget/nm+1),
		lastBest: -1,
	}
	if st.view != nil {
		st.coordScratch = make([]int, st.view.dims)
	}
	return st
}

// exhausted reports whether the strategy loop should stop: budget spent,
// space fully visited, error, or context cancelled.
func (st *state) exhausted() bool {
	return st.err != nil || st.budget < st.nm || len(st.pts) >= st.n || st.ctx.Err() != nil
}

// visit scores a batch of candidate point indices and returns one slot per
// candidate, aligned: already-scored points resolve to their existing slot
// (a cache hit, free under the budget), new points are scored in parallel
// through the evaluator, and candidates past the budget resolve to -1. New
// results are fed to the selector as one batch, in slot order, on the
// coordinator.
func (st *state) visit(cands []int) []int {
	st.slotScratch = st.slotScratch[:0]
	newStart := len(st.pts)
	for _, k := range cands {
		if s, ok := st.slots[k]; ok {
			st.hits++
			st.slotScratch = append(st.slotScratch, s)
			continue
		}
		if st.budget < st.nm {
			st.slotScratch = append(st.slotScratch, -1)
			continue
		}
		s := len(st.pts)
		st.slots[k] = s
		st.pts = append(st.pts, k)
		st.areas = append(st.areas, 0)
		st.evalAt = append(st.evalAt, 0)
		st.errs = append(st.errs, nil)
		for i := 0; i < st.nm; i++ {
			st.lats = append(st.lats, 0)
			st.static = append(st.static, false)
		}
		st.budget -= st.nm
		st.slotScratch = append(st.slotScratch, s)
	}
	nNew := len(st.pts) - newStart
	if nNew == 0 {
		return st.slotScratch
	}
	st.ev.ForEach(nNew, func(j int) {
		s := newStart + j
		lats, statics := st.lats[s*st.nm:(s+1)*st.nm], st.static[s*st.nm:(s+1)*st.nm]
		st.areas[s], st.errs[s] = st.score.Score(st.pts[s], lats, statics)
	})
	st.evals += nNew * st.nm
	for s := newStart; s < len(st.pts); s++ {
		if st.errs[s] != nil {
			if st.err == nil {
				st.err = st.errs[s]
			}
			continue
		}
		st.evalAt[s] = st.evals
	}
	st.sel.ObserveBatch(st.pts[newStart:], st.areas[newStart:], st.lats[newStart*st.nm:],
		st.static[newStart*st.nm:], st.errs[newStart:])
	if idx, area, ok := st.sel.Best(); ok && idx != st.lastBest {
		st.lastBest = idx
		st.improvements = append(st.improvements, Improvement{
			Evals: st.evals, AreaMM2: area, Point: fmt.Sprintf("%+v", st.space.At(idx)),
		})
	}
	return st.slotScratch
}

// fitness scores a slot for strategy-internal comparisons: its selection
// area inflated by a penalty for every model that is statically infeasible
// or over latency slack against the current (monotonically tightening)
// reference. Feasible points compare purely on area — the same objective
// selection minimizes — while infeasible ones stay ranked, giving the
// strategies a gradient toward feasibility.
func (st *state) fitness(s int) float64 {
	area := st.areas[s]
	ref := st.sel.BestLatencies()
	slack := st.cons.LatencySlack
	pen := 0.0
	for i := 0; i < st.nm; i++ {
		if !st.static[s*st.nm+i] {
			pen += 1
			continue
		}
		r := ref[i]
		if math.IsInf(r, 1) {
			continue
		}
		limit := (1 + slack) * r
		if l := st.lats[s*st.nm+i]; l > limit && limit > 0 {
			pen += l/limit - 1
		}
	}
	return area * (1 + pen)
}

// bestByFitness returns the visited slot with minimal fitness (ties to the
// lower slot), or -1 when nothing is scored.
func (st *state) bestByFitness() int {
	best, bf := -1, math.Inf(1)
	for s := range st.pts {
		if st.errs[s] != nil {
			continue
		}
		if f := st.fitness(s); f < bf {
			best, bf = s, f
		}
	}
	return best
}

// seedPoints proposes the initial candidate set: the space's latency corners
// (LatencyCornerIndices, where the space provides them), its coordinate
// corners (all-max, all-min, and an axis-0 sweep against max counts), topped
// up with random indices. Invalid corner tuples (budget-filtered mixes) are
// skipped.
func (st *state) seedPoints() []int {
	var idxs []int
	seen := make(map[int]bool)
	add := func(k int) {
		if k >= 0 && k < st.n && !seen[k] {
			seen[k] = true
			idxs = append(idxs, k)
		}
	}
	target := 8
	// Latency corners first: visiting every per-model minimum-latency point
	// calibrates the selector's latency reference to the exhaustive sweep's,
	// which keeps the slack frontier sound on budget-filtered spaces where
	// coordinate corners (e.g. the all-max mix) are not admitted.
	if cs, ok := st.space.(interface{ LatencyCornerIndices() []int }); ok {
		corners := cs.LatencyCornerIndices()
		for _, k := range corners {
			add(k)
		}
		if t := len(corners) + 4; t > target {
			target = t
		}
	}
	if v := st.view; v != nil {
		c := make([]int, v.dims)
		for i := range c {
			c[i] = v.card[i] - 1
		}
		add(v.indexOf(c))
		for i := range c {
			c[i] = 0
		}
		add(v.indexOf(c))
		for val := 0; val < v.card[0]; val++ {
			for i := range c {
				c[i] = v.card[i] - 1
			}
			c[0] = val
			add(v.indexOf(c))
		}
		if t := 2*v.dims + 4; t > target {
			target = t
		}
	} else {
		add(0)
		add(st.n - 1)
	}
	for tries := 0; len(idxs) < target && tries < 8*target; tries++ {
		add(st.rng.Intn(st.n))
	}
	return idxs
}

// calibrate drives the selector's per-model latency reference toward the
// exhaustive sweep's before the strategy runs. The reference only tightens on
// latencies of statically feasible points (dse.Selector), and the corner
// seeds — minimum latency but maximum area — are typically static-infeasible
// on constrained spaces, so without this pass a budgeted run would hold a
// looser reference than the full sweep and could select an area-smaller
// point the sweep rejects on latency slack. Per model: from the best
// statically feasible point seen, binary-search the diagonal chain toward
// the all-max corner for the furthest feasible point (chip area and mix slot
// budgets grow monotonically along every axis, so feasibility along a
// monotone chain is monotone), then refine with the steepest feasible
// single-axis +1 step until none improves. Deterministic (no RNG), scored
// through visit so every probe is budget-ledgered and selector-observed, and
// capped at half the budget so the strategies keep room to optimize area.
func (st *state) calibrate() {
	v := st.view
	if v == nil {
		return
	}
	floor := st.budget0 / 2
	capped := func() bool { return st.exhausted() || st.budget < floor }
	cur := make([]int, v.dims)
	best := make([]int, v.dims)
	axes := make([]int, 0, v.dims)
	for i := 0; i < st.nm && !capped(); i++ {
		// Chain family: the full diagonal from the best statically feasible
		// observation, plus for every axis d a two-phase pure lift from the
		// zero base — axis d alone, then the remaining axes. The pure lifts
		// reach single-type compositions (the per-model latency optimum on
		// mix spaces is typically all slots in that model's best chiplet type
		// at maximum banks, a corner the diagonal cannot hit), and the base
		// being non-admitted (the all-zero mix) just skips that chain.
		found := false
		bestLat := math.Inf(1)
		track := func(cur []int) {
			if idx := v.indexOf(cur); idx >= 0 {
				if s, ok := st.slots[idx]; ok && st.errs[s] == nil && st.static[s*st.nm+i] {
					if l := st.lats[s*st.nm+i]; l < bestLat {
						bestLat = l
						copy(best, cur)
						found = true
					}
				}
			}
		}
		s0, lat0 := -1, math.Inf(1)
		for s := range st.pts {
			if st.errs[s] == nil && st.static[s*st.nm+i] && st.lats[s*st.nm+i] < lat0 {
				s0, lat0 = s, st.lats[s*st.nm+i]
			}
		}
		if s0 >= 0 {
			v.coordsOf(st.pts[s0], cur)
			track(cur)
			allAxes := axes[:0]
			for d := 0; d < v.dims; d++ {
				allAxes = append(allAxes, d)
			}
			st.liftChain(i, cur, allAxes)
			if st.err != nil {
				return
			}
			track(cur)
		}
		for d := 0; d < v.dims && !capped(); d++ {
			for e := range cur {
				cur[e] = 0
			}
			st.liftChain(i, cur, []int{d})
			if st.err != nil {
				return
			}
			// Cyclic coordinate ascent over the remaining axes: each is
			// lifted alone to its feasible maximum, repeatedly, so the area
			// budget left by axis d goes to whichever axes can still use it
			// (banks, then any slack) instead of being split diagonally
			// across the competing type axes.
			for pass := 0; pass < 4 && !capped(); pass++ {
				changed := false
				for e := 0; e < v.dims; e++ {
					if e == d {
						continue
					}
					was := cur[e]
					st.liftChain(i, cur, []int{e})
					if st.err != nil {
						return
					}
					if cur[e] != was {
						changed = true
					}
				}
				if !changed {
					break
				}
			}
			track(cur)
		}
		if !found {
			continue
		}
		copy(cur, best)
		st.swapRefine(i, cur, capped)
		if st.err != nil {
			return
		}
	}
}

// liftChain advances cur along the monotone chain that raises every axis in
// axes together (each clamped at its cardinality), to the furthest offset
// that is statically feasible for model i, by binary search: chip area and
// mix slot budgets grow monotonically along the chain, so feasibility is a
// prefix. Probes are scored through visit (budget-ledgered, selector-
// observed, memo-deduplicated). cur is left at the best feasible offset
// found (unchanged when none is).
func (st *state) liftChain(i int, cur []int, axes []int) {
	v := st.view
	maxT := 0
	for _, d := range axes {
		if t := v.card[d] - 1 - cur[d]; t > maxT {
			maxT = t
		}
	}
	at := func(dst []int, t int) {
		copy(dst, cur)
		for _, d := range axes {
			dst[d] += t
			if m := v.card[d] - 1; dst[d] > m {
				dst[d] = m
			}
		}
	}
	probe := make([]int, v.dims)
	feasible := func(t int) bool {
		at(probe, t)
		idx := v.indexOf(probe)
		if idx < 0 {
			return false
		}
		slots := st.visit([]int{idx})
		if st.err != nil {
			return false
		}
		s := slots[0]
		return s >= 0 && st.errs[s] == nil && st.static[s*st.nm+i]
	}
	lo, hi := 0, maxT
	for lo < hi {
		if st.err != nil || st.budget < st.nm {
			break
		}
		mid := (lo + hi + 1) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo > 0 && feasible(lo) {
		at(probe, lo)
		copy(cur, probe)
	}
}

// swapRefine walks cur by steepest descent on model i's latency over the
// move set {single-axis +1} ∪ {−1 on one axis, +1 on another}: the swaps
// rebalance the composition a lift fixed (trade one chiplet type's slots for
// a faster type's within the same area budget). Every accepted move strictly
// lowers the model's latency, so the walk cannot cycle.
func (st *state) swapRefine(i int, cur []int, capped func() bool) {
	v := st.view
	cands := make([]int, 0, v.dims*v.dims)
	moves := make([][2]int, 0, v.dims*v.dims)
	for !capped() {
		base := v.indexOf(cur)
		slot, ok := st.slots[base]
		if base < 0 || !ok {
			return
		}
		curLat := st.lats[slot*st.nm+i]
		cands, moves = cands[:0], moves[:0]
		propose := func(down, up int) {
			if idx := v.indexOf(cur); idx >= 0 {
				cands = append(cands, idx)
				moves = append(moves, [2]int{down, up})
			}
		}
		for e := 0; e < v.dims; e++ {
			if cur[e]+1 >= v.card[e] {
				continue
			}
			cur[e]++
			propose(-1, e)
			for d := 0; d < v.dims; d++ {
				if d == e || cur[d] == 0 {
					continue
				}
				cur[d]--
				propose(d, e)
				cur[d]++
			}
			cur[e]--
		}
		if len(cands) == 0 {
			return
		}
		slots := st.visit(cands)
		if st.err != nil {
			return
		}
		bestMove, bestLat := -1, curLat
		for j, s := range slots {
			if s < 0 || st.errs[s] != nil || !st.static[s*st.nm+i] {
				continue
			}
			if l := st.lats[s*st.nm+i]; l < bestLat {
				bestMove, bestLat = j, l
			}
		}
		if bestMove < 0 {
			return
		}
		mv := moves[bestMove]
		if mv[0] >= 0 {
			cur[mv[0]]--
		}
		cur[mv[1]]++
	}
}

// randomUnvisited returns a uniformly random point index that has not been
// scored yet. The strategies call this to break a stall: when every candidate
// a round proposes is already visited, the budget stops moving and the loop
// would otherwise spin forever. Rejection sampling terminates fast while the
// visited fraction is small (the budgeted regime); the linear fallback covers
// nearly-full spaces. Callers must ensure len(pts) < n (exhausted() does).
func (st *state) randomUnvisited() int {
	for try := 0; try < 64; try++ {
		k := st.rng.Intn(st.n)
		if _, ok := st.slots[k]; !ok {
			return k
		}
	}
	start := st.rng.Intn(st.n)
	for off := 0; off < st.n; off++ {
		k := start + off
		if k >= st.n {
			k -= st.n
		}
		if _, ok := st.slots[k]; !ok {
			return k
		}
	}
	return st.rng.Intn(st.n)
}

// neighbor proposes a coordinate-neighborhood move from point k: a ±1 step
// on one random axis, retried across axes until it lands on an admitted
// point. Falls back to a uniform random index when the space has no
// coordinate view or no valid step was found.
func (st *state) neighbor(k int) int {
	v := st.view
	if v == nil {
		return st.rng.Intn(st.n)
	}
	c := st.coordScratch
	v.coordsOf(k, c)
	for try := 0; try < 2*v.dims; try++ {
		d := st.rng.Intn(v.dims)
		dir := 1
		if st.rng.Intn(2) == 0 {
			dir = -1
		}
		nc := c[d] + dir
		if nc < 0 || nc >= v.card[d] {
			continue
		}
		old := c[d]
		c[d] = nc
		idx := v.indexOf(c)
		c[d] = old
		if idx >= 0 && idx != k {
			return idx
		}
	}
	return st.rng.Intn(st.n)
}

// trace snapshots the run's accounting.
func (st *state) trace(strategy string) Trace {
	return Trace{
		Strategy:     strategy,
		Seed:         st.seed,
		Budget:       st.budget0,
		Evaluations:  st.evals,
		CacheHits:    st.hits,
		UniquePoints: len(st.pts),
		Improvements: st.improvements,
	}
}

// finish ends the run through the sweep's own ending (dse.Selector.Conclude)
// over the visited set: the same reference check and errors, the Selector's
// feasible count under the final reference, staged refinement of the
// visited-set dominance frontier, and the union-kind materialization.
func (st *state) finish(strategy string) (dse.Result, Trace, error) {
	tr := st.trace(strategy)
	// Stage 1 reads the candidates' summaries from the scorer first;
	// dropping the state's reference frees its tables while they refine.
	sc := st.score
	st.score = nil
	res, best, area, err := st.sel.Conclude(st.ctx, sc, len(st.pts), st.fid, st.ev)
	if err != nil {
		return dse.Result{}, tr, err
	}
	tr.BestAreaMM2 = area
	tr.EvalsToWin = st.evalAt[st.slots[best]]
	return res, tr, nil
}
