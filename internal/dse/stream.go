package dse

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// ExploreStats reports how a streaming sweep behaved — the observability
// needed to assert the bounded-memory claim without guessing. A sweep of
// several targets (ExploreTargetsCtx) sums the per-target quantities — row
// and band peaks, retained bytes and winner areas — over its targets.
type ExploreStats struct {
	// Points is the number of space points swept; Models the models per point.
	Points, Models int
	// Chunks is the number of work units the sweep was split into.
	Chunks int
	// ChunkSize is the resolved chunk size.
	ChunkSize int
	// MaxRetained bounds the peak number of rows the shards hold with their
	// index and area — the staircase on one model, every slack-feasible row
	// on several: the sum of every shard's peak, tracked at each insertion,
	// an upper bound on the total at any instant. Slack-watermark pruning,
	// and on one model dominance, keep it far below Points on realistic
	// spaces.
	MaxRetained int
	// MaxBand bounds the peak number of dominated slack-feasible points the
	// one-model staircases hold as bare latency rows, which only
	// Result.Feasible counts: the sum of every shard's peak band size,
	// tracked like MaxRetained.
	MaxBand int
	// Shards is the number of per-worker reduction shards the sweep used.
	Shards int
	// RetainedBytes conservatively prices the peak retained set, the sweep's
	// only point-proportional memory: one index, one area and Models
	// latencies per held row, Models latencies per band row, 8 bytes each.
	// Priced in int64: synthetic spaces can exceed 10^8 points, where a
	// 32-bit byte product would silently wrap.
	RetainedBytes int64
	// NaiveBytes prices the eager O(points x models) summary matrix the
	// pre-streaming implementation allocated (32 bytes per ppa.Summary),
	// also in int64 for the same reason.
	NaiveBytes int64
	// TableBytes is the storage of the sweep's cost tables (ppa.Table.Bytes
	// summed over the models), counted once when its Scorer is built: 0 on
	// a space without tables. It depends on neither the worker count nor
	// the chunk size.
	TableBytes int64
	// WinnerAreaMM2 is the winner's selection area: its per-model areas
	// summed in model order, the quantity selection minimizes.
	WinnerAreaMM2 float64
}

// ExploreOptions tunes a streaming exploration. The zero value (or a nil
// pointer) gives the defaults: engine-sized chunks and analytical fidelity.
type ExploreOptions struct {
	// ChunkSize is the number of consecutive points one worker reduces before
	// refreshing its watermark snapshot. 0 picks a size that gives each
	// worker several chunks (dynamic load balancing) while keeping snapshot
	// refreshes rare. Results are identical at any value.
	ChunkSize int
	// Stats, when non-nil, receives the sweep's statistics.
	Stats *ExploreStats
	// Fidelity selects the evaluation pipeline (nil: analytical).
	Fidelity *FidelityOptions
	// Progress, when non-nil, receives cumulative scan progress after each
	// completed chunk: the number of points scanned so far and the total.
	// Calls come from the sweep's workers concurrently, so the callback must
	// be safe for concurrent use, and late chunks can report a smaller
	// cumulative count than an already-delivered one — consumers wanting a
	// monotone series should keep a running max. Progress never affects
	// selection: results are byte-identical with or without it.
	Progress func(done, total int)
}

// naiveBytes prices the eager points x models summary matrix in int64; the
// factors are multiplied after widening so a 10^8-point synthetic space does
// not overflow 32-bit int arithmetic on small platforms.
func naiveBytes(points, models int) int64 {
	return int64(points) * int64(models) * 32
}

// retainedBytes prices the peak retained set — maxRetained held rows and
// maxBand band rows — in int64.
func retainedBytes(maxRetained, maxBand, models int) int64 {
	return (int64(maxRetained)*int64(models+2) + int64(maxBand)*int64(models)) * 8
}

// row is a held row's point index and summed area; its latencies sit in the
// owning frontier's flat latency array, at the row's position times the
// stride.
type row struct {
	idx  int
	area float64
}

// before reports whether r precedes o in the (area, index) selection order.
func (r row) before(o row) bool {
	return r.area < o.area || (r.area == o.area && r.idx < o.idx)
}

// dominatesVals reports whether candidate a (area aArea, index aIdx,
// latencies aLats) makes candidate b irrelevant to the final selection: a's
// latencies are no worse for every model (so a passes the latency-slack
// filter whenever b does, for any reference latencies), and a precedes b in
// the (area, index) selection order. This is a strict partial order, so
// the rows no other row dominates include the eventual winner.
func dominatesVals(aArea float64, aIdx int, aLats []float64, bArea float64, bIdx int, bLats []float64) bool {
	if aArea > bArea || (aArea == bArea && aIdx >= bIdx) {
		return false
	}
	for i := range aLats {
		if aLats[i] > bLats[i] {
			return false
		}
	}
	return true
}

// slackOK reports whether every per-model latency meets the slack constraint
// against the given reference latencies.
func slackOK(lats, ref []float64, slack float64) bool {
	for i := range lats {
		if lats[i] > (1+slack)*ref[i] {
			return false
		}
	}
	return true
}

// frontier holds a Selector's slack-feasible rows, each as its (index, area)
// pair in rows and its stride latencies in lats, at the same position, and
// tracks the lead: the position of the min-(area, index) row, which is the
// selection's winner once the reference is final.
//
// On several models add appends, so rows sit in arrival order; the
// dominance frontier is filtered from them once, where staged selection
// reads it (skyline). On one model add keeps a staircase instead: rows in
// (area, index) order with latencies falling strictly along it, which is
// already the frontier, so the lead is its first row. A row the staircase
// drops as dominated — rejected on arrival or evicted — is still
// slack-feasible, so its latency moves to the band, bare rows that only the
// feasible count reads. add and filterSlack keep every held row in exactly
// one of the two.
//
// After the arrays have grown to the working-set size, add and filterSlack
// perform no allocations — the property the chunk-loop allocation
// regression test pins.
type frontier struct {
	stride int
	rows   []row
	lats   []float64 // the rows' latencies, stride per row
	band   []float64 // latency rows the staircase dropped, stride apart
	lead   int       // position of the min-(area, index) row, when rows is non-empty
	// peak and peakBand are the largest row and band-row counts held so far.
	peak, peakBand int
}

// init sets the per-row latency stride; it must be called before add.
func (f *frontier) init(stride int) { f.stride = stride }

// held returns the number of rows held: rows plus band rows.
func (f *frontier) held() int { return len(f.rows) + len(f.band)/f.stride }

// notePeak records the current sizes in the peaks; add calls it wherever the
// held set grows.
func (f *frontier) notePeak() {
	f.peak = max(f.peak, len(f.rows))
	f.peakBand = max(f.peakBand, len(f.band)/f.stride)
}

// reset empties the frontier and its band, keeping every backing array for
// reuse.
func (f *frontier) reset() {
	f.rows, f.lats, f.band = f.rows[:0], f.lats[:0], f.band[:0]
}

// add holds the row (idx, area, lats): on one model in the staircase, on
// several appended. lats is copied; the caller's slice may be reused. A
// point index is added at most once while the frontier holds it.
func (f *frontier) add(idx int, area float64, lats []float64) {
	r := row{idx: idx, area: area}
	if f.stride == 1 {
		f.addStair(r, lats[0])
		return
	}
	if len(f.rows) == 0 || r.before(f.rows[f.lead]) {
		f.lead = len(f.rows)
	}
	f.rows = append(f.rows, r)
	f.lats = append(f.lats, lats...)
	f.notePeak()
}

// addStair is add on one model. No held row dominates another and each
// precedes the ones after it, so each is strictly slower than the ones after
// it. Only the row just before the insertion point can then dominate the new
// one, the fastest of those that precede it; and the rows the new one
// dominates are the run at the insertion point no faster than it.
func (f *frontier) addStair(r row, lat float64) {
	pos := sort.Search(len(f.rows), func(i int) bool { return r.before(f.rows[i]) })
	if pos > 0 && !(f.lats[pos-1] > lat) {
		f.band = append(f.band, lat)
		f.notePeak()
		return
	}
	end := pos
	for end < len(f.rows) && !(lat > f.lats[end]) {
		end++
	}
	f.band = append(f.band, f.lats[pos:end]...)
	f.rows = slices.Replace(f.rows, pos, end, r)
	f.lats = slices.Replace(f.lats, pos, end, lat)
	f.lead = 0
	f.notePeak()
}

// absorb adds o's rows to f in o's order and appends o's band rows to f's
// band.
func (f *frontier) absorb(o *frontier) {
	for i, r := range o.rows {
		f.add(r.idx, r.area, o.lats[i*o.stride:(i+1)*o.stride])
	}
	f.band = append(f.band, o.band...)
}

// filterSlack drops rows and band rows whose latencies fail the slack
// constraint against ref, and finds the lead among the rows it keeps. Order
// is preserved. Safe whenever ref is everywhere >= the final reference
// latencies (watermark monotonicity): a row failing slack against ref also
// fails the final pass.
func (f *frontier) filterSlack(ref []float64, slack float64) {
	w, d := 0, f.stride
	for i, r := range f.rows {
		if lats := f.lats[i*d : (i+1)*d]; slackOK(lats, ref, slack) {
			if w == 0 || r.before(f.rows[f.lead]) {
				f.lead = w
			}
			f.rows[w] = r
			copy(f.lats[w*d:], lats)
			w++
		}
	}
	f.rows, f.lats = f.rows[:w], f.lats[:w*d]
	w = 0
	for r := 0; r < len(f.band); r += d {
		if lats := f.band[r : r+d]; slackOK(lats, ref, slack) {
			w += copy(f.band[w:], lats)
		}
	}
	f.band = f.band[:w]
}

// skylineBlock is the number of rows skyline filters between checks of its
// context.
const skylineBlock = 256

// skyline returns the held rows no other held row dominates, in (area,
// index) selection order: it sorts the rows into that order and keeps each
// row no kept row dominates, trying the kept rows newest first, since a
// dominator tends to sit close in area. Dominance is transitive and every
// dropped row is dominated by a kept one, so no held row dominates a kept
// row. It stops with ctx.Err() at the first block of rows it finds ctx done
// before.
func (f *frontier) skyline(ctx context.Context) ([]row, error) {
	d := f.stride
	order := make([]int, len(f.rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if f.rows[a].before(f.rows[b]) {
			return -1
		}
		return 1
	})
	var kept []int
	for n, p := range order {
		if n%skylineBlock == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r, lats := f.rows[p], f.lats[p*d:(p+1)*d]
		dominated := false
		for k := len(kept) - 1; k >= 0 && !dominated; k-- {
			q := kept[k]
			dominated = dominatesVals(f.rows[q].area, f.rows[q].idx, f.lats[q*d:(q+1)*d], r.area, r.idx, lats)
		}
		if !dominated {
			kept = append(kept, p)
		}
	}
	out := make([]row, len(kept))
	for i, p := range kept {
		out[i] = f.rows[p]
	}
	return out, nil
}

// atomicMinFloat lowers the watermark cell to v when v is smaller, via a CAS
// loop on the float's bits. Cells only ever decrease — the monotonicity that
// makes lock-free snapshot reads safe to prune against (DESIGN.md §8).
func atomicMinFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// sweepState is the read-mostly shared state of one streaming exploration:
// the Scorer of every model the sweep scores, its targets, and the lock-free
// slack watermark (per-model float bits, min-only updates). A target is one
// selection the sweep makes: a list of indices into the Scorer's models.
type sweepState struct {
	ctx     context.Context
	score   *Scorer
	targets [][]int
	nm, n   int             // models per point, points in the space
	wmBits  []atomic.Uint64 // per-model slack watermark; only ever decreases
	scanned atomic.Int64    // cumulative points scanned (progress reporting)
}

// newSweepState builds the shared sweep state with the watermark at +Inf.
func newSweepState(ctx context.Context, score *Scorer, targets [][]int) *sweepState {
	nm := len(score.models)
	sw := &sweepState{
		ctx: ctx, score: score, targets: targets, nm: nm, n: score.space.Len(),
		wmBits: make([]atomic.Uint64, nm),
	}
	inf := math.Float64bits(math.Inf(1))
	for i := range sw.wmBits {
		sw.wmBits[i].Store(inf)
	}
	return sw
}

// exploreShard is one worker's persistent reduction state: one shardTarget
// per target, plus reusable scratch: the chunk's scores with the projection
// every target's rows pass through, and the chunk's per-model reference.
// Shards never share mutable state, so the chunk loop takes no locks; they
// merge once per target, after the sweep.
type exploreShard struct {
	sw    *sweepState
	tgts  []shardTarget
	ref   []float64
	chunk *scores // the current chunk's scores, from scoresPool
}

// shardTarget is a shard's reduction of one target: a Selector — the
// shard's slack-feasible observations of the target and its slack
// reference — and the lowest failing point the shard saw, with its error.
type shardTarget struct {
	sel    *Selector
	errIdx int
	err    error
}

// newExploreShard builds a shard for the sweep, with every reference at
// +Inf.
func newExploreShard(sw *sweepState) *exploreShard {
	sh := &exploreShard{
		sw:    sw,
		tgts:  make([]shardTarget, len(sw.targets)),
		ref:   make([]float64, sw.nm),
		chunk: scoresPool.Get().(*scores),
	}
	for t, target := range sw.targets {
		sh.tgts[t] = shardTarget{sel: NewSelector(len(target), sw.score.cons), errIdx: sw.n}
	}
	return sh
}

// projection is one target's rows of a chunk in the layout
// Selector.ObserveBatch reads: per point, the target's per-model areas
// summed in target order and the first error among its models in target
// order; per (point, target model), point-major, the latency and the static
// flag; and the chunk's reference for the target's models. A shard passes
// every target through its chunk's one projection, so the buffers settle at
// the chunk size times the largest target.
type projection struct {
	area   []float64
	lat    []float64
	static []bool
	err    []error
	ref    []float64
}

// project fills p with target's rows of b, a chunk scored for m models, and
// its reference from ref, the chunk's per-model one. It returns the rows'
// errors, or nil when no cell of b failed. A row's area adds the same
// floats in the same order as a Scorer of the target's models adds them, so
// it is bit-identical to that scorer's.
func (p *projection) project(target []int, b *scores, m int, ref []float64) []error {
	n, mt := len(b.idx), len(target)
	p.area, p.ref = grow(p.area, n), grow(p.ref, mt)
	p.lat, p.static = grow(p.lat, n*mt), grow(p.static, n*mt)
	for q, i := range target {
		p.ref[q] = ref[i]
	}
	for j := range p.area {
		area := 0.0
		for q, i := range target {
			x := j*m + i
			area += b.area[x]
			p.lat[j*mt+q], p.static[j*mt+q] = b.lat[x], b.static[x]
		}
		p.area[j] = area
	}
	if !b.failed {
		return nil
	}
	p.err = grow(p.err, n)
	for j := range p.err {
		p.err[j] = nil
		for _, i := range target {
			if err := b.err[j*m+i]; err != nil {
				p.err[j] = err
				break
			}
		}
	}
	return p.err
}

// scanChunk reduces points [lo, hi) into every target's Selector of the
// shard: the Scorer scores the whole chunk for every model once into the
// shard's buffers, and each target's Selector observes its projection of
// the chunk as one batch. The chunk's per-model reference is the global
// watermark, read once at chunk start (lock-free atomic loads), lowered to
// the chunk's statically feasible per-model minima; each Selector lowers its
// reference to the target's part of it — one re-filter of its held rows at
// most — then adds the rows that pass slack, and the reference is published
// once at chunk end. So the chunk itself synchronizes with nothing, and once
// the first chunk has sized the buffers and the next few have warmed the
// frontiers' backing arrays, a steady-state chunk performs no allocations
// (pinned by TestExploreChunkLoopAllocFree).
//
// Safety of every prune rests on one monotonicity argument: watermark cells
// and the shards' references only ever decrease, and both are everywhere >=
// the final per-model references of every target that does not fail. A
// model's reference does not depend on the target: it is the minimum of the
// model's latency over the points where the model is statically feasible,
// and a target that does not fail observes every point. A row failing slack
// against any such intermediate reference therefore also fails the final
// pass — dropping it early is safe, and keeping it (a stale snapshot) only
// defers the drop. A failing target reports its error, never its selection.
func (sh *exploreShard) scanChunk(lo, hi int) {
	sw := sh.sw
	// Cancellation gate: a cancelled sweep stops at chunk granularity — the
	// chunk cap (<= 512 points) bounds how much work runs after the cancel
	// signal, so server-side cancellation is prompt even on 10^8-point
	// spaces. The partial reduction state is discarded by the caller (the
	// sweep returns ctx.Err()), so skipping chunks cannot skew results.
	if sw.ctx.Err() != nil {
		return
	}
	b := sh.chunk
	sw.score.sizeScores(b, hi-lo)
	sw.score.scoreRange(lo, b)
	m := sw.nm
	for i := range sh.ref {
		sh.ref[i] = math.Float64frombits(sw.wmBits[i].Load())
	}
	// A failed cell's entries are stale, but only the targets naming its
	// model read that model's reference, and each of them fails.
	for j := range b.idx {
		for i, l := range b.lat[j*m : (j+1)*m] {
			if b.static[j*m+i] && l < sh.ref[i] {
				sh.ref[i] = l
			}
		}
	}
	for t, target := range sw.targets {
		p, st := &b.proj, &sh.tgts[t]
		errs := p.project(target, b, m, sh.ref)
		// A failing row is never observed: the lowest-index error fails the
		// target at merge.
		for j, err := range errs {
			if err != nil {
				if lo+j < st.errIdx {
					st.errIdx, st.err = lo+j, err
				}
				break
			}
		}
		st.sel.lowerTo(p.ref)
		st.sel.ObserveBatch(b.idx, p.area, p.lat, p.static, errs)
	}
	// Publish the chunk's reference so other shards' next snapshots prune
	// harder.
	for i, v := range sh.ref {
		atomicMinFloat(&sw.wmBits[i], v)
	}
}

// scan sweeps the whole space in chunks of at most chunk points on the
// engine's workers, each worker reducing into its own shard, and returns the
// shards (nil for a worker that claimed no chunk). progress, when non-nil,
// receives the cumulative scan count after each chunk.
func (sw *sweepState) scan(ev *eval.Evaluator, chunk int, progress func(done, total int)) []*exploreShard {
	shards := make([]*exploreShard, ev.Workers())
	ev.ForEachChunkWorker(sw.n, chunk, func(worker, lo, hi int) {
		if shards[worker] == nil {
			shards[worker] = newExploreShard(sw)
		}
		shards[worker].scanChunk(lo, hi)
		if progress != nil {
			progress(int(sw.scanned.Add(int64(hi-lo))), sw.n)
		}
	})
	for _, sh := range shards {
		if sh != nil {
			scoresPool.Put(sh.chunk)
			sh.chunk = nil
		}
	}
	return shards
}

// merge folds target t's Selectors of the shards into one after the scan,
// in any shard order, and returns it with the target's error at the lowest
// point index, if any, as a serial scan would fail. It records the shard
// count and the shards' peak row and band counts in stats. Phase 1: the
// final per-model references are the exact min over every shard's reference
// (pure comparisons, so order-independent; every watermark value a shard
// folded in is some shard's chunk minimum, so this is the min over every
// statically feasible observation). Phase 2: the first shard's Selector is
// lowered to them and absorbs every other shard's (Selector.absorb), which
// lowers that one to them too — on several models an append, linear in the
// rows held. Lowering drops exactly a shard's rows that fail the final slack
// pass, so the merged Selector holds every slack-feasible point once —
// Feasible() is Result.Feasible — and its lead is the winner: that point
// passes slack against the final, tightest reference, so no shard dropped
// it, and on one model no staircase did either, since a row that dominates
// it would precede it in selection order and pass slack whenever it does.
// Nil shards are skipped; at least one must be non-nil.
func (sw *sweepState) merge(t int, shards []*exploreShard, stats *ExploreStats) (*Selector, error) {
	var sel *Selector
	var err error
	ref := make([]float64, len(sw.targets[t]))
	errIdx := sw.n
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		st := &sh.tgts[t]
		stats.Shards++
		stats.MaxRetained += st.sel.front.peak
		stats.MaxBand += st.sel.front.peakBand
		if sel == nil {
			sel = st.sel
			copy(ref, sel.best)
		}
		for i, v := range st.sel.best {
			ref[i] = min(ref[i], v)
		}
		if st.err != nil && st.errIdx < errIdx {
			errIdx, err = st.errIdx, st.err
		}
	}
	sel.lowerTo(ref)
	for _, sh := range shards {
		if sh != nil && sh.tgts[t].sel != sel {
			sel.absorb(sh.tgts[t].sel)
		}
	}
	return sel, err
}

// conclude ends every target of a finished scan into index-addressed slots:
// its Result, its error and its statistics. First each target's shards
// merge and the merged Selector settles (Selector.settle), which under
// staged fidelity reads the target's stage-1 candidates from the Scorer.
// Then the sweep drops the Scorer, so its cost tables are freed before any
// target refines (DESIGN.md §10), and the targets finish — stage 1, then
// the winner's materialization. Both passes run the targets on the engine's
// workers; no target reads another's state, so every slot is the same at
// any worker count.
func (sw *sweepState) conclude(shards []*exploreShard, fo *FidelityOptions, ev *eval.Evaluator) ([]Result, []error, []ExploreStats) {
	nt := len(sw.targets)
	res, errs, stats := make([]Result, nt), make([]error, nt), make([]ExploreStats, nt)
	ends := make([]*ending, nt)
	ev.ForEach(nt, func(t int) {
		sel, err := sw.merge(t, shards, &stats[t])
		if err == nil {
			ends[t], err = sel.settle(sw.ctx, sw.score.view(sw.targets[t]), sw.n, fo)
		}
		errs[t] = err
	})
	// The shards still reference the sweep state, so drop its Scorer here.
	sw.score = nil
	ev.ForEach(nt, func(t int) {
		if ends[t] != nil {
			res[t], _, stats[t].WinnerAreaMM2, errs[t] = ends[t].finish(sw.ctx, fo, ev)
		}
	})
	return res, errs, stats
}

// ExploreSpaceCtx is the streaming core of Algorithm 1's configuration
// selection — lines 1-8 for one model (the custom configuration C_i), lines
// 9-13 for several (the generic C_g and library C_k configurations): a
// chunked sweep over a lazily indexed design space, selecting one
// configuration for all of models. It is ExploreTargetsCtx's one-target
// case, with the one target naming every model in order. A nil opts
// selects defaults; ctx and ev must be non-nil.
func ExploreSpaceCtx(ctx context.Context, models []*workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator, opts *ExploreOptions) (Result, error) {
	target := make([]int, len(models))
	for i := range target {
		target[i] = i
	}
	res, errs := ExploreTargetsCtx(ctx, models, [][]int{target}, space, cons, ev, opts)
	return res[0], errs[0]
}

// ExploreTargetsCtx sweeps space once for models and selects one
// configuration per target, a target being a list of indices into models:
// its Result and error are what ExploreSpaceCtx returns for the models it
// names, in its order, byte for byte. Algorithm 1's selections differ only
// in which networks' latencies and areas they read, so one sweep serves
// them all. Workers own one reduction shard each — a Selector per target
// plus reusable scratch — and claim contiguous chunks dynamically. Each
// chunk is scored once for every model, through a Scorer: from per-model
// cost tables built when the sweep starts and dropped before any target
// refines, or with the per-point kernel on spaces without tables; only the
// winners' full evaluations enter the engine's result cache. Each target's
// Selector then observes the target's projection of the chunk: its models'
// latencies and static flags, and their areas summed in the target's order.
// The only cross-worker state during the sweep is the per-model slack
// watermark, an array of monotonically decreasing atomics read without
// locking, which every target shares because a model's reference does not
// depend on the other models. Each target's shards merge into one Selector
// exactly once, after the last chunk, and each target ends in its Selector's
// conclusion, as budgeted search does. Memory stays O(slack-feasible points
// + chunk) per target instead of the eager implementation's O(points x
// models) summary matrix, and the chunk loop is lock- and allocation-free,
// so the sweep scales with cores. The merge's final slack pass over what the
// shards hold reproduces the eager two-pass selection and its feasible count
// byte for byte at any worker count and chunk size (see DESIGN.md §8 for the
// argument).
//
// A model that fails to score a point fails only the targets that name it:
// a target's error is its lowest failing point's, from the first model
// failing there in target order. An empty target fails every target with
// "dse: no models"; an index outside models is a caller's bug. The chunk
// loop checks ctx at every chunk boundary, so a cancelled sweep stops
// within one chunk (<= 512 points per worker) and every target returns
// ctx.Err(). The ending checks it again once every target has concluded,
// so a run either completes before ctx is done, byte-identical to an
// uncancelled one — the context is consulted, never folded into selection —
// or returns ctx.Err() for every target. ctx and ev must be non-nil; a nil
// opts selects defaults. opts.Stats, when non-nil, receives the sweep's
// statistics once every target has succeeded, with each target's row and
// band peaks, retained bytes and winner area summed over the targets.
func ExploreTargetsCtx(ctx context.Context, models []*workload.Model, targets [][]int, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator, opts *ExploreOptions) ([]Result, []error) {
	fail := func(err error) ([]Result, []error) {
		errs := make([]error, len(targets))
		for t := range errs {
			errs[t] = err
		}
		return make([]Result, len(targets)), errs
	}
	for _, target := range targets {
		if len(target) == 0 {
			return fail(fmt.Errorf("dse: no models"))
		}
	}
	if space == nil || space.Len() == 0 {
		return fail(fmt.Errorf("dse: empty design space"))
	}
	if err := cons.Validate(); err != nil {
		return fail(err)
	}
	var o ExploreOptions
	if opts != nil {
		o = *opts
	}
	n := space.Len()
	chunk := o.ChunkSize
	if chunk <= 0 {
		// Several chunks per worker for load balancing, capped so chunk-local
		// state stays small on huge spaces.
		chunk = (n + 8*ev.Workers() - 1) / (8 * ev.Workers())
		if chunk > 512 {
			chunk = 512
		}
		if chunk < 1 {
			chunk = 1
		}
	}
	sc := NewScorer(ev, models, space, cons)
	sw := newSweepState(ctx, sc, targets)
	shards := sw.scan(ev, chunk, o.Progress)
	// A cancelled sweep has skipped chunks, so its shard state is partial and
	// must not be merged into a result.
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	results, errs, stats := sw.conclude(shards, o.Fidelity, ev)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if o.Stats != nil && !slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		all := ExploreStats{Points: n, Models: len(models), Chunks: (n + chunk - 1) / chunk, ChunkSize: chunk,
			NaiveBytes: naiveBytes(n, len(models)), TableBytes: sc.tableBytes}
		for t, st := range stats {
			all.Shards = st.Shards
			all.MaxRetained += st.MaxRetained
			all.MaxBand += st.MaxBand
			all.RetainedBytes += retainedBytes(st.MaxRetained, st.MaxBand, len(targets[t]))
			all.WinnerAreaMM2 += st.WinnerAreaMM2
		}
		*o.Stats = all
	}
	return results, errs
}
