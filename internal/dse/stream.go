package dse

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// ExploreStats reports how a streaming sweep behaved — the observability
// needed to assert the bounded-memory claim without guessing.
type ExploreStats struct {
	// Points is the number of space points swept; Models the models per point.
	Points, Models int
	// Chunks is the number of work units the sweep was split into.
	Chunks int
	// ChunkSize is the resolved chunk size.
	ChunkSize int
	// MaxRetained bounds the peak size (in points) of the dominance
	// frontiers: the sum of every shard's peak frontier size, tracked at each
	// insertion, an upper bound on the frontier total at any instant.
	// Dominance and slack-watermark pruning keep it far below Points on
	// realistic spaces.
	MaxRetained int
	// MaxBand bounds the peak number of dominated slack-feasible points the
	// shards hold as bare latency rows, which only Result.Feasible counts:
	// the sum of every shard's peak band size, tracked like MaxRetained.
	MaxBand int
	// Retained is the merged survivor count when the sweep finished.
	Retained int
	// Shards is the number of per-worker reduction shards the sweep used.
	Shards int
	// RetainedBytes conservatively prices the peak retained set, the sweep's
	// only point-proportional memory: one index, one area and Models
	// latencies per frontier candidate, Models latencies per band row, 8
	// bytes each. Priced in int64: synthetic spaces can exceed 10^8 points,
	// where a 32-bit byte product would silently wrap.
	RetainedBytes int64
	// NaiveBytes prices the eager O(points x models) summary matrix the
	// pre-streaming implementation allocated (32 bytes per ppa.Summary),
	// also in int64 for the same reason.
	NaiveBytes int64
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

// retainedBytes prices the peak retained set — maxRetained frontier
// candidates and maxBand band rows — in int64.
func retainedBytes(maxRetained, maxBand, models int) int64 {
	return (int64(maxRetained)*int64(models+2) + int64(maxBand)*int64(models)) * 8
}

// candidate is the compact per-point record a frontier retains: the point
// index, its summed area, and the offset of its per-model latencies in the
// owning frontier's flat backing array — everything the final slack pass and
// min-area selection need, nothing else. Latencies live out-of-line so
// retaining a candidate never allocates (see frontier).
type candidate struct {
	idx  int
	area float64
	off  int
}

// dominatesVals reports whether candidate a (area aArea, index aIdx,
// latencies aLats) makes candidate b irrelevant to the final selection: a's
// latencies are no worse for every model (so a passes the latency-slack
// filter whenever b does, for any reference latencies), and a precedes b in
// the (area, index) selection order. This is a strict partial order, so
// pruning dominated candidates — in any order, from any subset, on any shard
// — can never remove the eventual winner.
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

// frontier is a dominance-pruned candidate set ordered by ascending area
// (ties by index) — the same order selection uses, which makes both pruning
// directions one partial scan: nothing past a candidate's insertion point can
// dominate it, and nothing before it can be dominated by it.
//
// Candidates the frontier drops as dominated — rejected on arrival or
// evicted — are still slack-feasible, so their latency rows move to the band,
// a flat array of bare rows that only the feasible count reads; add and
// filterSlack keep every row in exactly one of the two.
//
// Candidate latencies live in one flat backing array (stride = number of
// models); each candidate stores an offset, and slots of evicted candidates
// are recycled through a free list. After the backing arrays have grown to
// the frontier's working-set size, add/filter/evict perform no allocations —
// the property the chunk-loop allocation regression test pins.
type frontier struct {
	stride int
	cands  []candidate
	lats   []float64
	free   []int
	band   []float64 // latency rows of dominated candidates, stride apart
	// peak and peakBand are the largest candidate and band-row counts held
	// so far.
	peak, peakBand int
}

// init sets the per-candidate latency stride; it must be called before add.
func (f *frontier) init(stride int) { f.stride = stride }

// latsOf returns the candidate's latency row in the backing array.
func (f *frontier) latsOf(c *candidate) []float64 {
	return f.lats[c.off : c.off+f.stride]
}

// held returns the number of rows held: candidates plus band rows.
func (f *frontier) held() int { return len(f.cands) + len(f.band)/f.stride }

// notePeak records the current sizes in the peaks; add calls it wherever the
// held set grows.
func (f *frontier) notePeak() {
	f.peak = max(f.peak, len(f.cands))
	f.peakBand = max(f.peakBand, len(f.band)/f.stride)
}

// reset empties the frontier and its band, keeping every backing array for
// reuse.
func (f *frontier) reset() {
	f.cands = f.cands[:0]
	f.lats = f.lats[:0]
	f.free = f.free[:0]
	f.band = f.band[:0]
}

// add inserts the candidate (idx, area, lats) unless a retained candidate
// dominates it, and evicts retained candidates it dominates; dominated rows
// go to the band. lats is copied; the caller's slice may be reused.
func (f *frontier) add(idx int, area float64, lats []float64) {
	// Position of the first candidate ordered after the new one.
	pos := sort.Search(len(f.cands), func(i int) bool {
		fc := &f.cands[i]
		return fc.area > area || (fc.area == area && fc.idx > idx)
	})
	for i := 0; i < pos; i++ {
		fc := &f.cands[i]
		if dominatesVals(fc.area, fc.idx, f.latsOf(fc), area, idx, lats) {
			f.band = append(f.band, lats...)
			f.notePeak()
			return
		}
	}
	// Evict candidates dominated by the new one in place; they all sit at or
	// after pos. Their rows go to the band, their latency slots to the free
	// list.
	w := pos
	for i := pos; i < len(f.cands); i++ {
		fc := &f.cands[i]
		if dominatesVals(area, idx, lats, fc.area, fc.idx, f.latsOf(fc)) {
			f.band = append(f.band, f.latsOf(fc)...)
			f.free = append(f.free, fc.off)
		} else {
			f.cands[w] = f.cands[i]
			w++
		}
	}
	f.cands = f.cands[:w]
	// Claim a latency slot: recycle a freed one, else extend the backing
	// array (append copies lats directly into the new tail).
	var off int
	if n := len(f.free); n > 0 {
		off = f.free[n-1]
		f.free = f.free[:n-1]
		copy(f.lats[off:off+f.stride], lats)
	} else {
		off = len(f.lats)
		f.lats = append(f.lats, lats...)
	}
	// Insert at the ordered position.
	f.cands = append(f.cands, candidate{})
	copy(f.cands[pos+1:], f.cands[pos:])
	f.cands[pos] = candidate{idx: idx, area: area, off: off}
	f.notePeak()
}

// filterSlack drops candidates and band rows whose latencies fail the slack
// constraint against ref, recycling the candidates' latency slots. Order is
// preserved. Safe whenever ref is everywhere >= the final reference
// latencies (watermark monotonicity): a row failing slack against ref also
// fails the final pass.
func (f *frontier) filterSlack(ref []float64, slack float64) {
	w := 0
	for i := range f.cands {
		fc := &f.cands[i]
		if slackOK(f.latsOf(fc), ref, slack) {
			f.cands[w] = f.cands[i]
			w++
		} else {
			f.free = append(f.free, fc.off)
		}
	}
	f.cands = f.cands[:w]
	w = 0
	for r := 0; r < len(f.band); r += f.stride {
		if row := f.band[r : r+f.stride]; slackOK(row, ref, slack) {
			w += copy(f.band[w:], row)
		}
	}
	f.band = f.band[:w]
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
// the scorer and the lock-free slack watermark (per-model float bits,
// min-only updates).
type sweepState struct {
	ctx     context.Context
	score   *Scorer
	nm, n   int             // models per point, points in the space
	wmBits  []atomic.Uint64 // per-model slack watermark; only ever decreases
	scanned atomic.Int64    // cumulative points scanned (progress reporting)
}

// newSweepState builds the shared sweep state with the watermark at +Inf.
func newSweepState(ctx context.Context, score *Scorer) *sweepState {
	nm := len(score.models)
	sw := &sweepState{
		ctx: ctx, score: score, nm: nm, n: score.space.Len(),
		wmBits: make([]atomic.Uint64, nm),
	}
	inf := math.Float64bits(math.Inf(1))
	for i := range sw.wmBits {
		sw.wmBits[i].Store(inf)
	}
	return sw
}

// exploreShard is one worker's persistent reduction state: a Selector — the
// shard's slack-feasible observations and its slack reference, the min of
// the global watermark snapshots and the shard's own observations — plus
// reusable scratch, the chunk's scores among it. Shards never share mutable
// state, so the chunk loop takes no locks; they merge once, after the sweep.
type exploreShard struct {
	sw     *sweepState
	sel    *Selector
	snap   []float64 // watermark snapshot scratch
	chunk  *scores   // the current chunk's scores, from scoresPool
	errIdx int       // lowest failing point index seen by this shard
	err    error
}

// newExploreShard builds a shard for the sweep, with its reference at +Inf.
func newExploreShard(sw *sweepState) *exploreShard {
	m := sw.nm
	return &exploreShard{
		sw:     sw,
		sel:    NewSelector(m, sw.score.cons),
		snap:   make([]float64, m),
		chunk:  scoresPool.Get().(*scores),
		errIdx: sw.n,
	}
}

// scanChunk reduces points [lo, hi) into the shard's Selector, a chunk at a
// time: the Scorer scores the whole chunk into the shard's buffers, and the
// Selector observes it as one batch — one reference update, at most one
// re-filter of the held rows, then the chunk's rows that pass slack. The
// global watermark is read once at chunk start (lock-free atomic loads) and
// the shard's reference is published once at chunk end, so the chunk itself
// synchronizes with nothing; once the first chunk has sized the buffers and
// the next few have warmed the frontier's backing arrays, a steady-state
// chunk performs no allocations (pinned by TestExploreChunkLoopAllocFree).
//
// Safety of every prune rests on one monotonicity argument: watermark cells
// and the shard's reference only ever decrease, and both are everywhere >=
// the final per-model references. A row failing slack against any such
// intermediate reference therefore also fails the final pass — dropping it
// early is safe, and keeping it (a stale snapshot) only defers the drop.
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
	for i := range sh.snap {
		sh.snap[i] = math.Float64frombits(sw.wmBits[i].Load())
	}
	sh.sel.lowerTo(sh.snap)
	b := sh.chunk
	sw.score.sizeScores(b, hi-lo)
	sw.score.scoreRange(lo, b)
	for j := range b.idx {
		b.idx[j] = lo + j
	}
	// A failing point is never observed: the lowest-index error fails the
	// whole sweep at merge.
	for j, err := range b.err {
		if err != nil {
			if lo+j < sh.errIdx {
				sh.errIdx, sh.err = lo+j, err
			}
			break
		}
	}
	sh.sel.ObserveBatch(b.idx, b.area, b.lat, b.static, b.err)
	// Publish this shard's reference so other shards' next snapshots prune
	// harder.
	for i, v := range sh.sel.best {
		atomicMinFloat(&sw.wmBits[i], v)
	}
}

// merge folds the shards into one Selector after the scan, in any shard
// order, and returns it with the evaluation error at the lowest point index,
// if any, as a serial scan would fail. It records the shard count and the
// shards' peak frontier and band sizes in stats. Phase 1: the final
// per-model references are the exact min over every shard's reference (pure
// comparisons, so order-independent; every watermark value a shard folded
// in is itself some shard's own minimum, so this is the min over every
// statically feasible observation). Phase 2: the first shard's Selector is
// lowered to them and absorbs every other shard (Selector.absorb), which
// lowers that shard to them too. Lowering drops exactly a shard's rows that
// fail the final slack pass, so the merged Selector holds every
// slack-feasible point once — Feasible() is Result.Feasible — and its
// frontier contains the winner: that point can be neither dominated (its
// dominator would precede it in selection order and pass slack whenever it
// does) nor watermark-dropped (it passes slack against the final, tightest
// reference). Nil shards are skipped; at least one must be non-nil.
func (sw *sweepState) merge(shards []*exploreShard, stats *ExploreStats) (*Selector, error) {
	var sel *Selector
	var err error
	ref := make([]float64, sw.nm)
	errIdx := sw.n
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		stats.Shards++
		stats.MaxRetained += sh.sel.front.peak
		stats.MaxBand += sh.sel.front.peakBand
		if sel == nil {
			sel = sh.sel
			copy(ref, sel.best)
		}
		for i, v := range sh.sel.best {
			ref[i] = min(ref[i], v)
		}
		if sh.err != nil && sh.errIdx < errIdx {
			errIdx, err = sh.errIdx, sh.err
		}
	}
	sel.lowerTo(ref)
	for _, sh := range shards {
		if sh != nil && sh.sel != sel {
			sel.absorb(sh.sel)
		}
	}
	return sel, err
}

// ExploreSpaceCtx is the streaming core of Algorithm 1's configuration
// selection — lines 1-8 for one model (the custom configuration C_i), lines
// 9-13 for several (the generic C_g and library C_k configurations): a
// chunked sweep over a lazily indexed design space. Workers own one
// reduction shard each — a Selector (the same reduction budgeted search
// uses) plus reusable scratch — and claim contiguous chunks dynamically. The
// only cross-worker state during the sweep is the per-model slack watermark,
// an array of monotonically decreasing atomics read without locking; shards
// merge into one Selector exactly once, after the last chunk, and the sweep
// ends in Selector.Conclude, as budgeted search does. Each (point, model)
// pair is scored exactly once, through a Scorer: from per-model cost tables
// built when the sweep starts and dropped when it ends, or with the
// per-point kernel on spaces without tables; only the winner's full
// evaluations enter the engine's result cache. Memory stays O(slack-feasible points + chunk)
// instead of the eager implementation's O(points x models) summary matrix,
// and the chunk loop is lock- and allocation-free, so the sweep scales with
// cores. Every sweep scans the whole space, and the merge's final slack pass
// over what the shards hold reproduces the eager two-pass selection and its
// feasible count byte for byte at any worker count and chunk size (see
// DESIGN.md §8 for the argument).
//
// The chunk loop checks ctx at every chunk boundary (not just between
// phases), so a cancelled sweep stops within one chunk (<= 512 points per
// worker) and returns ctx.Err(); a run that completes is byte-identical to
// an uncancelled one — the context is consulted, never folded into
// selection. A nil ctx means context.Background(), a nil opts selects
// defaults, and a nil engine selects the shared one.
func ExploreSpaceCtx(ctx context.Context, models []*workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator, opts *ExploreOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(models) == 0 {
		return Result{}, fmt.Errorf("dse: no models")
	}
	if space == nil || space.Len() == 0 {
		return Result{}, fmt.Errorf("dse: empty design space")
	}
	if err := cons.Validate(); err != nil {
		return Result{}, err
	}
	if ev == nil {
		ev = eval.Shared()
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
	sw := newSweepState(ctx, NewScorer(ev, models, space, cons))
	shards := make([]*exploreShard, ev.Workers())
	ev.ForEachChunkWorker(n, chunk, func(worker, lo, hi int) {
		if shards[worker] == nil {
			shards[worker] = newExploreShard(sw)
		}
		shards[worker].scanChunk(lo, hi)
		if o.Progress != nil {
			o.Progress(int(sw.scanned.Add(int64(hi-lo))), n)
		}
	})
	for _, sh := range shards {
		if sh != nil {
			scoresPool.Put(sh.chunk)
		}
	}

	// A cancelled sweep has skipped chunks, so its shard state is partial and
	// must not be merged into a result.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	stats := ExploreStats{Points: n, Models: len(models), Chunks: (n + chunk - 1) / chunk, ChunkSize: chunk}
	sel, err := sw.merge(shards, &stats)
	if err != nil {
		return Result{}, err
	}
	stats.Retained = len(sel.front.cands)
	stats.RetainedBytes = retainedBytes(stats.MaxRetained, stats.MaxBand, len(models))
	stats.NaiveBytes = naiveBytes(n, len(models))
	// Nothing here reads the sweep state again, so under staged fidelity the
	// Scorer's tables are freed once stage 1 has read its candidates
	// (DESIGN.md §10).
	res, _, area, err := sel.Conclude(ctx, sw.score, n, o.Fidelity, ev)
	if err != nil {
		return Result{}, err
	}
	if o.Stats != nil {
		stats.WinnerAreaMM2 = area
		*o.Stats = stats
	}
	return res, nil
}
