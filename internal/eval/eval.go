// Package eval provides CLAIRE's shared evaluation engine: a worker-pool
// executor that fans (model × configuration) evaluations out over up to
// GOMAXPROCS goroutines, backed by a two-level concurrency-safe cache. The
// lower level memoizes one ppa.ModelPlan per model (the precomputed
// layer-granular cost plans); the upper level memoizes the full per-layer
// ppa.Eval per (model fingerprint, configuration, batch). Sweeps and searches
// score their points from the plans (per-sweep cost tables or the per-point
// kernel, see dse.Scorer) and never enter the upper level; it holds only the
// designs that get built — sweep winners, library and assignment designs —
// so its size grows with the designs a process builds, not with the points
// it scores.
//
// Determinism contract: the engine only parallelizes pure per-(model,
// configuration) evaluations and callers collect results by index, never by
// goroutine arrival order, so results are bit-identical regardless of worker
// count. Cached *ppa.Eval values are shared between callers and must be
// treated as immutable.
package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// Options configures an Evaluator.
type Options struct {
	// Workers is the number of evaluation goroutines: 0 (the default) means
	// GOMAXPROCS, 1 forces the legacy serial path. Results are identical at
	// any setting.
	Workers int
}

// Stats is a snapshot of the result cache's counters: lookups of full
// evaluations (Evaluate, EvaluateBatch).
type Stats struct {
	Hits    uint64 // lookups served from (or coalesced onto) an existing entry
	Misses  uint64 // lookups that created a new entry and computed it
	Entries int    // distinct (model, configuration, batch) keys cached
}

// HitRate returns the fraction of lookups served from cache (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one memoized (model, configuration, batch) full evaluation; the
// sync.Once coalesces concurrent first lookups onto a single computation.
type entry struct {
	once sync.Once
	eval *ppa.Eval
	err  error
}

// cacheKey is the comparable cache key: the model fingerprint plus every
// hw.Config field that influences ppa evaluation, with the canonical
// (ascending, duplicate-free) unit lists folded into bitmasks so key
// construction allocates nothing. Non-canonical configurations fall back to
// the rendered ConfigKey string in extra, keeping the key collision-free for
// arbitrary inputs.
type cacheKey struct {
	fp      string
	cat     string // catalogue fingerprint: cross-catalogue results never collide
	point   hw.Point
	prec    hw.Precision
	batch   int
	acts    uint32
	pools   uint32
	flatten bool
	permute bool
	extra   string
}

// keyFor builds the cache key for one lookup. The catalogue fingerprint is
// memoized inside the catalogue, so the hot path costs one atomic load; a nil
// Cat resolves to the default catalogue's fingerprint, so explicitly
// attaching the default catalogue shares cache with the zero-config path.
func (ev *Evaluator) keyFor(m *workload.Model, c hw.Config, batch int) cacheKey {
	k := cacheKey{
		fp: ev.Fingerprint(m), cat: c.Catalogue().Fingerprint(),
		point: c.Point, prec: c.Precision, batch: batch,
		flatten: c.Flatten, permute: c.Permute,
	}
	if ascending(c.Acts) && ascending(c.Pools) {
		for _, u := range c.Acts {
			k.acts |= 1 << uint(u)
		}
		for _, u := range c.Pools {
			k.pools |= 1 << uint(u)
		}
	} else {
		k.extra = ConfigKey(c, batch)
	}
	return k
}

// ascending reports whether the unit list is strictly ascending — the
// canonical form hw.NewConfig produces.
func ascending(us []hw.Unit) bool {
	for i := 1; i < len(us); i++ {
		if us[i] <= us[i-1] {
			return false
		}
	}
	return true
}

// Evaluator is the parallel, memoizing evaluation engine. The zero value is
// not usable; construct with New. An Evaluator is safe for concurrent use.
type Evaluator struct {
	workers int

	mu    sync.Mutex
	cache map[cacheKey]*entry
	// fps memoizes model fingerprints by pointer identity; models must not be
	// structurally mutated after their first evaluation.
	fps sync.Map // *workload.Model -> string
	// plans is the lower level of the two-level cache: one precomputed
	// ppa.ModelPlan per model (by pointer identity), shared by every entry.
	plans sync.Map // *workload.Model -> *ppa.ModelPlan

	hits, misses atomic.Uint64
}

// New builds an Evaluator; non-positive Workers selects GOMAXPROCS.
func New(o Options) *Evaluator {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Evaluator{workers: w, cache: make(map[cacheKey]*entry)}
}

var (
	sharedOnce sync.Once
	shared     *Evaluator
)

// Shared returns the process-wide default engine (Workers = GOMAXPROCS),
// used by dse and search when no engine is injected.
func Shared() *Evaluator {
	sharedOnce.Do(func() { shared = New(Options{}) })
	return shared
}

// Workers returns the engine's worker count.
func (ev *Evaluator) Workers() int { return ev.workers }

// Stats returns a snapshot of the cache counters.
func (ev *Evaluator) Stats() Stats {
	ev.mu.Lock()
	n := len(ev.cache)
	ev.mu.Unlock()
	return Stats{Hits: ev.hits.Load(), Misses: ev.misses.Load(), Entries: n}
}

// Evaluate memoizes ppa.Evaluate (batch size 1) for one model on one
// configuration. The returned Eval is shared with every other caller of the
// same key and must be treated as immutable. Errors are memoized too.
func (ev *Evaluator) Evaluate(m *workload.Model, c hw.Config) (*ppa.Eval, error) {
	return ev.EvaluateBatch(m, c, 1)
}

// EvaluateBatch memoizes the full per-layer evaluation of ppa.EvaluateBatch,
// computed from the model's cached plan.
func (ev *Evaluator) EvaluateBatch(m *workload.Model, c hw.Config, batch int) (*ppa.Eval, error) {
	e := ev.entryFor(m, c, batch)
	e.once.Do(func() { e.eval, e.err = ev.Plan(m).EvaluateBatch(c, batch) })
	return e.eval, e.err
}

// EvaluateSummary computes the allocation-lean scalar evaluation from the
// model's cached plan: the totals of EvaluateBatch (bit-identical) without
// the per-layer breakdown. It leaves the result cache and its counters alone,
// so scoring any number of points costs the engine no memory.
func (ev *Evaluator) EvaluateSummary(m *workload.Model, c hw.Config, batch int) (ppa.Summary, error) {
	return ev.Plan(m).Summary(c, batch)
}

// Plan returns the engine's precomputed cost plan for the model, building it
// on first use — the lower level of the two-level cache, shared across every
// (configuration, batch) entry of the model.
func (ev *Evaluator) Plan(m *workload.Model) *ppa.ModelPlan {
	if p, ok := ev.plans.Load(m); ok {
		return p.(*ppa.ModelPlan)
	}
	p, _ := ev.plans.LoadOrStore(m, ppa.NewModelPlan(m))
	return p.(*ppa.ModelPlan)
}

// entryFor returns the cache entry for one (model, configuration, batch) key,
// creating it on first lookup.
func (ev *Evaluator) entryFor(m *workload.Model, c hw.Config, batch int) *entry {
	key := ev.keyFor(m, c, batch)
	ev.mu.Lock()
	e, ok := ev.cache[key]
	if !ok {
		e = &entry{}
		ev.cache[key] = e
	}
	ev.mu.Unlock()
	if ok {
		ev.hits.Add(1)
	} else {
		ev.misses.Add(1)
	}
	return e
}

// ForEach runs fn(i) for every i in [0, n) across the engine's workers and
// returns when all calls have completed. fn must be safe to call concurrently
// and should write its result into an index-addressed slot; item order of
// execution is unspecified, but with Workers == 1 the calls are strictly
// sequential in index order.
func (ev *Evaluator) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := ev.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachChunkWorker splits [0, n) into contiguous chunks of at most chunk
// items and runs fn(worker, lo, hi) for each half-open range across the
// engine's workers; non-positive chunk selects one chunk per worker (balanced
// split). worker identifies the goroutine claiming the chunk
// (0 <= worker < Workers()), so callers can keep persistent per-worker
// (sharded) reduction state — scratch buffers, local frontiers — across every
// chunk that worker claims, without locking. Chunks are claimed dynamically in
// ascending order; with Workers == 1 every chunk runs on worker 0 in strict
// range order. fn must be safe to call concurrently for distinct worker ids;
// calls sharing a worker id never overlap, and all writes made in fn
// happen-before ForEachChunkWorker returns.
func (ev *Evaluator) ForEachChunkWorker(n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = (n + ev.workers - 1) / ev.workers
	}
	nChunks := (n + chunk - 1) / chunk
	w := ev.workers
	if w > nChunks {
		w = nChunks
	}
	run := func(worker, c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(worker, lo, hi)
	}
	if w <= 1 {
		for c := 0; c < nChunks; c++ {
			run(0, c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				run(worker, c)
			}
		}(g)
	}
	wg.Wait()
}

// EvaluateSummaryUncached is EvaluateSummary under its older name, kept
// because the perfbench harness calls both.
func (ev *Evaluator) EvaluateSummaryUncached(m *workload.Model, c hw.Config, batch int) (ppa.Summary, error) {
	return ev.EvaluateSummary(m, c, batch)
}

// Fingerprint returns the package-level Fingerprint of m, memoized by
// pointer identity, so a caller keying on long-lived models hashes each once.
func (ev *Evaluator) Fingerprint(m *workload.Model) string {
	if fp, ok := ev.fps.Load(m); ok {
		return fp.(string)
	}
	fp := Fingerprint(m)
	ev.fps.Store(m, fp)
	return fp
}

// Fingerprint returns a collision-resistant identity for a model's full
// structure: SHA-256 over the model metadata and every field of every layer.
// Integer fields are hashed as fixed-width words and strings are
// length-prefixed, so the encoding is injective: models that differ in any
// structural field never share a fingerprint (see FuzzFingerprint). The
// explicit field list must grow with workload.Layer —
// TestFingerprintCoversAllLayerFields pins the field count as a tripwire.
func Fingerprint(m *workload.Model) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d\n",
		m.Name, m.Class, m.Source, m.SeqLen, m.ExtraParams, len(m.Layers))
	var buf [14 * 8]byte
	for i := range m.Layers {
		l := &m.Layers[i]
		binary.BigEndian.PutUint64(buf[:], uint64(len(l.Name)))
		h.Write(buf[:8])
		io.WriteString(h, l.Name)
		for j, v := range [...]int{
			int(l.Kind),
			l.IFMX, l.IFMY, l.NIFM,
			l.OFMX, l.OFMY, l.NOFM,
			l.KX, l.KY, l.Stride, l.Pad, l.Groups,
			l.Copies, l.ActiveCopies,
		} {
			binary.BigEndian.PutUint64(buf[j*8:], uint64(v))
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigKey renders a hardware configuration (plus the batch size) into the
// canonical cache-key component: every field of hw.Config that influences
// ppa.EvaluateBatch appears, so configurations that differ in any dimension
// never share a key; see FuzzConfigKey.
func ConfigKey(c hw.Config, batch int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sa%d n%d a%d o%d prec%d batch%d",
		c.SASize, c.NSA, c.NAct, c.NPool, c.Precision, batch)
	if !c.Mix.IsZero() {
		sb.WriteString(" mix")
		for i := 0; i < hw.MaxMixTypes; i++ {
			fmt.Fprintf(&sb, ",%d", c.Mix.Counts[i])
		}
	}
	for _, u := range c.Acts {
		fmt.Fprintf(&sb, " A%d", u)
	}
	for _, u := range c.Pools {
		fmt.Fprintf(&sb, " O%d", u)
	}
	if c.Flatten {
		sb.WriteString(" F")
	}
	if c.Permute {
		sb.WriteString(" P")
	}
	fmt.Fprintf(&sb, " cat%s", c.Catalogue().Fingerprint())
	return sb.String()
}
