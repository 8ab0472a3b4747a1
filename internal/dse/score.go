package dse

import (
	"slices"
	"sync"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// Scorer scores the points of one design space for a fixed set of models:
// the per-point loop over models that the streaming sweep's shards and the
// budgeted search's visits share. It owns the per-model configuration
// templates and, on a hw.SpaceSpec or hw.MixSpace, one ppa.Table per model;
// on any other space, or when some model's template gets no table, it runs
// the per-point kernel from the models' plans.
// The two paths are bit-identical, and neither touches the engine's result
// cache. A Scorer is safe for concurrent use; its tables live as long as it
// does.
type Scorer struct {
	space  hw.DesignSpace
	models []*workload.Model
	cons   Constraints
	tmpl   []hw.Config
	// plans holds each model's per-point kernel: its ppa.ModelPlan.
	plans []summarizer
	// tables holds one table per model, or is nil unless every model has
	// one.
	tables []*ppa.Table
}

// summarizer is the per-point kernel a Scorer reads when its space has no
// tables; *ppa.ModelPlan implements it, and tests substitute oracles.
type summarizer interface {
	Summary(c hw.Config, batch int) (ppa.Summary, error)
}

// NewScorer builds the scorer of models on a non-empty space on a non-nil
// engine. The models' plans come from the engine, and the tables, when the
// space has them, are built on its worker pool. A template that fails its
// plan's checks on the space gets no table (ppa.NewTable), so the scorer
// then scores every model per point and reports the plan's error.
func NewScorer(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, cons Constraints) *Scorer {
	// Per-model configuration templates; the point is stamped in per
	// evaluation so scoring allocates no per-point configs. Spaces that carry
	// a catalogue (mix spaces, ParseSpaceWith specs) thread it into every
	// template so evaluation sees the right PPA source.
	cat := hw.CatalogueOf(space)
	tmpl := make([]hw.Config, len(models))
	for i, m := range models {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
		tmpl[i].Cat = cat
	}
	s := &Scorer{space: space, models: models, cons: cons, tmpl: tmpl,
		plans: make([]summarizer, len(models))}
	tables := make([]*ppa.Table, len(models))
	ev.ForEach(len(models), func(i int) {
		p := ev.Plan(models[i])
		s.plans[i] = p
		tables[i] = ppa.NewTable(p, tmpl[i], space)
	})
	if len(tables) > 0 && !slices.Contains(tables, nil) {
		s.tables = tables
	}
	return s
}

// Summary returns model i's analytical summary at point k of the space,
// where pt is the space's point k: a gather from model i's table when the
// scorer has tables (which read only k), else the per-point kernel on pt.
// Callers pass pt so each point is read from the space once. It performs no
// allocation.
func (s *Scorer) Summary(i, k int, pt hw.Point) (ppa.Summary, error) {
	if s.tables != nil {
		return s.tables[i].Summary(k), nil
	}
	c := s.tmpl[i]
	c.Point = pt
	return s.plans[i].Summary(c, 1)
}

// Score evaluates point k for every model, writing each model's latency and
// static feasibility (Constraints.MeetsStatic) into lats and statics, and
// returns the per-model areas summed in model order — the observation
// dse.Selector.Observe takes, and what the sweep's projection of its chunk
// holds for a target of every model. On an evaluation error it returns the
// first failing model's error, and lats and statics are partly written. It
// performs no allocation.
func (s *Scorer) Score(k int, lats []float64, statics []bool) (area float64, err error) {
	var pt hw.Point
	if s.tables == nil {
		pt = s.space.At(k)
	}
	for i := range s.models {
		sum, err := s.Summary(i, k, pt)
		if err != nil {
			return 0, err
		}
		lats[i], statics[i] = sum.LatencyS, s.cons.MeetsStatic(sum.AreaMM2, sum.PowerDensity())
		area += sum.AreaMM2
	}
	return area, nil
}

// view returns the scorer of the models target names, in target order: it
// shares the space, the constraints and each named model's template, plan
// and table, so it scores exactly as a scorer built for those models would.
func (s *Scorer) view(target []int) *Scorer {
	v := &Scorer{space: s.space, cons: s.cons,
		models: make([]*workload.Model, len(target)), tmpl: make([]hw.Config, len(target)),
		plans: make([]summarizer, len(target))}
	if s.tables != nil {
		v.tables = make([]*ppa.Table, len(target))
	}
	for q, i := range target {
		v.models[q], v.tmpl[q], v.plans[q] = s.models[i], s.tmpl[i], s.plans[i]
		if v.tables != nil {
			v.tables[q] = s.tables[i]
		}
	}
	return v
}

// scores holds one chunk of scored points for every model of a Scorer:
// per (point, model), point-major, each model's area, latency, static
// feasibility and scoring error; the chunk's point indices; the scratch a
// table gather writes one model's summaries into; and the projection a
// sweep passes each of its targets' rows through before a Selector observes
// them.
type scores struct {
	idx    []int
	area   []float64
	lat    []float64
	static []bool
	err    []error
	// failed reports whether some entry of err is non-nil.
	failed bool
	sums   []ppa.Summary
	proj   projection
}

// sizeScores sets b to n points of the scorer's models, growing a buffer
// only when it is too small, so a shard's buffers settle at its chunk size.
// The error cells exist only when the scorer runs the per-point kernel, the
// gather scratch only when it reads tables.
func (s *Scorer) sizeScores(b *scores, n int) {
	m := len(s.models)
	b.idx = grow(b.idx, n)
	b.area, b.lat, b.static = grow(b.area, n*m), grow(b.lat, n*m), grow(b.static, n*m)
	if s.tables == nil {
		b.err = grow(b.err, n*m)
	} else {
		b.sums = grow(b.sums, n)
	}
}

// grow returns s resliced to n elements, or a new slice when s is too
// small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scoresPool recycles chunk buffers across sweeps: a sweep's shards take
// theirs from it and return them when the scan ends, so back-to-back sweeps
// do not each allocate a chunk's worth of buffers per worker.
var scoresPool = sync.Pool{New: func() any { return new(scores) }}

// scoreRange scores the len(b.idx) points from lo on for every model into
// b: the point at offset j and model i land at cell j*m+i, for the scorer's
// m models. A model that fails to score a point leaves its error in the
// cell, its other entries stale, and the point's other models are still
// scored. With tables, each model's summaries over the whole range come
// from one Table.SummaryRange gather, no cell fails, and err is not
// written: readers consult it only when failed is set. It performs no
// allocation.
func (s *Scorer) scoreRange(lo int, b *scores) {
	m := len(s.models)
	for j := range b.idx {
		b.idx[j] = lo + j
	}
	b.failed = false
	if s.tables == nil {
		clear(b.err)
		for j := range b.idx {
			pt := s.space.At(lo + j)
			for i := range s.models {
				sum, err := s.Summary(i, lo+j, pt)
				if err != nil {
					b.err[j*m+i], b.failed = err, true
					continue
				}
				s.record(b, j*m+i, &sum)
			}
		}
		return
	}
	for i, tab := range s.tables {
		tab.SummaryRange(lo, b.sums)
		for j := range b.sums {
			s.record(b, j*m+i, &b.sums[j])
		}
	}
}

// record stores one model's summary at cell x.
func (s *Scorer) record(b *scores, x int, sum *ppa.Summary) {
	b.area[x] = sum.AreaMM2
	b.lat[x] = sum.LatencyS
	b.static[x] = s.cons.MeetsStatic(sum.AreaMM2, sum.PowerDensity())
}
