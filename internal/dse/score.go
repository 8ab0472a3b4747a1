package dse

import (
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
// on any other space it runs the per-point kernel from the models' plans.
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
	// tables holds one table per model, or is nil when the space has none.
	tables []*ppa.Table
}

// summarizer is the per-point kernel a Scorer reads when its space has no
// tables; *ppa.ModelPlan implements it, and tests substitute oracles.
type summarizer interface {
	Summary(c hw.Config, batch int) (ppa.Summary, error)
}

// NewScorer builds the scorer of models on a non-empty space; a nil engine
// selects the shared one. The models' plans come from the engine, and the
// tables, when the space has them, are built on its worker pool.
func NewScorer(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, cons Constraints) *Scorer {
	if ev == nil {
		ev = eval.Shared()
	}
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
	if len(tables) > 0 && tables[0] != nil {
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
		return s.tables[i].Summary(k)
	}
	c := s.tmpl[i]
	c.Point = pt
	return s.plans[i].Summary(c, 1)
}

// Score evaluates point k for every model, writing each model's latency and
// static feasibility (Constraints.MeetsStatic) into lats and statics, and
// returns the summed per-model area — the observation dse.Selector.Observe
// takes. On an evaluation error it returns the first failing model's error,
// and lats and statics are partly written. It is the one-point case of the
// chunk scoring the sweep runs, and performs no allocation.
func (s *Scorer) Score(k int, lats []float64, statics []bool) (area float64, err error) {
	var areas [1]float64
	var errs, sumErrs [1]error
	var sums [1]ppa.Summary
	s.scoreRange(k, &scores{area: areas[:], lat: lats, static: statics, err: errs[:],
		sums: sums[:], sumErrs: sumErrs[:]})
	if errs[0] != nil {
		return 0, errs[0]
	}
	return areas[0], nil
}

// scores holds a block of scored points in the layout Selector.ObserveBatch
// reads, plus the scratch a table gather writes one model's summaries into.
// Every slice holds one entry per point, except lat and static, which hold
// one per (point, model), point-major.
type scores struct {
	idx     []int
	area    []float64
	lat     []float64
	static  []bool
	err     []error
	sums    []ppa.Summary
	sumErrs []error
}

// sizeScores sets b to n points of the scorer's models, growing a buffer
// only when it is too small, so a shard's buffers settle at its chunk size.
// The gather scratch exists only when the scorer reads tables.
func (s *Scorer) sizeScores(b *scores, n int) {
	m := len(s.models)
	b.idx, b.area, b.err = grow(b.idx, n), grow(b.area, n), grow(b.err, n)
	b.lat, b.static = grow(b.lat, n*m), grow(b.static, n*m)
	if s.tables != nil {
		b.sums, b.sumErrs = grow(b.sums, n), grow(b.sumErrs, n)
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

// scoreRange scores the len(b.area) points from lo on for every model into
// b: for the point at offset j, each model i's latency and static
// feasibility at b.lat[j*m+i] and b.static[j*m+i], the summed per-model area
// (added in model order, as Score adds it) at b.area[j], and the first
// failing model's error, or nil, at b.err[j]; a failing point's other
// entries are partly written. With tables, each model's summaries over the
// whole range come from one Table.SummaryRange gather. It performs no
// allocation.
func (s *Scorer) scoreRange(lo int, b *scores) {
	m := len(s.models)
	for j := range b.area {
		b.area[j], b.err[j] = 0, nil
	}
	if s.tables == nil {
		for j := range b.area {
			pt := s.space.At(lo + j)
			for i := range s.models {
				sum, err := s.Summary(i, lo+j, pt)
				if err != nil {
					b.err[j] = err
					break
				}
				s.record(b, j*m+i, j, &sum)
			}
		}
		return
	}
	for i, tab := range s.tables {
		tab.SummaryRange(lo, b.sums, b.sumErrs)
		for j := range b.sums {
			switch {
			case b.err[j] != nil:
			case b.sumErrs[j] != nil:
				b.err[j] = b.sumErrs[j]
			default:
				s.record(b, j*m+i, j, &b.sums[j])
			}
		}
	}
}

// record stores one model's summary of point j at row-major cell x.
func (s *Scorer) record(b *scores, x, j int, sum *ppa.Summary) {
	b.lat[x] = sum.LatencyS
	b.static[x] = s.cons.MeetsStatic(sum.AreaMM2, sum.PowerDensity())
	b.area[j] += sum.AreaMM2
}
