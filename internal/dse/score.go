package dse

import (
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// Scorer scores the points of one design space for a fixed set of models:
// the per-point loop over models that the streaming sweep's shards and the
// budgeted search's visits share. It owns the per-model configuration
// templates, the cache policy and, when scoring bypasses the engine's result
// cache on a hw.SpaceSpec or hw.MixSpace, one ppa.Table per model. Cached
// scoring, and uncached scoring on any other space, runs the per-point
// kernel. The three paths are bit-identical. A Scorer is safe for concurrent
// use; its tables live as long as it does.
type Scorer struct {
	space  hw.DesignSpace
	models []*workload.Model
	cons   Constraints
	tmpl   []hw.Config
	cached bool
	// tables holds one table per model, or is nil when summary scores.
	tables  []*ppa.Table
	summary func(*workload.Model, hw.Config) (ppa.Summary, error)
}

// NewScorer builds the scorer of models on a non-empty space under a cache
// policy; a nil engine selects the shared one. Tables, when used, are built
// on the engine's worker pool.
func NewScorer(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, cons Constraints, cache CachePolicy) *Scorer {
	if ev == nil {
		ev = eval.Shared()
	}
	// Per-model configuration templates; the point is stamped in per
	// evaluation so scoring allocates no per-point configs. Spaces that carry
	// a catalogue (mix spaces, ParseSpaceWith specs) thread it into every
	// template so evaluation and cache keys see the right PPA source.
	cat := hw.CatalogueOf(space)
	tmpl := make([]hw.Config, len(models))
	for i, m := range models {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
		tmpl[i].Cat = cat
	}
	s := &Scorer{
		space: space, models: models, cons: cons, tmpl: tmpl,
		cached: cache == CacheAlways ||
			(cache == CacheAuto && int64(space.Len())*int64(len(models)) <= cacheAutoLimit),
	}
	if s.cached {
		s.summary = func(m *workload.Model, c hw.Config) (ppa.Summary, error) {
			return ev.EvaluateSummary(m, c, 1)
		}
		return s
	}
	s.summary = func(m *workload.Model, c hw.Config) (ppa.Summary, error) {
		return ev.EvaluateSummaryUncached(m, c, 1)
	}
	tables := make([]*ppa.Table, len(models))
	ev.ForEach(len(models), func(i int) {
		tables[i] = ppa.NewTable(ev.Plan(models[i]), tmpl[i], space)
	})
	if len(tables) > 0 && tables[0] != nil {
		s.tables = tables
	}
	return s
}

// Cached reports whether scoring goes through the engine's result cache.
func (s *Scorer) Cached() bool { return s.cached }

// Score evaluates point k for every model, writing each model's latency and
// static feasibility (Constraints.MeetsStatic) into lats and statics, and
// returns the summed per-model area — the observation dse.Selector.Observe
// takes. On an evaluation error it returns the first failing model's error,
// and lats and statics are partly written. It performs no allocation.
func (s *Scorer) Score(k int, lats []float64, statics []bool) (area float64, err error) {
	var pt hw.Point
	if s.tables == nil {
		pt = s.space.At(k)
	}
	for i, m := range s.models {
		var sum ppa.Summary
		if s.tables != nil {
			sum, err = s.tables[i].Summary(k)
		} else {
			c := s.tmpl[i]
			c.Point = pt
			sum, err = s.summary(m, c)
		}
		if err != nil {
			return 0, err
		}
		lats[i] = sum.LatencyS
		statics[i] = s.cons.meetsStatic(sum.AreaMM2, sum.PowerDensity())
		area += sum.AreaMM2
	}
	return area, nil
}
