package dse

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// SpacePoint is one fully evaluated coordinate of the design space for one
// algorithm, with its constraint status.
type SpacePoint struct {
	Point    hw.Point
	Eval     *ppa.Eval
	Feasible bool // meets area, power-density and latency-slack constraints
	Pareto   bool // not dominated in (area, latency) by any other point
}

// SweepSpace evaluates one algorithm over every point of a lazily indexed
// space on the given engine (nil: shared default), threading the space's
// catalogue (if any) into every evaluation, and marks feasibility (against
// the given constraints) and area/latency Pareto optimality — the per-point
// table view of clairedse. Every point is fully evaluated and returned, so it
// is only sensible for table-sized spaces. Point evaluations fan out over the
// engine's workers; feasibility references are derived after collection in
// point order, so results are identical at any worker count. Results are
// sorted by ascending area, then latency.
func SweepSpace(m *workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator) ([]SpacePoint, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if ev == nil {
		ev = eval.Shared()
	}
	cat := hw.CatalogueOf(space)
	pts := make([]SpacePoint, space.Len())
	errs := make([]error, len(pts))
	ev.ForEach(len(pts), func(k int) {
		p := space.At(k)
		c := hw.NewConfig(p, []*workload.Model{m})
		c.Cat = cat
		e, err := ev.Evaluate(m, c)
		if err != nil {
			errs[k] = err
			return
		}
		pts[k] = SpacePoint{Point: p, Eval: e, Feasible: cons.meetsStatic(e.AreaMM2, e.PowerDensity())}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	bestLat := -1.0
	for i := range pts {
		if pts[i].Feasible && (bestLat < 0 || pts[i].Eval.LatencyS < bestLat) {
			bestLat = pts[i].Eval.LatencyS
		}
	}
	for i := range pts {
		if pts[i].Feasible && bestLat > 0 &&
			pts[i].Eval.LatencyS > (1+cons.LatencySlack)*bestLat {
			pts[i].Feasible = false
		}
	}
	markPareto(pts)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Eval.AreaMM2 != pts[j].Eval.AreaMM2 {
			return pts[i].Eval.AreaMM2 < pts[j].Eval.AreaMM2
		}
		return pts[i].Eval.LatencyS < pts[j].Eval.LatencyS
	})
	return pts, nil
}

// markPareto flags points not dominated in (area, latency): a point is
// dominated when another is no worse in both and strictly better in one.
func markPareto(pts []SpacePoint) {
	for i := range pts {
		pts[i].Pareto = true
		for j := range pts {
			if i == j {
				continue
			}
			a, b := &pts[i], &pts[j]
			if b.Eval.AreaMM2 <= a.Eval.AreaMM2 && b.Eval.LatencyS <= a.Eval.LatencyS &&
				(b.Eval.AreaMM2 < a.Eval.AreaMM2 || b.Eval.LatencyS < a.Eval.LatencyS) {
				a.Pareto = false
				break
			}
		}
	}
}

// ParetoFront filters a sweep to its Pareto-optimal points, preserving order.
func ParetoFront(pts []SpacePoint) []SpacePoint {
	out := make([]SpacePoint, 0, len(pts))
	for _, p := range pts {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}
