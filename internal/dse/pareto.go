package dse

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// SpacePoint is one scored coordinate of the design space for one
// algorithm: its analytical totals and its constraint status.
type SpacePoint struct {
	Point hw.Point
	ppa.Summary
	Feasible bool // meets area, power-density and latency-slack constraints
	Pareto   bool // not dominated in (area, latency) by any other point
}

// SweepSpace scores one algorithm on every point of a lazily indexed space on
// the given (non-nil) engine through the sweep's Scorer, so the
// space's catalogue (if any) reaches every evaluation, and marks feasibility
// (against the given constraints) and area/latency Pareto optimality — the
// per-point table view of clairedse. Every point is returned, so it is only
// sensible for table-sized spaces. Points are scored on the engine's workers;
// the latency reference comes from a Selector fed every point as one batch
// after collection, so results are identical at any worker count and the
// Feasible rows count exactly Result.Feasible of the same sweep. Results are
// sorted by ascending area, then latency.
func SweepSpace(m *workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator) ([]SpacePoint, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	sc := NewScorer(ev, []*workload.Model{m}, space, cons)
	pts := make([]SpacePoint, space.Len())
	errs := make([]error, len(pts))
	ev.ForEach(len(pts), func(k int) {
		pt := space.At(k)
		s, err := sc.Summary(0, k, pt)
		if err != nil {
			errs[k] = err
			return
		}
		pts[k] = SpacePoint{Point: pt, Summary: s, Feasible: cons.MeetsStatic(s.AreaMM2, s.PowerDensity())}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Feasible holds static feasibility until the reference is final.
	n := len(pts)
	idxs, areas, lats, statics := make([]int, n), make([]float64, n), make([]float64, n), make([]bool, n)
	for k := range pts {
		idxs[k], areas[k], lats[k], statics[k] = k, pts[k].AreaMM2, pts[k].LatencyS, pts[k].Feasible
	}
	sel := NewSelector(1, cons)
	sel.ObserveBatch(idxs, areas, lats, statics, nil)
	for k := range pts {
		pts[k].Feasible = pts[k].Feasible && slackOK(lats[k:k+1], sel.BestLatencies(), cons.LatencySlack)
	}
	markPareto(pts)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].AreaMM2 != pts[j].AreaMM2 {
			return pts[i].AreaMM2 < pts[j].AreaMM2
		}
		return pts[i].LatencyS < pts[j].LatencyS
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
			if b.AreaMM2 <= a.AreaMM2 && b.LatencyS <= a.LatencyS &&
				(b.AreaMM2 < a.AreaMM2 || b.LatencyS < a.LatencyS) {
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
