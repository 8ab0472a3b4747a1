package dse

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

func TestSweepShapeAndOrder(t *testing.T) {
	m := workload.NewResNet18()
	pts, err := SweepSpace(m, hw.PointList(hw.Space()), DefaultConstraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 81 {
		t.Fatalf("sweep has %d points, want 81", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Eval.AreaMM2 < pts[i-1].Eval.AreaMM2 {
			t.Fatal("sweep not sorted by area")
		}
	}
	feasible := 0
	for _, p := range pts {
		if p.Feasible {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(pts) {
		t.Errorf("feasible count %d should be a strict subset", feasible)
	}
}

func TestParetoFrontProperties(t *testing.T) {
	m := workload.NewResNet50()
	pts, err := SweepSpace(m, hw.PointList(hw.Space()), DefaultConstraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) == 0 || len(front) == len(pts) {
		t.Fatalf("front size %d of %d implausible", len(front), len(pts))
	}
	// No front point dominates another; sorted by area, latency must be
	// strictly decreasing along the front.
	for i := 1; i < len(front); i++ {
		if front[i].Eval.AreaMM2 > front[i-1].Eval.AreaMM2 &&
			front[i].Eval.LatencyS >= front[i-1].Eval.LatencyS {
			t.Errorf("front not a proper trade-off curve at %d", i)
		}
	}
	// Every non-front point is dominated by some front point.
	for _, p := range pts {
		if p.Pareto {
			continue
		}
		dominated := false
		for _, f := range front {
			if f.Eval.AreaMM2 <= p.Eval.AreaMM2 && f.Eval.LatencyS <= p.Eval.LatencyS &&
				(f.Eval.AreaMM2 < p.Eval.AreaMM2 || f.Eval.LatencyS < p.Eval.LatencyS) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("point %v marked dominated but is not", p.Point)
		}
	}
}

// TestSelectedCustomIsFeasibleSweepPoint cross-checks Sweep against Custom:
// the chosen configuration must appear in the sweep as feasible, and no
// feasible point may undercut its area.
func TestSelectedCustomIsFeasibleSweepPoint(t *testing.T) {
	m := workload.NewVGG16()
	cons := DefaultConstraints()
	sel, err := custom(m, hw.Space(), cons)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SweepSpace(m, hw.PointList(hw.Space()), cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pts {
		if p.Point == sel.Config.Point {
			found = true
			if !p.Feasible {
				t.Error("selected custom point marked infeasible by Sweep")
			}
		}
		if p.Feasible && p.Eval.AreaMM2 < sel.Config.AreaMM2()-1e-9 {
			t.Errorf("feasible point %v undercuts the selected custom area", p.Point)
		}
	}
	if !found {
		t.Error("selected point missing from sweep")
	}
}

func TestSweepInvalidConstraints(t *testing.T) {
	bad := DefaultConstraints()
	bad.MaxPowerDensityWPerMM2 = 0
	if _, err := SweepSpace(workload.NewGPT2(), hw.PointList(hw.Space()), bad, nil); err == nil {
		t.Error("invalid constraints should fail")
	}
}
