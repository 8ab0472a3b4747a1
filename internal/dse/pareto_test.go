package dse

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

func TestSweepShapeAndOrder(t *testing.T) {
	m := workload.NewResNet18()
	pts, err := SweepSpace(m, hw.PointList(hw.PaperSpace().Points()), DefaultConstraints(), eval.New(eval.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 81 {
		t.Fatalf("sweep has %d points, want 81", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AreaMM2 < pts[i-1].AreaMM2 {
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

// TestSweepSpaceFeasibleMatchesExplore pins clairedse's two feasibility
// readouts to each other: the Feasible rows of SweepSpace count exactly
// ExploreSpaceCtx's Result.Feasible, for every training-set model on the
// paper point list, the paper spec and the mix space, at slack 0, 0.5 and 1.
func TestSweepSpaceFeasibleMatchesExplore(t *testing.T) {
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(eval.Options{Workers: 2})
	for _, space := range []hw.DesignSpace{hw.PointList(hw.PaperSpace().Points()), hw.PaperSpace(), mix} {
		for _, slack := range []float64{0, 0.5, 1} {
			cons := DefaultConstraints()
			cons.LatencySlack = slack
			for _, m := range workload.TrainingSet() {
				pts, err := SweepSpace(m, space, cons, ev)
				if err != nil {
					t.Fatal(err)
				}
				r, err := ExploreSpaceCtx(context.Background(), []*workload.Model{m}, space, cons, ev, nil)
				if err != nil {
					t.Fatal(err)
				}
				feasible := 0
				for _, p := range pts {
					if p.Feasible {
						feasible++
					}
				}
				if feasible != r.Feasible {
					t.Errorf("%s on %s at slack %g: %d feasible rows, Result.Feasible = %d",
						m.Name, space.Desc(), slack, feasible, r.Feasible)
				}
			}
		}
	}
}

func TestParetoFrontProperties(t *testing.T) {
	m := workload.NewResNet50()
	pts, err := SweepSpace(m, hw.PointList(hw.PaperSpace().Points()), DefaultConstraints(), eval.New(eval.Options{}))
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
		if front[i].AreaMM2 > front[i-1].AreaMM2 &&
			front[i].LatencyS >= front[i-1].LatencyS {
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
			if f.AreaMM2 <= p.AreaMM2 && f.LatencyS <= p.LatencyS &&
				(f.AreaMM2 < p.AreaMM2 || f.LatencyS < p.LatencyS) {
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
	sel, err := custom(m, hw.PaperSpace().Points(), cons)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SweepSpace(m, hw.PointList(hw.PaperSpace().Points()), cons, eval.New(eval.Options{}))
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
		if p.Feasible && p.AreaMM2 < sel.Config.AreaMM2()-1e-9 {
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
	if _, err := SweepSpace(workload.NewGPT2(), hw.PointList(hw.PaperSpace().Points()), bad, eval.New(eval.Options{})); err == nil {
		t.Error("invalid constraints should fail")
	}
}
