package core

import (
	"testing"

	"repro/internal/workload"
)

func TestSweepTau(t *testing.T) {
	pts, err := SweepTau(workload.TrainingSet(), DefaultOptions(),
		[]float64{0.30, 0.42, 0.80})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Subset count grows (weakly) with tau: higher thresholds merge less.
	for i := 1; i < len(pts); i++ {
		if pts[i].Subsets < pts[i-1].Subsets {
			t.Errorf("subset count not monotone: %v", pts)
		}
	}
	// The default tau sits on the 5-subset plateau with the 6-member CNN set.
	if pts[1].Subsets != 5 || pts[1].MaxSubsetSize != 6 {
		t.Errorf("tau=0.42: %+v, want 5 subsets with max size 6", pts[1])
	}
	if pts[1].MeanBenefit <= 1 {
		t.Errorf("mean benefit %v should exceed 1", pts[1].MeanBenefit)
	}
	if _, err := SweepTau(workload.TrainingSet(), DefaultOptions(), nil); err == nil {
		t.Error("empty sweep should fail")
	}
}

func TestSweepSlack(t *testing.T) {
	pts, err := SweepSlack(workload.NewResNet50(), DefaultOptions(),
		[]float64{2.0, 1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AreaMM2 < pts[i-1].AreaMM2 {
			t.Errorf("area should not shrink as slack tightens: %+v", pts)
		}
		if pts[i].LatencyMS > pts[i-1].LatencyMS*1.0001 {
			t.Errorf("latency should not grow as slack tightens: %+v", pts)
		}
		if pts[i].Feasible > pts[i-1].Feasible {
			t.Errorf("feasible count should shrink as slack tightens: %+v", pts)
		}
	}
	if _, err := SweepSlack(workload.NewResNet50(), DefaultOptions(), nil); err == nil {
		t.Error("empty sweep should fail")
	}
}
