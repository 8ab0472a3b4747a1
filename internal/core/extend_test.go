package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// extendFixture trains a fresh result (Extend mutates it, so the shared
// cached result must not be used).
func extendFixture(t *testing.T) *TrainResult {
	t.Helper()
	tr, err := Train(workload.TrainingSet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestExtendReusesForSimilarAlgorithm(t *testing.T) {
	tr := extendFixture(t)
	subsetsBefore := len(tr.Subsets)
	out, err := tr.Extend(workload.NewRoBERTaBase(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reused {
		t.Fatalf("RoBERTa should reuse an existing configuration: %+v", out)
	}
	if out.AddedNREUSD != 0 || out.AddedNRE != 0 {
		t.Error("reuse must cost zero new NRE")
	}
	if len(tr.Subsets) != subsetsBefore {
		t.Error("reuse must not add subsets")
	}
	if out.PPA == nil || out.PPA.Coverage != 1 {
		t.Error("reused config must fully cover the algorithm")
	}
	if tr.SubsetOf("RoBERTa-base") != out.SubsetIndex {
		t.Error("membership not recorded")
	}
}

func TestExtendSynthesizesForUncoveredAlgorithm(t *testing.T) {
	tr := extendFixture(t)
	subsetsBefore := len(tr.Subsets)
	out, err := tr.Extend(workload.NewEfficientNetB0(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reused {
		t.Fatal("no library configuration covers a SiLU CNN; a new one is required")
	}
	if len(tr.Subsets) != subsetsBefore+1 {
		t.Fatalf("subsets = %d, want %d", len(tr.Subsets), subsetsBefore+1)
	}
	if out.AddedNREUSD <= 0 || out.AddedNRE <= 0 {
		t.Error("new configuration must report its NRE")
	}
	if out.AddedNRE >= 1 {
		t.Errorf("one-algorithm config NRE %v should be below the generic's", out.AddedNRE)
	}
	if out.PPA.Coverage != 1 {
		t.Error("new configuration must fully cover its algorithm")
	}
	// After extension, a second SiLU CNN can reuse the new configuration.
	second := workload.NewEfficientNetB0()
	second.Name = "EfficientNet-B0-clone"
	out2, err := tr.Extend(second, tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Reused || out2.SubsetIndex != out.SubsetIndex {
		t.Errorf("clone should reuse the new configuration: %+v", out2)
	}
}

func TestExtendRejectsKnownAndInvalid(t *testing.T) {
	tr := extendFixture(t)
	if _, err := tr.Extend(workload.NewResNet18(), tr.Options); err == nil {
		t.Error("extending with a served algorithm should fail")
	}
	if _, err := tr.Extend(&workload.Model{}, tr.Options); err == nil {
		t.Error("invalid model should fail")
	}
	bad := tr.Options
	bad.Space = nil
	if _, err := tr.Extend(workload.NewEfficientNetB0(), bad); err == nil {
		t.Error("invalid options should fail")
	}
}

// countingSpace wraps a DesignSpace and counts At calls: how many points the
// explorations on it read.
type countingSpace struct {
	hw.DesignSpace
	at atomic.Int64
}

func (c *countingSpace) At(i int) hw.Point {
	c.at.Add(1)
	return c.DesignSpace.At(i)
}

// TestExtendExploresOnce: when the most similar covering library fails the
// latency check, the custom DSE that priced the check becomes the new library
// member, so Extend reads the space for one sweep, not two. At zero latency
// slack RoBERTa-base finds a covering library and is not reused.
func TestExtendExploresOnce(t *testing.T) {
	tr := extendFixture(t)
	o := tr.Options
	space := &countingSpace{DesignSpace: o.Space}
	o.Space = space
	o.Constraints.LatencySlack = 0
	out, err := tr.Extend(workload.NewRoBERTaBase(), o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reused || out.Similarity < 0 {
		t.Fatalf("want a covering library that fails the latency check, got %+v", out)
	}
	n := int64(space.Len())
	if got := space.at.Load(); got < n || got >= 2*n {
		t.Errorf("Extend read %d points of the %d-point space, want one sweep", got, n)
	}
}
