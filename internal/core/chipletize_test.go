package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

// TestChipletizeRespectsLimitWithFatActivationBank is the regression test for
// the SA-bank split: die 0 carries every non-SA bank, so its share of the
// systolic arrays must be sized on the headroom left after those banks — the
// old p = ceil(logic/limit) equal split ignored them and shipped an oversized
// first die whenever the activation/pooling banks were fat.
func TestChipletizeRespectsLimitWithFatActivationBank(t *testing.T) {
	o := DefaultOptions()
	o.MaxChipletAreaMM2 = 50

	// A fat activation bank taking most of one die plus a large SA bank: the
	// community must split, and die 0 (activation + its SA share) must stay
	// within the limit.
	actPer := hw.Bank{Unit: hw.ActGELU, Count: 1}.AreaUM2()
	actCount := int(0.8 * o.MaxChipletAreaMM2 * 1e6 / actPer) // ~80% of a die
	saPer := hw.SAFor(64, hw.Int8).AreaUM2
	saCount := int(2.5*o.MaxChipletAreaMM2*1e6/saPer) + 1 // ~2.5 dies of arrays

	nodes := []graph.Node{
		{ID: 0, Unit: hw.SystolicArray, Count: saCount, SASize: 64},
		{ID: 1, Unit: hw.ActGELU, Count: actCount},
	}
	chiplets := o.FidelityParams().Chipletize(nodes, []int{0, 0}, o.Catalogue)

	if len(chiplets) < 2 {
		t.Fatalf("expected a split, got %d chiplet(s)", len(chiplets))
	}
	var arrays int
	for i, c := range chiplets {
		var logic float64
		for _, b := range c.Banks {
			logic += b.AreaUM2()
			if b.Unit == hw.SystolicArray {
				arrays += b.Count
			}
		}
		if mm2 := hw.UM2ToMM2(logic); mm2 > o.MaxChipletAreaMM2*(1+1e-9) {
			t.Errorf("chiplet %d logic area %.1f mm2 exceeds limit %.1f mm2 (banks %v)",
				i, mm2, o.MaxChipletAreaMM2, c.Banks)
		}
	}
	if arrays != saCount {
		t.Errorf("split lost arrays: %d across chiplets, want %d", arrays, saCount)
	}
	// The fat activation bank must sit on exactly one die.
	actDies := 0
	for _, c := range chiplets {
		for _, b := range c.Banks {
			if b.Unit == hw.ActGELU {
				actDies++
			}
		}
	}
	if actDies != 1 {
		t.Errorf("activation bank on %d dies, want 1", actDies)
	}
}

// TestChipletizeSplitBalanced checks the no-rest-banks case still splits
// near-equally and below the limit.
func TestChipletizeSplitBalanced(t *testing.T) {
	o := DefaultOptions()
	o.MaxChipletAreaMM2 = 50
	saPer := hw.SAFor(64, hw.Int8).AreaUM2
	perDie := int(o.MaxChipletAreaMM2 * 1e6 / saPer)
	saCount := 3*perDie - 1 // needs 3 dies

	nodes := []graph.Node{{ID: 0, Unit: hw.SystolicArray, Count: saCount, SASize: 64}}
	chiplets := o.FidelityParams().Chipletize(nodes, []int{0}, o.Catalogue)
	if len(chiplets) != 3 {
		t.Fatalf("got %d chiplets, want 3", len(chiplets))
	}
	total := 0
	for i, c := range chiplets {
		var logic float64
		for _, b := range c.Banks {
			logic += b.AreaUM2()
			total += b.Count
		}
		if mm2 := hw.UM2ToMM2(logic); mm2 > o.MaxChipletAreaMM2*(1+1e-9) {
			t.Errorf("chiplet %d logic area %.1f mm2 over limit", i, mm2)
		}
	}
	if total != saCount {
		t.Errorf("arrays lost: %d, want %d", total, saCount)
	}
}

// TestChipletizeNoSplitWhenFits pins the fast path: a community under the
// limit stays one chiplet.
func TestChipletizeNoSplitWhenFits(t *testing.T) {
	o := DefaultOptions()
	nodes := []graph.Node{
		{ID: 0, Unit: hw.SystolicArray, Count: 4, SASize: 16},
		{ID: 1, Unit: hw.PoolMax, Count: 8},
	}
	chiplets := o.FidelityParams().Chipletize(nodes, []int{0, 0}, o.Catalogue)
	if len(chiplets) != 1 {
		t.Fatalf("got %d chiplets, want 1", len(chiplets))
	}
	if len(chiplets[0].Banks) != 2 {
		t.Fatalf("banks = %v", chiplets[0].Banks)
	}
}
