package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.WaferCostUSD = 0
	if bad.Validate() == nil {
		t.Error("zero wafer cost should fail validation")
	}
	bad = Default()
	bad.ClusterAlpha = 0
	if bad.Validate() == nil {
		t.Error("zero alpha should fail validation")
	}
	bad = Default()
	bad.DesignExponent = -1
	if bad.Validate() == nil {
		t.Error("negative exponent should fail validation")
	}
}

func TestDieYieldMonotoneDecreasing(t *testing.T) {
	m := Default()
	if y := m.DieYield(0); y != 1 {
		t.Errorf("zero-area yield = %v, want 1", y)
	}
	prev := 1.0
	for a := 10.0; a <= 800; a += 10 {
		y := m.DieYield(a)
		if y <= 0 || y > prev {
			t.Fatalf("yield not monotone at %v mm^2: %v after %v", a, y, prev)
		}
		prev = y
	}
	// Mature 28nm, ~100 mm^2 die: yield should be healthy (>85%).
	if y := m.DieYield(100); y < 0.85 {
		t.Errorf("100mm^2 yield = %v, implausibly low for 28nm", y)
	}
}

func TestDiesPerWafer(t *testing.T) {
	m := Default()
	// A 100 mm^2 die on a 300 mm wafer yields several hundred gross dies.
	n := m.DiesPerWafer(100)
	if n < 400 || n > 700 {
		t.Errorf("dies per wafer = %v, want ~500-650", n)
	}
	if m.DiesPerWafer(0) != 0 {
		t.Error("zero area should give zero dies")
	}
	// Larger dies always yield fewer.
	if m.DiesPerWafer(200) >= n {
		t.Error("dies per wafer must decrease with area")
	}
}

func TestDieRECostIncreasesWithArea(t *testing.T) {
	m := Default()
	prev := 0.0
	for a := 10.0; a <= 400; a += 10 {
		c := m.DieREUSD(a)
		if c <= prev {
			t.Fatalf("die cost not increasing at %v mm^2", a)
		}
		prev = c
	}
	// The chiplet motivation: one 400 mm^2 die costs more than four 100 mm^2
	// dies (yield superlinearity) — the "area wall" of the introduction.
	if m.DieREUSD(400) <= 4*m.DieREUSD(100) {
		t.Error("yield superlinearity missing: 400mm^2 should cost more than 4x 100mm^2")
	}
}

func TestChipletNREComponents(t *testing.T) {
	m := Default()
	small := m.ChipletNREUSD(Chiplet{AreaMM2: 25, UnitKinds: 2})
	big := m.ChipletNREUSD(Chiplet{AreaMM2: 100, UnitKinds: 2})
	if big <= small {
		t.Error("NRE must grow with area")
	}
	// Sub-linear exponent: 4x area should cost less than 4x NRE.
	if big >= 4*small {
		t.Errorf("design effort should scale sub-linearly: %v vs 4x %v", big, small)
	}
	moreIP := m.ChipletNREUSD(Chiplet{AreaMM2: 25, UnitKinds: 8})
	if moreIP-small != 6*m.IPUSDPerUnitKind {
		t.Errorf("IP cost delta = %v, want %v", moreIP-small, 6*m.IPUSDPerUnitKind)
	}
}

func TestConfigNREReusePaysOnce(t *testing.T) {
	m := Default()
	oneType := Config{Types: []Chiplet{{AreaMM2: 50, UnitKinds: 4}}, Instances: 4}
	fourTypes := Config{Types: []Chiplet{
		{AreaMM2: 50, UnitKinds: 4}, {AreaMM2: 50, UnitKinds: 4},
		{AreaMM2: 50, UnitKinds: 4}, {AreaMM2: 50, UnitKinds: 4},
	}, Instances: 4}
	if m.ConfigNREUSD(oneType) >= m.ConfigNREUSD(fourTypes) {
		t.Error("reusing one chiplet type must be cheaper than four distinct types")
	}
	// This is the paper's entire thesis: the gap should be large (several x
	// of the single-type silicon NRE).
	ratio := m.ConfigNREUSD(fourTypes) / m.ConfigNREUSD(oneType)
	if ratio < 2.5 {
		t.Errorf("type-reuse benefit ratio = %.2f, want > 2.5", ratio)
	}
}

func TestConfigNREInstancesFloor(t *testing.T) {
	m := Default()
	// Instances below the type count are clamped up.
	a := Config{Types: []Chiplet{{AreaMM2: 50, UnitKinds: 2}, {AreaMM2: 30, UnitKinds: 2}}, Instances: 0}
	b := a
	b.Instances = 2
	if m.ConfigNREUSD(a) != m.ConfigNREUSD(b) {
		t.Error("instance clamp broken")
	}
}

func TestSystemREUSD(t *testing.T) {
	m := Default()
	re := m.SystemREUSD([]float64{50, 50, 30})
	want := 2*m.DieREUSD(50) + m.DieREUSD(30)
	if math.Abs(re-want) > 1e-9 {
		t.Errorf("system RE = %v, want %v", re, want)
	}
	if m.SystemREUSD(nil) != 0 {
		t.Error("empty system should cost 0")
	}
}

// TestQuickYieldBounds property-checks yield stays in (0, 1] and RE cost is
// positive for any sane area.
func TestQuickYieldBounds(t *testing.T) {
	m := Default()
	f := func(a uint16) bool {
		area := float64(a%600) + 1
		y := m.DieYield(area)
		return y > 0 && y <= 1 && m.DieREUSD(area) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
