package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.RthCPerWCM2 = 0
	if bad.Validate() == nil {
		t.Error("zero Rth should fail")
	}
	bad = Default()
	bad.CouplingDecayPerHop = 1.5
	if bad.Validate() == nil {
		t.Error("decay > 1 should fail")
	}
}

func TestSingleSourceTemperature(t *testing.T) {
	m := Default()
	// One 100 mm^2 die at 25 W: Rth = 0.8/(1 cm^2) = 0.8 C/W -> +20 C rise.
	ts, err := m.Temperatures([]Source{{PowerW: 25, AreaMM2: 100, Slot: 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := m.AmbientC + 25*0.8
	if math.Abs(ts[0]-want) > 1e-9 {
		t.Errorf("temperature = %v, want %v", ts[0], want)
	}
}

func TestCouplingDecaysWithDistance(t *testing.T) {
	m := Default()
	mk := func(slotB int) float64 {
		ts, err := m.Temperatures([]Source{
			{PowerW: 0.001, AreaMM2: 50, Slot: 0},
			{PowerW: 40, AreaMM2: 50, Slot: slotB},
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return ts[0]
	}
	near, far := mk(1), mk(3)
	if near <= far {
		t.Errorf("coupling should decay with distance: near %v, far %v", near, far)
	}
	if near <= m.AmbientC {
		t.Error("neighbor heating missing")
	}
}

func TestHotterNeighborsRaisePeak(t *testing.T) {
	m := Default()
	alone, err := m.Peak([]Source{{PowerW: 30, AreaMM2: 50, Slot: 0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := m.Peak([]Source{
		{PowerW: 30, AreaMM2: 50, Slot: 0},
		{PowerW: 30, AreaMM2: 50, Slot: 1},
		{PowerW: 30, AreaMM2: 50, Slot: 2},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if crowded <= alone {
		t.Errorf("crowded package peak %v not above isolated %v", crowded, alone)
	}
}

// TestTemperatureErrors: every invalid input fails Temperatures, and Peak
// fails it with the same error text.
func TestTemperatureErrors(t *testing.T) {
	cases := []struct {
		name    string
		m       Model
		sources []Source
		gridW   int
	}{
		{"zero area", Default(), []Source{{PowerW: 1, AreaMM2: 0, Slot: 0}}, 1},
		{"negative power", Default(), []Source{{PowerW: -1, AreaMM2: 10, Slot: 0}}, 1},
		{"bad grid", Default(), nil, 0},
		{"invalid model", Model{RthCPerWCM2: -1}, nil, 1},
		{"second source bad", Default(), []Source{{PowerW: 1, AreaMM2: 10}, {PowerW: -1, AreaMM2: -1, Slot: 1}}, 2},
	}
	for _, c := range cases {
		_, err := c.m.Temperatures(c.sources, c.gridW)
		if err == nil {
			t.Errorf("%s: Temperatures should fail", c.name)
			continue
		}
		if _, perr := c.m.Peak(c.sources, c.gridW); perr == nil || perr.Error() != err.Error() {
			t.Errorf("%s: Peak error %v, Temperatures error %v", c.name, perr, err)
		}
	}
}

// TestPeakMatchesTemperatures: Peak is the maximum of AmbientC and every
// Temperatures entry, bit for bit, over random packages on grids 1 to 5
// slots wide, a third of whose sources draw no power.
func TestPeakMatchesTemperatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Default()
	for trial := 0; trial < 500; trial++ {
		w := 1 + rng.Intn(5)
		srcs := make([]Source, 1+rng.Intn(8))
		for i := range srcs {
			srcs[i] = Source{AreaMM2: 1 + 99*rng.Float64(), Slot: rng.Intn(w * len(srcs))}
			if rng.Intn(3) > 0 {
				srcs[i].PowerW = 60 * rng.Float64()
			}
		}
		ts, err := m.Temperatures(srcs, w)
		if err != nil {
			t.Fatal(err)
		}
		want := m.AmbientC
		for _, x := range ts {
			want = math.Max(want, x)
		}
		got, err := m.Peak(srcs, w)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (width %d, %+v): Peak %v (%v), want %v", trial, w, srcs, got, err, want)
		}
	}
}

// TestQuickMonotoneInPower: more power never cools any die.
func TestQuickMonotoneInPower(t *testing.T) {
	m := Default()
	f := func(p1, p2 uint8) bool {
		lo := float64(p1 % 50)
		hi := lo + float64(p2%50) + 1
		a, err1 := m.Peak([]Source{{PowerW: lo, AreaMM2: 40, Slot: 0}}, 1)
		b, err2 := m.Peak([]Source{{PowerW: hi, AreaMM2: 40, Slot: 0}}, 1)
		return err1 == nil && err2 == nil && b > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
