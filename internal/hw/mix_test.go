package hw

import (
	"strings"
	"testing"
)

func TestMixBasics(t *testing.T) {
	var z Mix
	if !z.IsZero() || z.Slots() != 0 {
		t.Errorf("zero mix: IsZero=%v Slots=%d", z.IsZero(), z.Slots())
	}
	m := Mix{Counts: [MaxMixTypes]uint16{8, 0, 4}}
	if m.IsZero() {
		t.Error("non-zero mix reported zero")
	}
	if m.Slots() != 12 {
		t.Errorf("Slots = %d, want 12", m.Slots())
	}
	if s := m.String(); s != "mix(8,0,4)" {
		t.Errorf("String = %q, want mix(8,0,4)", s)
	}
	p := Point{Mix: m, NAct: 16, NPool: 32}
	if s := p.String(); s != "mix(8,0,4) ACTx16 POOLx32" {
		t.Errorf("Point.String = %q", s)
	}
}

// smallSpec is a hand-sized spec whose full enumeration fits in a test table:
// two count values per catalogue type ({0, 2}, {0, 4}, {0, 8}, cycling).
func smallSpec(cat *Catalogue) MixSpec {
	counts := make([][]int, len(cat.Chiplets))
	for i := range counts {
		counts[i] = []int{0, 2 << (i % 3)}
	}
	return MixSpec{
		Name:   "small",
		Cat:    cat,
		Counts: counts,
		NActs:  []int{16, 32},
		NPools: []int{16, 64},
	}
}

// TestMixSpaceRowMajorOrder pins the enumeration order: NPool fastest, then
// NAct, then the mix list (itself odometer order with the last type fastest).
func TestMixSpaceRowMajorOrder(t *testing.T) {
	sp, err := smallSpec(Default()).Build()
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 count combinations minus the all-zero mix = 7 mixes, odometer order.
	wantMixes := []Mix{
		{Counts: [MaxMixTypes]uint16{0, 0, 8}},
		{Counts: [MaxMixTypes]uint16{0, 4, 0}},
		{Counts: [MaxMixTypes]uint16{0, 4, 8}},
		{Counts: [MaxMixTypes]uint16{2, 0, 0}},
		{Counts: [MaxMixTypes]uint16{2, 0, 8}},
		{Counts: [MaxMixTypes]uint16{2, 4, 0}},
		{Counts: [MaxMixTypes]uint16{2, 4, 8}},
	}
	if got := sp.Mixes(); len(got) != len(wantMixes) {
		t.Fatalf("%d mixes, want %d", len(got), len(wantMixes))
	} else {
		for i := range wantMixes {
			if got[i] != wantMixes[i] {
				t.Errorf("mix %d = %v, want %v", i, got[i], wantMixes[i])
			}
		}
	}
	if sp.Len() != 7*2*2 {
		t.Fatalf("Len = %d, want 28", sp.Len())
	}
	wantFirst := []Point{
		{Mix: wantMixes[0], NAct: 16, NPool: 16},
		{Mix: wantMixes[0], NAct: 16, NPool: 64},
		{Mix: wantMixes[0], NAct: 32, NPool: 16},
		{Mix: wantMixes[0], NAct: 32, NPool: 64},
		{Mix: wantMixes[1], NAct: 16, NPool: 16},
	}
	for i, want := range wantFirst {
		if got := sp.At(i); got != want {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestMixSpaceBijection checks Len/At over the presets: every index yields a
// distinct, catalogue-valid point with zero homogeneous axes, whose
// coordinates (CoordsOf) name its axis values and recompose (IndexOf) to
// the index.
func TestMixSpaceBijection(t *testing.T) {
	for _, build := range []func() (MixSpace, error){
		DefaultMixSpec(Default()).Build,
		smallSpec(mustLoad(t, "mobile-7nm.json")).Build,
	} {
		sp, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cat := sp.Catalogue()
		seen := make(map[Point]bool, sp.Len())
		for i := 0; i < sp.Len(); i++ {
			p := sp.At(i)
			if seen[p] {
				t.Fatalf("%s: duplicate point %v at %d", sp.Desc(), p, i)
			}
			seen[p] = true
			if p.SASize != 0 || p.NSA != 0 {
				t.Fatalf("%s: mix point %v carries homogeneous axes", sp.Desc(), p)
			}
			if err := cat.ValidateMix(p.Mix); err != nil {
				t.Fatalf("%s: At(%d): %v", sp.Desc(), i, err)
			}
			coords := make([]int, sp.Dims())
			sp.CoordsOf(i, coords)
			spec, nt := sp.Spec(), len(sp.Spec().Counts)
			for ti := 0; ti < nt; ti++ {
				if got := spec.Counts[ti][coords[ti]]; got != int(p.Mix.Counts[ti]) {
					t.Fatalf("%s: CoordsOf(%d) type %d count %d, point has %d", sp.Desc(), i, ti, got, p.Mix.Counts[ti])
				}
			}
			if spec.NActs[coords[nt]] != p.NAct || spec.NPools[coords[nt+1]] != p.NPool {
				t.Fatalf("%s: CoordsOf(%d) = %v does not name %v", sp.Desc(), i, coords, p)
			}
			if j := sp.IndexOf(coords); j != i {
				t.Fatalf("%s: IndexOf(CoordsOf(%d)) = %d", sp.Desc(), i, j)
			}
		}
	}
}

// TestMixSpecBudgets checks slot and area filtering against a brute-force
// re-enumeration.
func TestMixSpecBudgets(t *testing.T) {
	cat := Default()
	spec := DefaultMixSpec(cat)
	spec.MaxSlots = 64
	spec.MaxComputeAreaMM2 = 40
	sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(map[Mix]bool, len(sp.Mixes()))
	for _, m := range sp.Mixes() {
		admitted[m] = true
		if m.Slots() > 64 {
			t.Errorf("mix %v exceeds the slot budget", m)
		}
		if a := UM2ToMM2(cat.MixAreaUM2(m)); a > 40 {
			t.Errorf("mix %v area %g exceeds the area budget", m, a)
		}
	}
	// Brute force over the same grid: everything under budget must be present.
	n := 0
	for _, c0 := range spec.Counts[0] {
		for _, c1 := range spec.Counts[1] {
			for _, c2 := range spec.Counts[2] {
				m := Mix{Counts: [MaxMixTypes]uint16{uint16(c0), uint16(c1), uint16(c2)}}
				if m.IsZero() || m.Slots() > 64 || UM2ToMM2(cat.MixAreaUM2(m)) > 40 {
					continue
				}
				n++
				if !admitted[m] {
					t.Errorf("budget-admissible mix %v missing from Build", m)
				}
			}
		}
	}
	if n != len(sp.Mixes()) {
		t.Errorf("Build admitted %d mixes, brute force %d", len(sp.Mixes()), n)
	}
}

func TestMixSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s *MixSpec)
		errPart string
	}{
		{"axis count mismatch", func(s *MixSpec) { s.Counts = s.Counts[:1] }, "count axes"},
		{"empty count axis", func(s *MixSpec) { s.Counts[0] = nil }, "empty count axis"},
		{"negative count", func(s *MixSpec) { s.Counts[0] = []int{-1, 2} }, "out of range"},
		{"unsorted counts", func(s *MixSpec) { s.Counts[0] = []int{4, 2} }, "ascending"},
		{"empty NActs", func(s *MixSpec) { s.NActs = nil }, "empty NActs"},
		{"non-positive NPool", func(s *MixSpec) { s.NPools = []int{0, 16} }, "non-positive"},
		{"unsorted NPools", func(s *MixSpec) { s.NPools = []int{32, 16} }, "ascending"},
	}
	for _, tc := range cases {
		s := smallSpec(Default())
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the broken spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}
	// A budget that admits nothing must fail at Build, not produce an empty
	// space.
	s := smallSpec(Default())
	s.MaxSlots = 1
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "admits no mixes") {
		t.Errorf("over-tight budget: err = %v", err)
	}
}

// TestFineMixSpecScale pins the >=10^5-point acceptance shape of the
// "mixfine" preset on the default 3-type catalogue: 1727 mixes x 64
// element-bank points.
func TestFineMixSpecScale(t *testing.T) {
	sp, err := FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 110528 {
		t.Fatalf("mixfine = %d points, want 110528", sp.Len())
	}
	if len(sp.Mixes()) != 12*12*12-1 {
		t.Errorf("mixfine admits %d mixes, want 1727", len(sp.Mixes()))
	}
}

// TestDefaultMixSpecSize pins the "mix" preset on the default 3-type
// catalogue: of the 5^3 - 1 non-zero count vectors, the 128-slot budget
// admits 114, each crossed with 9 element-bank points.
func TestDefaultMixSpecSize(t *testing.T) {
	sp, err := DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Mixes()) != 114 || sp.Len() != 1026 {
		t.Errorf("mix admits %d mixes, %d points; want 114 mixes, 1026 points", len(sp.Mixes()), sp.Len())
	}
}

func TestParseSpaceWith(t *testing.T) {
	mob := mustLoad(t, "mobile-7nm.json")
	mix, err := ParseSpaceWith("mix", mob)
	if err != nil {
		t.Fatal(err)
	}
	if CatalogueOf(mix) != mob {
		t.Error("mix space does not carry its catalogue")
	}
	if !strings.Contains(mix.Desc(), "mobile-7nm") {
		t.Errorf("Desc %q does not name the catalogue", mix.Desc())
	}
	fine, err := ParseSpaceWith("mixfine", nil)
	if err != nil {
		t.Fatal(err)
	}
	if CatalogueOf(fine) != Default() {
		t.Error("nil-catalogue mixfine did not default")
	}
	// Homogeneous grammar still parses, with the catalogue attached.
	paper, err := ParseSpaceWith("paper", mob)
	if err != nil {
		t.Fatal(err)
	}
	if CatalogueOf(paper) != mob {
		t.Error("homogeneous space does not carry the catalogue")
	}
	if paper.Len() != 81 {
		t.Errorf("paper space = %d points", paper.Len())
	}
	// Plain ParseSpace output carries no catalogue; PointList never does.
	plain, err := ParseSpace("paper")
	if err != nil {
		t.Fatal(err)
	}
	if CatalogueOf(plain) != nil {
		t.Error("ParseSpace attached a catalogue")
	}
	if CatalogueOf(PointList(Space())) != nil {
		t.Error("PointList claims a catalogue")
	}
	if _, err := ParseSpaceWith("bogus", nil); err == nil {
		t.Error("bogus space string accepted")
	}
}
