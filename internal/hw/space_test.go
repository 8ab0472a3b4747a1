package hw

import (
	"strings"
	"testing"
)

// TestPaperSpaceMatchesSpace pins the lazy paper spec to the paper's 81
// points, 16/32/64 on every axis, coordinate for coordinate and in row-major
// order with NPool fastest, in At and in its Points() slice.
func TestPaperSpaceMatchesSpace(t *testing.T) {
	vals := []int{16, 32, 64}
	var want []Point
	for _, s := range vals {
		for _, n := range vals {
			for _, a := range vals {
				for _, p := range vals {
					want = append(want, Point{SASize: s, NSA: n, NAct: a, NPool: p})
				}
			}
		}
	}
	spec := PaperSpace()
	if spec.Len() != len(want) {
		t.Fatalf("PaperSpace().Len() = %d, want %d", spec.Len(), len(want))
	}
	for i, p := range want {
		if got := spec.At(i); got != p {
			t.Fatalf("PaperSpace().At(%d) = %+v, want %+v", i, got, p)
		}
	}
	pts := spec.Points()
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("Points()[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

// TestSpaceSpecAtEnumeratesFullCartesianProduct checks that At visits every
// axis combination exactly once, in row-major order with NPool fastest.
func TestSpaceSpecAtEnumeratesFullCartesianProduct(t *testing.T) {
	spec := SpaceSpec{
		Name:    "t",
		SASizes: []int{8, 16},
		NSAs:    []int{4, 8, 12},
		NActs:   []int{16},
		NPools:  []int{32, 64},
	}
	if spec.Len() != 2*3*1*2 {
		t.Fatalf("Len = %d, want 12", spec.Len())
	}
	seen := make(map[Point]int)
	var prev Point
	for i := 0; i < spec.Len(); i++ {
		p := spec.At(i)
		if _, dup := seen[p]; dup {
			t.Fatalf("At(%d) = %+v repeats earlier point", i, p)
		}
		seen[p] = i
		if i > 0 && lessPoint(p, prev) {
			t.Fatalf("At(%d) = %+v out of row-major order after %+v", i, p, prev)
		}
		prev = p
	}
	// NPool varies fastest: consecutive indices differ only in NPool inside a
	// block.
	if a, b := spec.At(0), spec.At(1); a.NPool == b.NPool || a.SASize != b.SASize || a.NSA != b.NSA || a.NAct != b.NAct {
		t.Fatalf("NPool must vary fastest: At(0)=%+v At(1)=%+v", a, b)
	}
}

func lessPoint(a, b Point) bool {
	if a.SASize != b.SASize {
		return a.SASize < b.SASize
	}
	if a.NSA != b.NSA {
		return a.NSA < b.NSA
	}
	if a.NAct != b.NAct {
		return a.NAct < b.NAct
	}
	return a.NPool < b.NPool
}

// TestFineSpacePreset checks the fine preset is valid, big enough to count as
// "large space" (>= 10k points per the PR 3 acceptance bar), and strictly
// denser than the paper space on every axis.
func TestFineSpacePreset(t *testing.T) {
	spec := FineSpace()
	if err := spec.Validate(); err != nil {
		t.Fatalf("FineSpace invalid: %v", err)
	}
	if spec.Len() < 10000 {
		t.Fatalf("FineSpace().Len() = %d, want >= 10000", spec.Len())
	}
	paper := PaperSpace()
	if len(spec.SASizes) <= len(paper.SASizes) || len(spec.NSAs) <= len(paper.NSAs) ||
		len(spec.NActs) <= len(paper.NActs) || len(spec.NPools) <= len(paper.NPools) {
		t.Fatalf("fine axes must be denser than paper: %+v", spec)
	}
	if !strings.Contains(spec.Desc(), "fine space") {
		t.Fatalf("Desc() = %q", spec.Desc())
	}
}

func TestSpaceSpecValidate(t *testing.T) {
	ok := PaperSpace()
	if err := ok.Validate(); err != nil {
		t.Fatalf("paper space invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SpaceSpec)
	}{
		{"empty axis", func(s *SpaceSpec) { s.NActs = nil }},
		{"non-positive value", func(s *SpaceSpec) { s.NSAs = []int{0, 16} }},
		{"descending", func(s *SpaceSpec) { s.SASizes = []int{32, 16} }},
		{"duplicate", func(s *SpaceSpec) { s.NPools = []int{16, 16, 32} }},
	}
	for _, tc := range cases {
		s := PaperSpace()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestParseSpace(t *testing.T) {
	for _, in := range []string{"", "paper", "Paper", " paper "} {
		spec, err := ParseSpace(in)
		if err != nil {
			t.Fatalf("ParseSpace(%q): %v", in, err)
		}
		if spec.Name != "paper" || spec.Len() != 81 {
			t.Fatalf("ParseSpace(%q) = %+v, want 81-point paper space", in, spec)
		}
	}
	fine, err := ParseSpace("fine")
	if err != nil || fine.Name != "fine" {
		t.Fatalf("ParseSpace(fine) = %+v, %v", fine, err)
	}

	spec, err := ParseSpace("3x3x3x3")
	if err != nil {
		t.Fatalf("ParseSpace(3x3x3x3): %v", err)
	}
	if spec.Len() != 81 {
		t.Fatalf("3x3x3x3 Len = %d, want 81", spec.Len())
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("3x3x3x3 invalid: %v", err)
	}

	big, err := ParseSpace("12x16x8x8")
	if err != nil {
		t.Fatalf("ParseSpace(12x16x8x8): %v", err)
	}
	if big.Len() != 12*16*8*8 {
		t.Fatalf("12x16x8x8 Len = %d", big.Len())
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("12x16x8x8 invalid: %v", err)
	}

	one, err := ParseSpace("1x1x1x1")
	if err != nil || one.Len() != 1 {
		t.Fatalf("ParseSpace(1x1x1x1) = %+v, %v", one, err)
	}

	for _, bad := range []string{"coarse", "3x3x3", "3x3x3x3x3", "0x3x3x3", "65x3x3x3", "ax3x3x3", "-1x3x3x3"} {
		if _, err := ParseSpace(bad); err == nil {
			t.Errorf("ParseSpace(%q) = nil error, want error", bad)
		}
	}
}

// TestAxisValuesAscendingInRange checks the generated axes behind NxNxNxN for
// every legal cardinality: strictly ascending positive multiples of 4
// anchored at 8.
func TestAxisValuesAscendingInRange(t *testing.T) {
	for n := 1; n <= 64; n++ {
		vs := axisValues(n)
		if len(vs) != n {
			t.Fatalf("axisValues(%d) has %d values", n, len(vs))
		}
		for i, v := range vs {
			if v <= 0 || v%4 != 0 {
				t.Fatalf("axisValues(%d)[%d] = %d: want positive multiple of 4", n, i, v)
			}
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("axisValues(%d) not strictly ascending: %v", n, vs)
			}
		}
		if n >= 2 && (vs[0] != 8 || vs[n-1] < 128) {
			t.Fatalf("axisValues(%d) should span [8, >=128]: %v", n, vs)
		}
	}
}

func TestPointListAdapter(t *testing.T) {
	all := PaperSpace().Points()
	pts := PointList(all)
	if pts.Len() != 81 || pts.At(5) != all[5] {
		t.Fatalf("PointList adapter mismatch")
	}
	if !strings.Contains(pts.Desc(), "81") {
		t.Fatalf("Desc() = %q", pts.Desc())
	}
}
