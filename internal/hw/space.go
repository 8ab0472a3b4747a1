package hw

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// DesignSpace is a lazily indexable design space: the streaming sweep in
// internal/dse asks for points by index instead of holding a materialized
// []Point, so spaces with tens of thousands of coordinates cost no memory
// beyond their axis value lists. Implementations must be pure: At(i) returns
// the same point for the same i on every call, so chunked parallel sweeps are
// deterministic at any worker count.
type DesignSpace interface {
	// Len is the number of points in the space.
	Len() int
	// At returns the i-th point, 0 <= i < Len(). Enumeration order is part
	// of the contract: tie-breaks in selection keep the lowest index.
	At(i int) Point
	// Desc is a short human-readable provenance string ("paper space (81
	// points ...)"), threaded into dse.Result.SpaceDesc and report output.
	Desc() string
}

// CoordSpace is the optional DesignSpace extension for spaces whose points
// are addressable as a vector of per-axis value indices — the random-access
// coordinate view the budgeted search layer (internal/search) moves over.
// Coordinates are value-list *indices*, not values: axis d ranges over
// [0, Card(d)), and stepping a coordinate by ±1 is a minimal neighborhood
// move regardless of how the underlying values are spaced.
type CoordSpace interface {
	DesignSpace
	// Dims is the number of coordinate axes.
	Dims() int
	// Card returns the cardinality of axis d, 0 <= d < Dims().
	Card(d int) int
	// CoordsOf decomposes point index i into per-axis coordinates, writing
	// into out (len >= Dims()).
	CoordsOf(i int, out []int)
	// IndexOf recomposes coordinates into a point index, or -1 when the
	// coordinate tuple is not admitted by the space (e.g. a mix filtered
	// out by slot/area budgets). Coordinates must be in range.
	IndexOf(coords []int) int
	// LatencyCornerIndices returns point indices among which every model's
	// minimum-latency point lies (the search's calibration seeds), or nil
	// when seeding them all is not worth the evaluations.
	LatencyCornerIndices() []int
}

// PointList adapts an explicit, materialized point slice to the DesignSpace
// interface — the compatibility path for user-supplied spaces.
type PointList []Point

// Len returns the number of points.
func (p PointList) Len() int { return len(p) }

// At returns the i-th point.
func (p PointList) At(i int) Point { return p[i] }

// Desc describes the list.
func (p PointList) Desc() string {
	return fmt.Sprintf("explicit point list (%d points)", len(p))
}

// SpaceSpec is a cartesian design-space generator: one ascending value list
// per tunable axis. Points are enumerated lazily by index in row-major order
// with NPool varying fastest, so a SpaceSpec and its Points() slice are
// interchangeable coordinate for coordinate. The zero value is invalid; use
// PaperSpace, FineSpace or ParseSpace.
type SpaceSpec struct {
	// Name labels the spec in Desc ("paper", "fine", "12x16x8x8", ...).
	Name string
	// Axis value lists, each strictly ascending and positive.
	SASizes []int
	NSAs    []int
	NActs   []int
	NPools  []int
	// Cat is the catalogue the space's points evaluate under (nil: the
	// built-in default). ParseSpaceWith sets it; the streaming sweep reads
	// it via CatalogueOf.
	Cat *Catalogue
}

// Catalogue returns the spec's catalogue (nil means the built-in default).
func (s SpaceSpec) Catalogue() *Catalogue { return s.Cat }

// Len returns the number of points (the product of the axis cardinalities).
func (s SpaceSpec) Len() int {
	return len(s.SASizes) * len(s.NSAs) * len(s.NActs) * len(s.NPools)
}

// At returns the i-th point of the row-major enumeration (SASize outermost,
// NPool fastest).
func (s SpaceSpec) At(i int) Point {
	pi := i % len(s.NPools)
	i /= len(s.NPools)
	ai := i % len(s.NActs)
	i /= len(s.NActs)
	ni := i % len(s.NSAs)
	i /= len(s.NSAs)
	return Point{SASize: s.SASizes[i], NSA: s.NSAs[ni], NAct: s.NActs[ai], NPool: s.NPools[pi]}
}

// Dims returns the number of coordinate axes (SASize, NSA, NAct, NPool).
func (s SpaceSpec) Dims() int { return 4 }

// Card returns the cardinality of axis d in enumeration-major order:
// 0=SASize, 1=NSA, 2=NAct, 3=NPool.
func (s SpaceSpec) Card(d int) int {
	switch d {
	case 0:
		return len(s.SASizes)
	case 1:
		return len(s.NSAs)
	case 2:
		return len(s.NActs)
	default:
		return len(s.NPools)
	}
}

// CoordsOf decomposes point index i into axis value indices.
func (s SpaceSpec) CoordsOf(i int, out []int) {
	out[3] = i % len(s.NPools)
	i /= len(s.NPools)
	out[2] = i % len(s.NActs)
	i /= len(s.NActs)
	out[1] = i % len(s.NSAs)
	out[0] = i / len(s.NSAs)
}

// IndexOf recomposes axis value indices into a point index. Every in-range
// tuple is admitted.
func (s SpaceSpec) IndexOf(coords []int) int {
	return ((coords[0]*len(s.NSAs)+coords[1])*len(s.NActs)+coords[2])*len(s.NPools) + coords[3]
}

// LatencyCornerIndices returns the point indices of one maximal-count point
// per SASize — the seed set that calibrates a budgeted search's latency
// reference exactly. Latency is non-increasing in NSA/NAct/NPool but not
// monotone across SASize, so every model's fastest point is among them.
func (s SpaceSpec) LatencyCornerIndices() []int {
	block := len(s.NSAs) * len(s.NActs) * len(s.NPools)
	out := make([]int, 0, len(s.SASizes))
	for i := range s.SASizes {
		out = append(out, (i+1)*block-1)
	}
	return out
}

// Desc describes the spec compactly, e.g.
// "paper space (81 points: 3 SASizes x 3 NSAs x 3 NActs x 3 NPools)".
func (s SpaceSpec) Desc() string {
	name := s.Name
	if name == "" {
		name = "custom"
	}
	return fmt.Sprintf("%s space (%d points: %d SASizes x %d NSAs x %d NActs x %d NPools)",
		name, s.Len(), len(s.SASizes), len(s.NSAs), len(s.NActs), len(s.NPools))
}

// Validate checks that every axis is non-empty, positive and strictly
// ascending — the canonical form that keeps enumeration duplicate-free by
// construction.
func (s SpaceSpec) Validate() error {
	for _, ax := range []struct {
		name   string
		values []int
	}{
		{"SASizes", s.SASizes}, {"NSAs", s.NSAs}, {"NActs", s.NActs}, {"NPools", s.NPools},
	} {
		if len(ax.values) == 0 {
			return fmt.Errorf("hw: space spec %q: empty %s axis", s.Name, ax.name)
		}
		for i, v := range ax.values {
			if v <= 0 {
				return fmt.Errorf("hw: space spec %q: non-positive %s value %d", s.Name, ax.name, v)
			}
			if i > 0 && v <= ax.values[i-1] {
				return fmt.Errorf("hw: space spec %q: %s values must be strictly ascending", s.Name, ax.name)
			}
		}
	}
	return nil
}

// Points materializes the whole space — only sensible for small specs; the
// streaming sweep never calls it.
func (s SpaceSpec) Points() []Point {
	out := make([]Point, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		out = append(out, s.At(i))
	}
	return out
}

// PaperSpace returns the paper's 81-point DSE space (3 values per axis),
// Algorithm 1's "DSE configs", as a lazy spec; Points() materializes it.
func PaperSpace() SpaceSpec {
	return SpaceSpec{
		Name:    "paper",
		SASizes: []int{16, 32, 64},
		NSAs:    []int{16, 32, 64},
		NActs:   []int{16, 32, 64},
		NPools:  []int{16, 32, 64},
	}
}

// FineSpace returns the fine-grained preset: denser SASize/NSA/NAct/NPool
// steps spanning the same 8-128 envelope, 12288 points — a space two orders
// of magnitude beyond the paper's that was previously infeasible to
// materialize as a per-point summary matrix.
func FineSpace() SpaceSpec {
	return SpaceSpec{
		Name:    "fine",
		SASizes: []int{8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128},
		NSAs:    []int{4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128},
		NActs:   []int{8, 16, 24, 32, 48, 64, 96, 128},
		NPools:  []int{8, 16, 24, 32, 48, 64, 96, 128},
	}
}

// axisValues returns n geometrically spaced values spanning [8, 128], rounded
// to multiples of 4 and forced strictly ascending — the axis generator behind
// the "NxNxNxN" custom space syntax.
func axisValues(n int) []int {
	if n == 1 {
		return []int{32}
	}
	out := make([]int, 0, n)
	prev := 0
	for i := 0; i < n; i++ {
		v := 8 * math.Pow(16, float64(i)/float64(n-1))
		r := int(math.Round(v/4)) * 4
		if r <= prev {
			r = prev + 4
		}
		out = append(out, r)
		prev = r
	}
	return out
}

// ParseSpace resolves a -space flag value: "paper", "fine", or a custom
// "AxBxCxD" axis-cardinality form (A SASize values x B NSA values x C NAct
// values x D NPool values, each axis geometrically spaced over 8-128).
func ParseSpace(s string) (SpaceSpec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "paper":
		return PaperSpace(), nil
	case "fine":
		return FineSpace(), nil
	}
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 4 {
		return SpaceSpec{}, fmt.Errorf("hw: space %q: want paper, fine or AxBxCxD", s)
	}
	ns := make([]int, 4)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 || v > 64 {
			return SpaceSpec{}, fmt.Errorf("hw: space %q: axis cardinality %q must be 1..64", s, p)
		}
		ns[i] = v
	}
	spec := SpaceSpec{
		Name:    fmt.Sprintf("%dx%dx%dx%d", ns[0], ns[1], ns[2], ns[3]),
		SASizes: axisValues(ns[0]),
		NSAs:    axisValues(ns[1]),
		NActs:   axisValues(ns[2]),
		NPools:  axisValues(ns[3]),
	}
	if err := spec.Validate(); err != nil {
		return SpaceSpec{}, err
	}
	return spec, nil
}
