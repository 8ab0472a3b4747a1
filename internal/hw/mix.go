// Heterogeneous compute mixes: design-space points that instantiate counts of
// hardened catalogue chiplet types instead of sizing one homogeneous array
// bank. A Mix is a fixed-size comparable array so Point stays usable as a map
// key and ==-comparable everywhere the sweep machinery relies on it.
package hw

import (
	"fmt"
	"strings"
)

// MaxMixTypes bounds the chiplet types one catalogue (and so one mix) can
// carry; fixed so Mix is a comparable array.
const MaxMixTypes = 8

// Mix is the per-type instance count vector of a heterogeneous compute
// configuration, indexed by catalogue chiplet-type position. The zero value
// means "homogeneous": the Point's SASize/NSA axes describe the compute bank.
type Mix struct {
	Counts [MaxMixTypes]uint16
}

// IsZero reports whether the mix is the homogeneous sentinel.
func (m Mix) IsZero() bool { return m == Mix{} }

// Slots returns the total chiplet instance count of the mix.
func (m Mix) Slots() int {
	n := 0
	for _, c := range m.Counts {
		n += int(c)
	}
	return n
}

// String renders the active counts compactly, e.g. "mix(8,0,4)".
func (m Mix) String() string {
	hi := 0
	for i, c := range m.Counts {
		if c > 0 {
			hi = i + 1
		}
	}
	parts := make([]string, hi)
	for i := 0; i < hi; i++ {
		parts[i] = fmt.Sprintf("%d", m.Counts[i])
	}
	return "mix(" + strings.Join(parts, ",") + ")"
}

// CatalogueSpace is the optional DesignSpace extension for spaces whose
// points must evaluate under a specific catalogue; the streaming sweep stamps
// the catalogue into its per-model config templates when present.
type CatalogueSpace interface {
	DesignSpace
	// Catalogue returns the catalogue the space's points draw from (nil:
	// the built-in default).
	Catalogue() *Catalogue
}

// CatalogueOf returns the space's catalogue when it carries one, else nil.
func CatalogueOf(s DesignSpace) *Catalogue {
	if cs, ok := s.(CatalogueSpace); ok {
		return cs.Catalogue()
	}
	return nil
}

// MixSpec generates a heterogeneous design space: the cartesian product of
// per-type count lists crossed with the NAct/NPool axes, filtered by optional
// slot and compute-area budgets. Build materializes only the filtered mix
// list (one entry per surviving count combination) and a four-byte index
// entry per count combination; the NAct/NPool cross stays lazy, so a
// MixSpace streams like a SpaceSpec.
type MixSpec struct {
	// Name labels the spec in Desc ("mix", "mixfine", ...).
	Name string
	// Cat is the catalogue the counts index into (nil: Default).
	Cat *Catalogue
	// Counts holds one ascending value list per catalogue chiplet type;
	// values may include 0 (type absent from the mix).
	Counts [][]int
	// NActs and NPools are the element-wise bank axes, as in SpaceSpec.
	NActs, NPools []int
	// MaxSlots caps the total chiplet instance count of a mix (0: unlimited).
	MaxSlots int
	// MaxComputeAreaMM2 caps the summed hardened-IP area of a mix's compute
	// chiplets (0: unlimited).
	MaxComputeAreaMM2 float64
}

// Catalogue returns the spec's catalogue, defaulting to the built-in one.
func (s MixSpec) catalogue() *Catalogue {
	if s.Cat != nil {
		return s.Cat
	}
	return Default()
}

// Validate checks the spec's axes against the catalogue.
func (s MixSpec) Validate() error {
	cat := s.catalogue()
	if err := cat.Validate(); err != nil {
		return err
	}
	if len(s.Counts) != len(cat.Chiplets) {
		return fmt.Errorf("hw: mix spec %q: %d count axes for %d catalogue types",
			s.Name, len(s.Counts), len(cat.Chiplets))
	}
	for ti, vs := range s.Counts {
		if len(vs) == 0 {
			return fmt.Errorf("hw: mix spec %q: empty count axis for type %q", s.Name, cat.Chiplets[ti].Name)
		}
		for i, v := range vs {
			if v < 0 || v > 1<<16-1 {
				return fmt.Errorf("hw: mix spec %q: type %q count %d out of range", s.Name, cat.Chiplets[ti].Name, v)
			}
			if i > 0 && v <= vs[i-1] {
				return fmt.Errorf("hw: mix spec %q: type %q counts must be strictly ascending", s.Name, cat.Chiplets[ti].Name)
			}
		}
	}
	for _, ax := range []struct {
		name   string
		values []int
	}{
		{"NActs", s.NActs}, {"NPools", s.NPools},
	} {
		if len(ax.values) == 0 {
			return fmt.Errorf("hw: mix spec %q: empty %s axis", s.Name, ax.name)
		}
		for i, v := range ax.values {
			if v <= 0 {
				return fmt.Errorf("hw: mix spec %q: non-positive %s value %d", s.Name, ax.name, v)
			}
			if i > 0 && v <= ax.values[i-1] {
				return fmt.Errorf("hw: mix spec %q: %s values must be strictly ascending", s.Name, ax.name)
			}
		}
	}
	return nil
}

// admits applies the slot and area budgets to one mix.
func (s MixSpec) admits(cat *Catalogue, m Mix) bool {
	if m.IsZero() {
		return false
	}
	if s.MaxSlots > 0 && m.Slots() > s.MaxSlots {
		return false
	}
	if s.MaxComputeAreaMM2 > 0 && UM2ToMM2(cat.MixAreaUM2(m)) > s.MaxComputeAreaMM2 {
		return false
	}
	return true
}

// Build enumerates the budget-admissible mixes in row-major order (type 0
// outermost, last type fastest) and returns the streaming space; the same
// walk fills the space's count-tuple index. The all-zero mix is always
// dropped: a space point must provision compute.
func (s MixSpec) Build() (MixSpace, error) {
	if err := s.Validate(); err != nil {
		return MixSpace{}, err
	}
	cat := s.catalogue()
	var mixes []Mix
	var coords []uint16
	tuples := 1
	for _, vs := range s.Counts {
		tuples *= len(vs)
	}
	index := make([]int32, 0, tuples)
	idx := make([]int, len(s.Counts))
	for {
		var m Mix
		for ti, vi := range idx {
			m.Counts[ti] = uint16(s.Counts[ti][vi])
		}
		if s.admits(cat, m) {
			index = append(index, int32(len(mixes)))
			mixes = append(mixes, m)
			for _, vi := range idx {
				coords = append(coords, uint16(vi))
			}
		} else {
			index = append(index, -1)
		}
		// Odometer increment, last axis fastest.
		ti := len(idx) - 1
		for ; ti >= 0; ti-- {
			idx[ti]++
			if idx[ti] < len(s.Counts[ti]) {
				break
			}
			idx[ti] = 0
		}
		if ti < 0 {
			break
		}
	}
	if len(mixes) == 0 {
		return MixSpace{}, fmt.Errorf("hw: mix spec %q admits no mixes under its budgets", s.Name)
	}
	// Built spaces are kept (a served job holds its resolved space), so the
	// coordinates are copied to their exact size.
	coords = append([]uint16(nil), coords...)
	return MixSpace{spec: s, cat: cat, mixes: mixes, index: index, coords: coords}, nil
}

// MixSpace is the built, lazily indexable heterogeneous design space:
// Len = mixes x NActs x NPools, enumerated row-major with NPool fastest —
// the same trailing-axis order as SpaceSpec, so streaming-sweep tie-breaks
// behave identically across space kinds.
type MixSpace struct {
	spec  MixSpec
	cat   *Catalogue
	mixes []Mix
	// index holds, for every count tuple in Build's row-major order, the
	// position of its mix in mixes, or -1 when the budgets dropped the
	// tuple (the all-zero mix included).
	index []int32
	// coords holds each admitted mix's count-axis indices, one per type,
	// mix-major. An axis holds at most 1<<16 distinct counts, so an index
	// fits in a uint16.
	coords []uint16
}

// Len returns the number of points.
func (s MixSpace) Len() int { return len(s.mixes) * len(s.spec.NActs) * len(s.spec.NPools) }

// At returns the i-th point: a Point whose Mix is set and whose SASize/NSA
// axes are zero (heterogeneous compute).
func (s MixSpace) At(i int) Point {
	pi := i % len(s.spec.NPools)
	i /= len(s.spec.NPools)
	ai := i % len(s.spec.NActs)
	i /= len(s.spec.NActs)
	return Point{Mix: s.mixes[i], NAct: s.spec.NActs[ai], NPool: s.spec.NPools[pi]}
}

// Dims returns the number of coordinate axes: one count axis per catalogue
// type plus NAct and NPool.
func (s MixSpace) Dims() int { return len(s.spec.Counts) + 2 }

// Card returns the cardinality of axis d: type-count axes first (in
// catalogue order), then NAct, then NPool.
func (s MixSpace) Card(d int) int {
	nt := len(s.spec.Counts)
	switch {
	case d < nt:
		return len(s.spec.Counts[d])
	case d == nt:
		return len(s.spec.NActs)
	default:
		return len(s.spec.NPools)
	}
}

// CoordsOf decomposes point index i into per-type count indices followed by
// the NAct and NPool indices.
func (s MixSpace) CoordsOf(i int, out []int) {
	nt := len(s.spec.Counts)
	out[nt+1] = i % len(s.spec.NPools)
	i /= len(s.spec.NPools)
	out[nt] = i % len(s.spec.NActs)
	j := i / len(s.spec.NActs)
	for ti, c := range s.coords[j*nt : (j+1)*nt] {
		out[ti] = int(c)
	}
}

// IndexOf recomposes coordinates into a point index, or -1 when the count
// tuple names a mix the budgets filtered out (or the all-zero mix).
func (s MixSpace) IndexOf(coords []int) int {
	nt := len(s.spec.Counts)
	t := 0
	for ti := 0; ti < nt; ti++ {
		t = t*len(s.spec.Counts[ti]) + coords[ti]
	}
	j := int(s.index[t])
	if j < 0 {
		return -1
	}
	return (j*len(s.spec.NActs)+coords[nt])*len(s.spec.NPools) + coords[nt+1]
}

// LatencyCornerIndices returns the point indices of the admitted mixes'
// maximal-bank corners — the seed set that calibrates a budgeted search's
// latency reference exactly. Latency is non-increasing in every per-type
// count and in NAct/NPool, and each admitted mix at maximal banks sits last
// in its enumeration block. When the all-max mix is admitted its corner alone
// holds every model's fastest latency; when budgets filtered it out, no single
// mix dominates every admitted one on counts, so the set is every admitted
// mix's corner — or nil past 256 mixes, where seeding them all is not worth
// the evaluations.
func (s MixSpace) LatencyCornerIndices() []int {
	block := len(s.spec.NActs) * len(s.spec.NPools)
	// The all-max count tuple is the last in Build's order.
	if j := int(s.index[len(s.index)-1]); j >= 0 {
		return []int{(j+1)*block - 1}
	}
	const maxCorners = 256
	if len(s.mixes) > maxCorners {
		return nil
	}
	out := make([]int, 0, len(s.mixes))
	for j := range s.mixes {
		out = append(out, (j+1)*block-1)
	}
	return out
}

// Desc describes the space, including the catalogue it draws from.
func (s MixSpace) Desc() string {
	name := s.spec.Name
	if name == "" {
		name = "custom"
	}
	return fmt.Sprintf("%s mix space (%d points: %d mixes of %d %q types x %d NActs x %d NPools)",
		name, s.Len(), len(s.mixes), len(s.cat.Chiplets), s.cat.Name, len(s.spec.NActs), len(s.spec.NPools))
}

// Catalogue returns the catalogue the space's points draw from.
func (s MixSpace) Catalogue() *Catalogue { return s.cat }

// Mixes returns the admitted mixes in enumeration order (shared slice; do
// not mutate).
func (s MixSpace) Mixes() []Mix { return s.mixes }

// Spec returns the spec the space was built from (shared slices; do not
// mutate).
func (s MixSpace) Spec() MixSpec { return s.spec }

// DefaultMixSpec returns the "mix" preset: a coarse count grid over every
// catalogue type under a 128-slot budget — for the default 3-type catalogue,
// 114 admitted mixes x 9 element-bank points = 1026 points.
func DefaultMixSpec(cat *Catalogue) MixSpec {
	if cat == nil {
		cat = Default()
	}
	counts := make([][]int, len(cat.Chiplets))
	for i := range counts {
		counts[i] = []int{0, 8, 16, 32, 64}
	}
	return MixSpec{
		Name:     "mix",
		Cat:      cat,
		Counts:   counts,
		NActs:    []int{16, 32, 64},
		NPools:   []int{16, 32, 64},
		MaxSlots: 128,
	}
}

// FineMixSpec returns the "mixfine" preset: a dense unbudgeted count grid —
// for the default 3-type catalogue, 1727 mixes x 64 element-bank points =
// 110528 points, the >=10^5-point heterogeneous stress space.
func FineMixSpec(cat *Catalogue) MixSpec {
	if cat == nil {
		cat = Default()
	}
	counts := make([][]int, len(cat.Chiplets))
	for i := range counts {
		counts[i] = []int{0, 4, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64}
	}
	return MixSpec{
		Name:   "mixfine",
		Cat:    cat,
		Counts: counts,
		NActs:  []int{8, 16, 24, 32, 48, 64, 96, 128},
		NPools: []int{8, 16, 24, 32, 48, 64, 96, 128},
	}
}

// ParseSpaceWith resolves a -space flag value against a catalogue: the
// homogeneous grammar of ParseSpace ("paper", "fine", "AxBxCxD") with the
// catalogue attached for cache-key separation, plus the heterogeneous
// presets "mix" and "mixfine" enumerating catalogue-type count vectors.
func ParseSpaceWith(s string, cat *Catalogue) (DesignSpace, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mix":
		return DefaultMixSpec(cat).Build()
	case "mixfine":
		return FineMixSpec(cat).Build()
	}
	spec, err := ParseSpace(s)
	if err != nil {
		return nil, err
	}
	spec.Cat = cat
	return spec, nil
}
