package hw

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/workload"
)

// Point is one coordinate of the tunable hardware parameter file: the four
// quantities DSE sweeps (systolic-array size, number of arrays, number of
// activation units per activation bank, number of pooling units per pooling
// bank). The paper's DSE run "encompassed 81 configurations": 3^4 points.
type Point struct {
	SASize int // systolic array dimension (SASize x SASize)
	NSA    int // number of systolic arrays
	NAct   int // units per activation bank
	NPool  int // units per pooling bank
	// Mix, when non-zero, replaces the homogeneous SASize/NSA compute bank
	// with per-catalogue-type chiplet counts (see mix.go); SASize and NSA are
	// zero on such points. Comparable, so Point stays a valid map key.
	Mix Mix
}

// String renders the point compactly, e.g. "32x32 SAx32 ACTx16 POOLx16", or
// "mix(8,0,4) ACTx16 POOLx16" for heterogeneous points.
func (p Point) String() string {
	if !p.Mix.IsZero() {
		return fmt.Sprintf("%v ACTx%d POOLx%d", p.Mix, p.NAct, p.NPool)
	}
	return fmt.Sprintf("%dx%d SAx%d ACTx%d POOLx%d", p.SASize, p.SASize, p.NSA, p.NAct, p.NPool)
}

// Space returns the 81-point design space of Algorithm 1's "DSE configs".
func Space() []Point {
	sizes := []int{16, 32, 64}
	arrays := []int{16, 32, 64}
	acts := []int{16, 32, 64}
	pools := []int{16, 32, 64}
	out := make([]Point, 0, len(sizes)*len(arrays)*len(acts)*len(pools))
	for _, s := range sizes {
		for _, n := range arrays {
			for _, a := range acts {
				for _, p := range pools {
					out = append(out, Point{SASize: s, NSA: n, NAct: a, NPool: p})
				}
			}
		}
	}
	return out
}

// EngineCount is the number of Flatten/Permute engine instances provisioned
// when a configuration includes those units (fixed; not a DSE dimension).
const EngineCount = 4

// Config is a complete hardware design configuration: a DSE point plus the
// unit kinds the served algorithms require. It corresponds to one row of
// Table II once clustered into chiplets.
type Config struct {
	Point
	Acts    []Unit // activation banks present, ascending unit order
	Pools   []Unit // pooling banks present, ascending unit order
	Flatten bool
	Permute bool
	// Precision is the compute datapath width (zero value: Int8, the
	// paper's datapath; Int16 for the D8 ablation).
	Precision Precision
	// Cat is the catalogue supplying unit PPA (nil: the built-in default —
	// the zero-config path, bit-identical to the pre-catalogue constants).
	Cat *Catalogue
}

// Catalogue returns the configuration's catalogue, defaulting to the
// built-in one; never nil.
func (c Config) Catalogue() *Catalogue { return orDefault(c.Cat) }

// orDefault returns cat, or the built-in catalogue when cat is nil.
func orDefault(cat *Catalogue) *Catalogue {
	if cat != nil {
		return cat
	}
	return Default()
}

// NewConfig builds a configuration from a DSE point and the unit requirements
// of the models it must serve.
func NewConfig(p Point, models []*workload.Model) Config {
	need := make(map[Unit]bool)
	for _, m := range models {
		for u := range UnitsFor(m) {
			need[u] = true
		}
	}
	return configFromUnits(p, need)
}

func configFromUnits(p Point, need map[Unit]bool) Config {
	c := Config{Point: p}
	for u := Unit(0); int(u) < NumUnits; u++ {
		if !need[u] {
			continue
		}
		switch {
		case u.IsActivation():
			c.Acts = append(c.Acts, u)
		case u.IsPooling():
			c.Pools = append(c.Pools, u)
		case u == EngFlatten:
			c.Flatten = true
		case u == EngPermute:
			c.Permute = true
		}
	}
	sort.Slice(c.Acts, func(i, j int) bool { return c.Acts[i] < c.Acts[j] })
	sort.Slice(c.Pools, func(i, j int) bool { return c.Pools[i] < c.Pools[j] })
	return c
}

// Bank is a group of identical unit instances: the node granularity of the
// paper's graphs (Figure 3 draws banks, not individual units).
type Bank struct {
	Unit   Unit
	Count  int
	SASize int // array dimension; meaningful only when Unit == SystolicArray
	// Precision applies to systolic-array banks (zero value: Int8).
	Precision Precision
	// Cat is the catalogue pricing the bank (nil: the built-in default).
	Cat *Catalogue
	// Spec, when non-nil, marks a hardened catalogue chiplet bank: area comes
	// from the spec's fixed AreaMM2 instead of the SAFor fabric formula.
	Spec *ChipletSpec
}

// AreaUM2 returns the silicon area of the whole bank.
func (b Bank) AreaUM2() float64 {
	if b.Spec != nil {
		return float64(b.Count) * b.Spec.AreaMM2 * 1e6
	}
	cat := b.Cat
	if cat == nil {
		cat = Default()
	}
	if b.Unit == SystolicArray {
		return float64(b.Count) * cat.SAFor(b.SASize, b.Precision).AreaUM2
	}
	return float64(b.Count) * cat.PPA(b.Unit).AreaUM2
}

// String renders the bank, e.g. "SA[32x32]x32", "GELUx16", or for hardened
// catalogue chiplets "SA:SA64x4".
func (b Bank) String() string {
	if b.Spec != nil {
		return fmt.Sprintf("SA:%sx%d", b.Spec.Name, b.Count)
	}
	if b.Unit == SystolicArray {
		return fmt.Sprintf("SA[%dx%d]x%d", b.SASize, b.SASize, b.Count)
	}
	return fmt.Sprintf("%sx%d", b.Unit, b.Count)
}

// Banks expands the configuration into its unit banks: the compute banks
// (one homogeneous systolic-array bank, or one bank per active mix type),
// one bank per provisioned activation kind, one per pooling kind, and the
// data-movement engines.
func (c Config) Banks() []Bank {
	var banks []Bank
	if c.Mix.IsZero() {
		banks = []Bank{{Unit: SystolicArray, Count: c.NSA, SASize: c.SASize, Precision: c.Precision, Cat: c.Cat}}
	} else {
		cat := c.Catalogue()
		for ti := range cat.Chiplets {
			if n := int(c.Mix.Counts[ti]); n > 0 {
				spec := &cat.Chiplets[ti]
				banks = append(banks, Bank{
					Unit: SystolicArray, Count: n, SASize: spec.SASize, Cat: c.Cat, Spec: spec,
				})
			}
		}
	}
	for _, u := range c.Acts {
		banks = append(banks, Bank{Unit: u, Count: c.NAct, Cat: c.Cat})
	}
	for _, u := range c.Pools {
		banks = append(banks, Bank{Unit: u, Count: c.NPool, Cat: c.Cat})
	}
	if c.Flatten {
		banks = append(banks, Bank{Unit: EngFlatten, Count: EngineCount, Cat: c.Cat})
	}
	if c.Permute {
		banks = append(banks, Bank{Unit: EngPermute, Count: EngineCount, Cat: c.Cat})
	}
	return banks
}

// AreaMM2 returns the total logic area of the configuration in mm^2
// (interconnect overhead is added by the NoC/NoP models). The accumulation
// visits banks in exactly Banks() order without materializing the slice —
// AreaMM2 sits on the sweep hot path and must not allocate.
func (c Config) AreaMM2() float64 { return c.AreaMM2From(c.AreaPrefixUM2()) }

// AreaPrefixUM2 returns the leading terms of AreaMM2's sum, in um^2: the
// compute banks, then the activation banks. They do not depend on NPool, so
// a sweep over points that differ only in NPool computes them once and
// finishes each point with AreaMM2From. It and AreaMM2From take a pointer so
// that a gather calling them per point does not copy the configuration.
func (c *Config) AreaPrefixUM2() float64 {
	cat := orDefault(c.Cat)
	var um2 float64
	if c.Mix.IsZero() {
		um2 = Bank{Unit: SystolicArray, Count: c.NSA, SASize: c.SASize, Precision: c.Precision, Cat: c.Cat}.AreaUM2()
	} else {
		um2 = cat.MixAreaUM2(c.Mix)
	}
	for _, u := range c.Acts {
		um2 += float64(c.NAct) * cat.PPA(u).AreaUM2
	}
	return um2
}

// AreaMM2From finishes AreaMM2 from prefix, the configuration's
// AreaPrefixUM2 at any NPool: it adds the pooling banks at c.NPool and then
// the engines, in AreaMM2's order, so the result is bit-identical to
// AreaMM2.
func (c *Config) AreaMM2From(prefix float64) float64 {
	cat := orDefault(c.Cat)
	um2 := prefix
	for _, u := range c.Pools {
		um2 += float64(c.NPool) * cat.PPA(u).AreaUM2
	}
	if c.Flatten {
		um2 += float64(EngineCount) * cat.PPA(EngFlatten).AreaUM2
	}
	if c.Permute {
		um2 += float64(EngineCount) * cat.PPA(EngPermute).AreaUM2
	}
	return UM2ToMM2(um2)
}

// Units returns the set of unit kinds provisioned by the configuration.
func (c Config) Units() map[Unit]bool {
	us := make(map[Unit]bool)
	for _, b := range c.Banks() {
		us[b.Unit] = true
	}
	return us
}

// HasUnit reports whether the configuration provisions the unit kind, without
// materializing the bank list — the allocation-free primitive behind coverage
// checks on hot sweep paths.
func (c Config) HasUnit(u Unit) bool {
	switch {
	case u == SystolicArray:
		return true
	case u.IsActivation():
		for _, a := range c.Acts {
			if a == u {
				return true
			}
		}
	case u.IsPooling():
		for _, p := range c.Pools {
			if p == u {
				return true
			}
		}
	case u == EngFlatten:
		return c.Flatten
	case u == EngPermute:
		return c.Permute
	}
	return false
}

// Supports reports whether every layer kind of the model has a matching unit,
// i.e. whether algorithm coverage C_layer(model, c) is 100%.
func (c Config) Supports(m *workload.Model) bool {
	for u := range UnitsFor(m) {
		if !c.HasUnit(u) {
			return false
		}
	}
	return true
}

// Coverage returns the paper's C_layer metric: the fraction of the model's
// layers whose kind is implementable on the configuration.
func (c Config) Coverage(m *workload.Model) float64 {
	have := c.Units()
	covered := 0
	for _, l := range m.Layers {
		if have[UnitFor(l.Kind)] {
			covered++
		}
	}
	return float64(covered) / float64(len(m.Layers))
}

// Merge returns a configuration that serves the union of both configurations'
// unit kinds at this configuration's DSE point.
func (c Config) Merge(o Config) Config {
	need := c.Units()
	for u := range o.Units() {
		need[u] = true
	}
	delete(need, SystolicArray)
	need[SystolicArray] = true
	out := configFromUnits(c.Point, need)
	out.Cat = c.Cat
	return out
}

// CheckMix validates the heterogeneous-mix fields against the catalogue: a
// zero mix (homogeneous configuration) always passes; a non-zero mix must
// instantiate only defined chiplet types.
func (c Config) CheckMix() error {
	if c.Mix.IsZero() {
		return nil
	}
	return c.Catalogue().ValidateMix(c.Mix)
}

// String renders the configuration in Table II style.
func (c Config) String() string {
	var sb strings.Builder
	if !c.Mix.IsZero() {
		fmt.Fprintf(&sb, "%v", c.Mix)
	} else {
		fmt.Fprintf(&sb, "%dx%d x%d", c.SASize, c.SASize, c.NSA)
	}
	if len(c.Acts) > 0 {
		names := make([]string, len(c.Acts))
		for i, u := range c.Acts {
			names[i] = u.String()
		}
		fmt.Fprintf(&sb, " act{%s}x%d", strings.Join(names, ","), c.NAct)
	}
	if len(c.Pools) > 0 {
		names := make([]string, len(c.Pools))
		for i, u := range c.Pools {
			names[i] = u.String()
		}
		fmt.Fprintf(&sb, " pool{%s}x%d", strings.Join(names, ","), c.NPool)
	}
	if c.Flatten {
		sb.WriteString(" +FLATTEN")
	}
	if c.Permute {
		sb.WriteString(" +PERMUTE")
	}
	return sb.String()
}
