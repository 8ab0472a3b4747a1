package hw

import (
	"fmt"
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

// EngineCount is the number of Flatten/Permute engine instances provisioned
// when a configuration includes those units (fixed; not a DSE dimension).
const EngineCount = 4

// Config is a complete hardware design configuration: a DSE point plus the
// unit kinds the served algorithms require. It corresponds to one row of
// Table II once clustered into chiplets. A Config is a comparable value.
type Config struct {
	Point
	// Units is the set of unit kinds provisioned. NewConfig always includes
	// the systolic array, whose banks the point sizes; every other kind gets
	// one bank.
	Units UnitSet
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
	c := Config{Point: p, Units: SetOf(SystolicArray)}
	for _, m := range models {
		c.Units |= UnitsFor(m)
	}
	return c
}

// BankCount returns the instance count of the bank of kind u: NSA arrays,
// NAct or NPool element-wise units, or EngineCount engines.
func (c *Config) BankCount(u Unit) int {
	switch {
	case u == SystolicArray:
		return c.NSA
	case u.IsActivation():
		return c.NAct
	case u.IsPooling():
		return c.NPool
	}
	return EngineCount
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
// then one bank per other provisioned kind in ascending unit order, which
// puts the activations before the pools and the data-movement engines last.
func (c Config) Banks() []Bank { return c.AppendBanks(nil) }

// AppendBanks appends the configuration's banks, in Banks order, to banks
// and returns the extended slice. It takes a pointer so that a caller
// expanding a configuration per candidate does not copy it.
func (c *Config) AppendBanks(banks []Bank) []Bank {
	if c.Mix.IsZero() {
		banks = append(banks, Bank{Unit: SystolicArray, Count: c.NSA, SASize: c.SASize, Precision: c.Precision, Cat: c.Cat})
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
	for s := c.Units &^ SetOf(SystolicArray); s != 0; s = s.Rest() {
		u := s.First()
		banks = append(banks, Bank{Unit: u, Count: c.BankCount(u), Cat: c.Cat})
	}
	return banks
}

// AreaMM2 returns the total logic area of the configuration in mm^2
// (interconnect overhead is added by the NoC/NoP models). The accumulation
// visits banks in exactly Banks() order without materializing the slice —
// AreaMM2 sits on the sweep hot path and must not allocate.
func (c Config) AreaMM2() float64 {
	tail := c.AreaTail()
	return tail.MM2(c.AreaPrefixUM2(), c.NPool)
}

// AreaPrefixUM2 returns the leading terms of AreaMM2's sum, in um^2: the
// compute banks, then the activation banks. They do not depend on NPool, so
// a sweep over points that differ only in NPool computes them once and
// finishes each point with an AreaTail. It takes a pointer so that a gather
// calling it per run does not copy the configuration.
func (c *Config) AreaPrefixUM2() float64 {
	cat := orDefault(c.Cat)
	var um2 float64
	if c.Mix.IsZero() {
		um2 = Bank{Unit: SystolicArray, Count: c.NSA, SASize: c.SASize, Precision: c.Precision, Cat: c.Cat}.AreaUM2()
	} else {
		um2 = cat.MixAreaUM2(c.Mix)
	}
	for s := c.Units & activations; s != 0; s = s.Rest() {
		um2 += float64(c.NAct) * cat.PPA(s.First()).AreaUM2
	}
	return um2
}

// numPoolings is the number of pooling unit kinds.
const numPoolings = int(PoolROIAlign-PoolMax) + 1

// AreaTail holds the trailing terms of AreaMM2's sum with their unit areas
// resolved from the catalogue: each provisioned pooling kind's unit area,
// which the point's NPool scales, then each provisioned engine bank's area.
// It depends only on the unit set and the catalogue, so a cost table
// resolves it once and finishes every point's area with MM2.
type AreaTail struct {
	pools    [numPoolings]float64 // unit areas, ascending unit order
	nPools   int
	engines  [2]float64 // bank areas: FLATTEN, then PERMUTE
	nEngines int
}

// AreaTail resolves the configuration's pooling and engine unit areas.
func (c *Config) AreaTail() AreaTail {
	cat := orDefault(c.Cat)
	var t AreaTail
	for s := c.Units & poolings; s != 0; s = s.Rest() {
		t.pools[t.nPools] = cat.PPA(s.First()).AreaUM2
		t.nPools++
	}
	for _, u := range [...]Unit{EngFlatten, EngPermute} {
		if c.Units.Has(u) {
			t.engines[t.nEngines] = float64(EngineCount) * cat.PPA(u).AreaUM2
			t.nEngines++
		}
	}
	return t
}

// MM2 finishes AreaMM2 from prefix, the configuration's AreaPrefixUM2: it
// adds the pooling banks at nPool units each and then the engines, in
// AreaMM2's order, and converts to mm^2. With nPool the configuration's
// NPool the result is AreaMM2, bit for bit. It performs no allocation.
func (t *AreaTail) MM2(prefix float64, nPool int) float64 {
	um2 := prefix
	for _, a := range t.pools[:t.nPools] {
		um2 += float64(nPool) * a
	}
	for _, a := range t.engines[:t.nEngines] {
		um2 += a
	}
	return UM2ToMM2(um2)
}

// Supports reports whether every layer kind of the model has a matching unit,
// i.e. whether algorithm coverage C_layer(model, c) is 100%.
func (c Config) Supports(m *workload.Model) bool { return c.Units.Contains(UnitsFor(m)) }

// Coverage returns the paper's C_layer metric: the fraction of the model's
// layers whose kind is implementable on the configuration (0 for a model
// without layers).
func (c Config) Coverage(m *workload.Model) float64 {
	if len(m.Layers) == 0 {
		return 0
	}
	covered := 0
	for i := range m.Layers {
		if c.Units.Has(UnitFor(m.Layers[i].Kind)) {
			covered++
		}
	}
	return float64(covered) / float64(len(m.Layers))
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
	group := func(name string, s UnitSet, n int) {
		if s == 0 {
			return
		}
		fmt.Fprintf(&sb, " %s{%v", name, s.First())
		for s = s.Rest(); s != 0; s = s.Rest() {
			fmt.Fprintf(&sb, ",%v", s.First())
		}
		fmt.Fprintf(&sb, "}x%d", n)
	}
	group("act", c.Units&activations, c.NAct)
	group("pool", c.Units&poolings, c.NPool)
	if c.Units.Has(EngFlatten) {
		sb.WriteString(" +FLATTEN")
	}
	if c.Units.Has(EngPermute) {
		sb.WriteString(" +PERMUTE")
	}
	return sb.String()
}
