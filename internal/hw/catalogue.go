// Chiplet catalogue: the config-loadable source of unit PPA.
//
// A Catalogue carries everything ppa28.go used to hard-code — process
// constants, the per-unit PPA table, the systolic-array area/energy
// parameterization — plus a list of named ChipletSpecs: hardened compute
// chiplet types that heterogeneous mixes (Point.Mix) draw from. The built-in
// constants are reproduced exactly by Default(), so the zero-config path
// (Config.Cat == nil) is bit-identical to the pre-catalogue behavior; see
// the backward-compat pin in catalogue_test.go.
//
// The serialized form is JSON (examples/catalogue/); ParseCatalogue validates
// on load and rejects non-finite or non-physical values. Fingerprint is the
// SHA-256 of the canonical encoding and is folded into every eval cache key,
// so results computed under different catalogues can never collide.
package hw

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// KindSystolic is the only evaluable ChipletSpec compute kind: a square
// weight-stationary systolic array.
const KindSystolic = "systolic"

// SAParams parameterizes systolic-array area and energy by dimension — the
// catalogue form of the PEAreaUM2/PEMacPJ/SAFixedAreaUM2/SAPerRowAreaUM2
// constants.
type SAParams struct {
	PEAreaUM2     float64 `json:"pe_area_um2"`
	PEMacPJ       float64 `json:"pe_mac_pj"`
	FixedAreaUM2  float64 `json:"fixed_area_um2"`
	PerRowAreaUM2 float64 `json:"per_row_area_um2"`
}

// SAFor returns the PPA of one size x size weight-stationary systolic array
// under these parameters; the same (1 + size/256) wiring model as the legacy
// SAFor, with identical floating-point operation order.
func (sp SAParams) SAFor(size int, prec Precision) SAPPA {
	if size <= 0 {
		panic("hw: systolic array size must be positive")
	}
	pes := float64(size) * float64(size)
	wiring := 1 + float64(size)/256
	return SAPPA{
		Size:     size,
		AreaUM2:  pes*sp.PEAreaUM2*prec.AreaScale()*wiring + sp.FixedAreaUM2 + 2*float64(size)*sp.PerRowAreaUM2,
		MacPJ:    sp.PEMacPJ * prec.EnergyScale(),
		PeakMACs: pes,
	}
}

// ChipletSpec describes one hardened compute chiplet type a mix can
// instantiate. Area, TDP and energy are fixed properties of the hardened IP:
// unlike the size-parameterized SAFor fabric, a spec is not rescaled by the
// configuration's Precision.
type ChipletSpec struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"` // KindSystolic
	SASize         int     `json:"sa_size"`
	PeakMACs       float64 `json:"peak_macs_per_cycle"`
	BandwidthGBps  float64 `json:"bandwidth_gbps"`
	MemoryMB       float64 `json:"memory_mb"`
	AreaMM2        float64 `json:"area_mm2"`
	TDPW           float64 `json:"tdp_w"`
	EnergyPerMACPJ float64 `json:"energy_per_mac_pj"`
	TechNodeNM     int     `json:"tech_node_nm"`
}

// Catalogue is a complete unit-PPA database: process constants, the per-unit
// table, the systolic-array parameterization, and the hardened chiplet types
// available to heterogeneous mixes. A Catalogue must not be mutated after
// first use (Fingerprint memoizes); treat loaded catalogues as immutable.
type Catalogue struct {
	Name            string
	TechNodeNM      int
	ClockGHz        float64
	LeakageMWPerMM2 float64
	SRAMBytePJ      float64
	SA              SAParams
	Units           map[Unit]UnitPPA
	Chiplets        []ChipletSpec

	fpOnce sync.Once
	fp     string

	// unitsOnce/unitsArr/unitsSet project the Units map onto a dense array
	// and the set of its keys, so the per-layer hot path (PPA) is an index,
	// not a map lookup.
	unitsOnce sync.Once
	unitsArr  [NumUnits]UnitPPA
	unitsSet  UnitSet
}

var (
	defaultCatOnce sync.Once
	defaultCat     *Catalogue
)

// Default returns the built-in 28 nm catalogue: exactly the constants of
// ppa28.go in serialized form, plus one hardened chiplet type per paper-space
// SA size. Every Config with a nil Cat evaluates against it, which is what
// keeps the zero-config path byte-identical to the pre-catalogue behavior.
func Default() *Catalogue {
	defaultCatOnce.Do(func() {
		units := make(map[Unit]UnitPPA, len(unitPPA))
		for u, p := range unitPPA {
			units[u] = p
		}
		c := &Catalogue{
			Name:            "default-28nm",
			TechNodeNM:      28,
			ClockGHz:        ClockGHz,
			LeakageMWPerMM2: LeakageMWPerMM2,
			SRAMBytePJ:      SRAMBytePJ,
			SA: SAParams{
				PEAreaUM2:     PEAreaUM2,
				PEMacPJ:       PEMacPJ,
				FixedAreaUM2:  SAFixedAreaUM2,
				PerRowAreaUM2: SAPerRowAreaUM2,
			},
			Units: units,
		}
		for _, size := range []int{16, 32, 64} {
			sa := c.SA.SAFor(size, Int8)
			area := UM2ToMM2(sa.AreaUM2)
			c.Chiplets = append(c.Chiplets, ChipletSpec{
				Name:           fmt.Sprintf("SA%d", size),
				Kind:           KindSystolic,
				SASize:         size,
				PeakMACs:       sa.PeakMACs,
				BandwidthGBps:  float64(size) * ClockGHz,
				MemoryMB:       float64(size*size) / 1024,
				AreaMM2:        area,
				TDPW:           sa.PeakMACs*sa.MacPJ*ClockGHz*1e-3 + LeakageMWPerMM2*1e-3*area,
				EnergyPerMACPJ: sa.MacPJ,
				TechNodeNM:     28,
			})
		}
		defaultCat = c
	})
	return defaultCat
}

// PPA returns the catalogue entry for a non-systolic-array unit, with the
// same panic contract as the legacy package-level PPA. The map is projected
// onto a dense array on first use, so the steady-state cost is one atomic
// load and an index — this runs once per element-wise layer per evaluation.
func (c *Catalogue) PPA(u Unit) UnitPPA {
	c.unitsOnce.Do(func() {
		for mu, p := range c.Units {
			if mu >= 0 && int(mu) < NumUnits {
				c.unitsArr[mu] = p
				c.unitsSet = c.unitsSet.With(mu)
			}
		}
	})
	if u < 0 || int(u) >= NumUnits || !c.unitsSet.Has(u) {
		panic("hw: PPA() is not defined for the systolic array; use SA(size)")
	}
	return c.unitsArr[u]
}

// SAFor returns the PPA of one size x size systolic array under the
// catalogue's array parameterization.
func (c *Catalogue) SAFor(size int, prec Precision) SAPPA {
	return c.SA.SAFor(size, prec)
}

// MixAreaUM2 returns the summed hardened-IP area of a mix's compute chiplets.
func (c *Catalogue) MixAreaUM2(m Mix) float64 {
	var um2 float64
	for i := range c.Chiplets {
		if n := int(m.Counts[i]); n > 0 {
			um2 += float64(n) * c.Chiplets[i].AreaMM2 * 1e6
		}
	}
	return um2
}

// ValidateMix checks that a non-zero mix instantiates only defined chiplet
// types and at least one of them.
func (c *Catalogue) ValidateMix(m Mix) error {
	active := false
	for i := 0; i < MaxMixTypes; i++ {
		if m.Counts[i] == 0 {
			continue
		}
		if i >= len(c.Chiplets) {
			return fmt.Errorf("hw: mix %v references type %d; catalogue %q defines %d chiplet types",
				m, i, c.Name, len(c.Chiplets))
		}
		active = true
	}
	if !active {
		return fmt.Errorf("hw: mix has no active chiplet type")
	}
	return nil
}

// finite reports whether v is a usable physical quantity (not NaN/Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the catalogue for physical sanity: finite positive process
// constants, a complete per-unit table with positive entries, and well-formed
// chiplet specs (unique names, known kind, positive area/energy/throughput).
func (c *Catalogue) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("hw: catalogue has no name")
	}
	if c.TechNodeNM <= 0 {
		return fmt.Errorf("hw: catalogue %q: non-positive tech node %d", c.Name, c.TechNodeNM)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"clock_ghz", c.ClockGHz},
		{"sram_byte_pj", c.SRAMBytePJ},
		{"sa.pe_area_um2", c.SA.PEAreaUM2},
		{"sa.pe_mac_pj", c.SA.PEMacPJ},
	} {
		if !finite(f.v) || f.v <= 0 {
			return fmt.Errorf("hw: catalogue %q: %s must be finite and positive, got %v", c.Name, f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"leakage_mw_per_mm2", c.LeakageMWPerMM2},
		{"sa.fixed_area_um2", c.SA.FixedAreaUM2},
		{"sa.per_row_area_um2", c.SA.PerRowAreaUM2},
	} {
		if !finite(f.v) || f.v < 0 {
			return fmt.Errorf("hw: catalogue %q: %s must be finite and non-negative, got %v", c.Name, f.name, f.v)
		}
	}
	for u := Unit(0); int(u) < NumUnits; u++ {
		if u == SystolicArray {
			continue
		}
		p, ok := c.Units[u]
		if !ok {
			return fmt.Errorf("hw: catalogue %q: missing unit %v", c.Name, u)
		}
		if !finite(p.AreaUM2) || p.AreaUM2 <= 0 {
			return fmt.Errorf("hw: catalogue %q: unit %v: non-positive area %v", c.Name, u, p.AreaUM2)
		}
		if !finite(p.EnergyPJ) || p.EnergyPJ <= 0 {
			return fmt.Errorf("hw: catalogue %q: unit %v: non-positive energy %v", c.Name, u, p.EnergyPJ)
		}
		if !finite(p.ThroughputE) || p.ThroughputE <= 0 {
			return fmt.Errorf("hw: catalogue %q: unit %v: non-positive throughput %v", c.Name, u, p.ThroughputE)
		}
	}
	for u := range c.Units {
		if u == SystolicArray || u < 0 || int(u) >= NumUnits {
			return fmt.Errorf("hw: catalogue %q: invalid unit entry %v", c.Name, u)
		}
	}
	if len(c.Chiplets) > MaxMixTypes {
		return fmt.Errorf("hw: catalogue %q: %d chiplet types exceeds the mix limit %d",
			c.Name, len(c.Chiplets), MaxMixTypes)
	}
	names := make(map[string]bool, len(c.Chiplets))
	for i, s := range c.Chiplets {
		if s.Name == "" {
			return fmt.Errorf("hw: catalogue %q: chiplet %d has no name", c.Name, i)
		}
		if names[s.Name] {
			return fmt.Errorf("hw: catalogue %q: duplicate chiplet name %q", c.Name, s.Name)
		}
		names[s.Name] = true
		if s.Kind != KindSystolic {
			return fmt.Errorf("hw: catalogue %q: chiplet %q: unknown kind %q", c.Name, s.Name, s.Kind)
		}
		if s.SASize <= 0 {
			return fmt.Errorf("hw: catalogue %q: chiplet %q: non-positive sa_size %d", c.Name, s.Name, s.SASize)
		}
		if s.TechNodeNM <= 0 {
			return fmt.Errorf("hw: catalogue %q: chiplet %q: non-positive tech node %d", c.Name, s.Name, s.TechNodeNM)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"peak_macs_per_cycle", s.PeakMACs},
			{"area_mm2", s.AreaMM2},
			{"energy_per_mac_pj", s.EnergyPerMACPJ},
		} {
			if !finite(f.v) || f.v <= 0 {
				return fmt.Errorf("hw: catalogue %q: chiplet %q: %s must be finite and positive, got %v",
					c.Name, s.Name, f.name, f.v)
			}
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"bandwidth_gbps", s.BandwidthGBps},
			{"memory_mb", s.MemoryMB},
			{"tdp_w", s.TDPW},
		} {
			if !finite(f.v) || f.v < 0 {
				return fmt.Errorf("hw: catalogue %q: chiplet %q: %s must be finite and non-negative, got %v",
					c.Name, s.Name, f.name, f.v)
			}
		}
	}
	return nil
}

// catalogueFile is the serialized form: the unit table flattened into a list
// sorted by unit enum order, so encoding is deterministic and Fingerprint can
// hash the canonical bytes.
type catalogueFile struct {
	Name            string        `json:"name"`
	TechNodeNM      int           `json:"tech_node_nm"`
	ClockGHz        float64       `json:"clock_ghz"`
	LeakageMWPerMM2 float64       `json:"leakage_mw_per_mm2"`
	SRAMBytePJ      float64       `json:"sram_byte_pj"`
	SA              SAParams      `json:"sa"`
	Units           []unitEntry   `json:"units"`
	Chiplets        []ChipletSpec `json:"chiplets"`
}

type unitEntry struct {
	Unit        string  `json:"unit"`
	AreaUM2     float64 `json:"area_um2"`
	EnergyPJ    float64 `json:"energy_pj"`
	ThroughputE float64 `json:"throughput_e"`
}

// unitByName resolves a unit's Table II-style name ("RELU", "MAXPOOL", ...).
func unitByName(name string) (Unit, bool) {
	for u, n := range unitNames {
		if n == name {
			return Unit(u), true
		}
	}
	return 0, false
}

// file renders the catalogue into its canonical serialized form.
func (c *Catalogue) file() catalogueFile {
	f := catalogueFile{
		Name:            c.Name,
		TechNodeNM:      c.TechNodeNM,
		ClockGHz:        c.ClockGHz,
		LeakageMWPerMM2: c.LeakageMWPerMM2,
		SRAMBytePJ:      c.SRAMBytePJ,
		SA:              c.SA,
		Chiplets:        c.Chiplets,
	}
	for u := Unit(0); int(u) < NumUnits; u++ {
		if p, ok := c.Units[u]; ok {
			f.Units = append(f.Units, unitEntry{
				Unit: u.String(), AreaUM2: p.AreaUM2, EnergyPJ: p.EnergyPJ, ThroughputE: p.ThroughputE,
			})
		}
	}
	return f
}

// Encode writes the catalogue as indented canonical JSON.
func (c *Catalogue) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.file())
}

// Fingerprint returns the SHA-256 hex digest of the canonical encoding,
// memoized on first use. It is folded into every eval cache key (see
// internal/eval's cacheKey), so evaluations under different catalogues never
// share a cache entry.
func (c *Catalogue) Fingerprint() string {
	c.fpOnce.Do(func() {
		b, err := json.Marshal(c.file())
		if err != nil {
			panic(fmt.Sprintf("hw: catalogue %q does not encode: %v", c.Name, err))
		}
		sum := sha256.Sum256(b)
		c.fp = hex.EncodeToString(sum[:])
	})
	return c.fp
}

// ParseCatalogue decodes and validates a serialized catalogue. Unknown fields
// are rejected so file typos surface as errors instead of silent defaults.
func ParseCatalogue(r io.Reader) (*Catalogue, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f catalogueFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("hw: parse catalogue: %w", err)
	}
	c := &Catalogue{
		Name:            f.Name,
		TechNodeNM:      f.TechNodeNM,
		ClockGHz:        f.ClockGHz,
		LeakageMWPerMM2: f.LeakageMWPerMM2,
		SRAMBytePJ:      f.SRAMBytePJ,
		SA:              f.SA,
		Units:           make(map[Unit]UnitPPA, len(f.Units)),
		Chiplets:        f.Chiplets,
	}
	for _, e := range f.Units {
		u, ok := unitByName(e.Unit)
		if !ok {
			return nil, fmt.Errorf("hw: catalogue %q: unknown unit %q", f.Name, e.Unit)
		}
		if _, dup := c.Units[u]; dup {
			return nil, fmt.Errorf("hw: catalogue %q: duplicate unit %q", f.Name, e.Unit)
		}
		c.Units[u] = UnitPPA{AreaUM2: e.AreaUM2, EnergyPJ: e.EnergyPJ, ThroughputE: e.ThroughputE}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadCatalogue reads and validates a catalogue file ("" selects Default).
func LoadCatalogue(path string) (*Catalogue, error) {
	if path == "" {
		return Default(), nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hw: load catalogue: %w", err)
	}
	return ParseCatalogue(bytes.NewReader(b))
}
