package check

// Catalogue cross-checks: the config-loaded unit-PPA subsystem
// (internal/hw/catalogue.go) against the legacy constant tables it replaced,
// plus invariants over heterogeneous mixes and the cache-key separation that
// keeps cross-catalogue results from colliding.
//
//   - The default catalogue must reproduce the historical ppa28 constants
//     exactly (the values are duplicated here as literals, so drift in either
//     copy is caught).
//   - SAFor must match an independently coded recomputation from the
//     catalogue's SAParams for every size x precision.
//   - Serialization must round-trip: Encode -> Parse preserves every value
//     and the fingerprint.
//   - Mixes: area is additive over the spec areas of the active types;
//     leakage is a pure recomputation; a single-type mix has exactly the
//     latency of the homogeneous configuration with the same size and count;
//     growing an active type's count never increases latency.
//   - Cache keys: the same point under two different catalogues must render
//     different eval config keys and different fingerprints, while a
//     round-tripped catalogue keeps its fingerprint.

import (
	"bytes"
	"math"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// legacyUnitPPA duplicates the pre-catalogue compiled-in unit table as
// literals. It is deliberately not derived from internal/hw: if either the
// default catalogue or these values drift, the differential fails.
var legacyUnitPPA = map[hw.Unit]hw.UnitPPA{
	hw.ActReLU:          {AreaUM2: 95, EnergyPJ: 0.045, ThroughputE: 4},
	hw.ActReLU6:         {AreaUM2: 120, EnergyPJ: 0.055, ThroughputE: 4},
	hw.ActGELU:          {AreaUM2: 2600, EnergyPJ: 0.95, ThroughputE: 4},
	hw.ActSiLU:          {AreaUM2: 2350, EnergyPJ: 0.88, ThroughputE: 4},
	hw.ActTanh:          {AreaUM2: 1500, EnergyPJ: 0.52, ThroughputE: 4},
	hw.PoolMax:          {AreaUM2: 240, EnergyPJ: 0.08, ThroughputE: 4},
	hw.PoolAvg:          {AreaUM2: 330, EnergyPJ: 0.10, ThroughputE: 4},
	hw.PoolAdaptiveAvg:  {AreaUM2: 390, EnergyPJ: 0.12, ThroughputE: 4},
	hw.PoolLastLevelMax: {AreaUM2: 260, EnergyPJ: 0.08, ThroughputE: 4},
	hw.PoolROIAlign:     {AreaUM2: 5200, EnergyPJ: 1.40, ThroughputE: 4},
	hw.EngFlatten:       {AreaUM2: 1800, EnergyPJ: 0.20, ThroughputE: 4},
	hw.EngPermute:       {AreaUM2: 2100, EnergyPJ: 0.24, ThroughputE: 4},
}

// Legacy process constants, as literals for the same reason.
const (
	legacyClockGHz        = 1.0
	legacyLeakageMWPerMM2 = 4.0
	legacySRAMBytePJ      = 0.35
	legacyPEAreaUM2       = 580.0
	legacyPEMacPJ         = 0.55
	legacySAFixedAreaUM2  = 24000.0
	legacySAPerRowAreaUM2 = 900.0
)

// roundTrip encodes and re-parses a catalogue; any loss is a violation
// recorded by the caller via the returned error.
func roundTrip(cat *hw.Catalogue) (*hw.Catalogue, error) {
	var buf bytes.Buffer
	if err := cat.Encode(&buf); err != nil {
		return nil, err
	}
	return hw.ParseCatalogue(&buf)
}

// checkCatalogue runs the catalogue family against Options.Catalogue (nil:
// the built-in default).
func checkCatalogue(o *Options) Section {
	col := newCollector("catalogue")
	cat := o.Catalogue
	if cat == nil {
		cat = hw.Default()
	}

	// The catalogue under test must itself validate; everything else is
	// meaningless if it does not.
	if err := cat.Validate(); !col.check(err == nil, "", "", cat.Name, "catalogue invalid: %v", err) {
		return col.s
	}

	// Default catalogue vs the legacy constant tables (literal copies).
	def := hw.Default()
	col.check(def.ClockGHz == legacyClockGHz && def.LeakageMWPerMM2 == legacyLeakageMWPerMM2 &&
		def.SRAMBytePJ == legacySRAMBytePJ, "", "", def.Name,
		"default process constants drifted: clock %v leakage %v sram %v",
		def.ClockGHz, def.LeakageMWPerMM2, def.SRAMBytePJ)
	col.check(def.SA == hw.SAParams{
		PEAreaUM2: legacyPEAreaUM2, PEMacPJ: legacyPEMacPJ,
		FixedAreaUM2: legacySAFixedAreaUM2, PerRowAreaUM2: legacySAPerRowAreaUM2,
	}, "", "", def.Name, "default SA params drifted: %+v", def.SA)
	for u, want := range legacyUnitPPA {
		got := def.PPA(u)
		col.check(got == want, "", "", def.Name,
			"default unit %v drifted: got %+v want %+v", u, got, want)
		// The package-level accessor must read through the same catalogue.
		col.check(hw.PPA(u) == got, "", "", def.Name,
			"hw.PPA(%v) does not match the default catalogue", u)
	}

	// SAFor vs an independent recomputation from the catalogue's SAParams.
	for _, size := range o.SASizes {
		for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
			got := cat.SAFor(size, prec)
			pes := float64(size) * float64(size)
			wiring := 1 + float64(size)/256
			wantArea := pes*cat.SA.PEAreaUM2*prec.AreaScale()*wiring +
				cat.SA.FixedAreaUM2 + 2*float64(size)*cat.SA.PerRowAreaUM2
			wantMac := cat.SA.PEMacPJ * prec.EnergyScale()
			col.check(got.AreaUM2 == wantArea && got.MacPJ == wantMac && got.PeakMACs == pes,
				"", "", cat.Name, "SAFor(%d,%v) = %+v, recomputed area %g mac %g peak %g",
				size, prec, got, wantArea, wantMac, pes)
		}
	}

	// Serialization fidelity: Encode -> Parse preserves the fingerprint and
	// every unit entry.
	back, err := roundTrip(cat)
	if col.check(err == nil, "", "", cat.Name, "round-trip failed: %v", err) {
		col.check(back.Fingerprint() == cat.Fingerprint(), "", "", cat.Name,
			"round-trip changed fingerprint: %s vs %s", back.Fingerprint(), cat.Fingerprint())
		for u, want := range cat.Units {
			col.check(back.Units[u] == want, "", "", cat.Name,
				"round-trip changed unit %v: %+v vs %+v", u, back.Units[u], want)
		}
		col.check(len(back.Chiplets) == len(cat.Chiplets), "", "", cat.Name,
			"round-trip changed chiplet count: %d vs %d", len(back.Chiplets), len(cat.Chiplets))
	}

	// Cache-key separation: the same point under a perturbed catalogue must
	// produce a different fingerprint and occupy its own entry of the eval
	// engine's cache.
	if perturbed, err := roundTrip(cat); col.check(err == nil, "", "", cat.Name, "perturb round-trip failed: %v", err) {
		perturbed.SRAMBytePJ *= 2
		col.check(perturbed.Fingerprint() != cat.Fingerprint(), "", "", cat.Name,
			"perturbed catalogue shares fingerprint %s", cat.Fingerprint())
		// entries evaluates one model at one point under each catalogue on a
		// fresh engine and counts the cache entries it then holds.
		m := workload.NewAlexNet()
		entries := func(cats ...*hw.Catalogue) int {
			ev := eval.New(eval.Options{Workers: 1})
			for _, c := range cats {
				cfg := hw.NewConfig(hw.Point{SASize: 32, NSA: 16, NAct: 16, NPool: 16}, []*workload.Model{m})
				cfg.Cat = c
				// A failed evaluation is cached under its key too, and only
				// the entry count is checked here.
				_, _ = ev.Evaluate(m, cfg)
			}
			return ev.Stats().Entries
		}
		n := entries(cat, perturbed)
		col.check(n == 2, "", "", cat.Name,
			"same point under different catalogues fills %d engine entries, want 2", n)
		// And attaching the default catalogue explicitly must share entries
		// with the zero-config (nil Cat) path, so caches are not split.
		n = entries(nil, hw.Default())
		col.check(n == 1, "", "", def.Name,
			"nil-Cat and explicit-default configs fill %d engine entries, want 1", n)
	}

	// Mix invariants need chiplet types to instantiate.
	if len(cat.Chiplets) == 0 {
		return col.s
	}
	checkMixInvariants(o, cat, col)
	return col.s
}

// checkMixInvariants verifies area additivity, leakage recomputation,
// single-type mix/homogeneous latency identity and count monotonicity over
// seeded random mixes, for every model under check.
func checkMixInvariants(o *Options, cat *hw.Catalogue, col *collector) {
	rng := rand.New(rand.NewSource(o.Seed))
	ev := eval.New(eval.Options{Workers: 1})
	for _, m := range o.Models {
		models := []*workload.Model{m}
		for trial := 0; trial < 4; trial++ {
			var mix hw.Mix
			for ti := range cat.Chiplets {
				mix.Counts[ti] = uint16(rng.Intn(32))
			}
			// Ensure at least one active type.
			mix.Counts[rng.Intn(len(cat.Chiplets))] = uint16(1 + rng.Intn(32))
			pt := hw.Point{Mix: mix, NAct: 16, NPool: 16}
			c := hw.NewConfig(pt, models)
			c.Cat = cat
			cfg := pt.String()

			sum, err := ev.EvaluateSummary(m, c, 1)
			if !col.check(err == nil, m.Name, "", cfg, "mix summary: %v", err) {
				continue
			}

			// Area additivity: the allocation-free AreaMM2 must equal the
			// bank-by-bank sum, which for mixes prices each active type at
			// its hardened spec area.
			var um2 float64
			for _, b := range c.Banks() {
				um2 += b.AreaUM2()
			}
			col.check(math.Abs(sum.AreaMM2-hw.UM2ToMM2(um2)) <= relTol*sum.AreaMM2,
				m.Name, "", cfg, "mix area %g mm2, bank sum %g mm2", sum.AreaMM2, hw.UM2ToMM2(um2))

			// Leakage is a pure recomputation from area and latency.
			wantLeak := cat.LeakageMWPerMM2 * 1e-3 * sum.AreaMM2 * sum.LatencyS * 1e12
			col.check(math.Abs(sum.LeakagePJ-wantLeak) <= relTol*wantLeak,
				m.Name, "", cfg, "mix leakage %g pJ, recomputed %g pJ", sum.LeakagePJ, wantLeak)

			// Growing one active type's count never increases latency: the
			// per-layer dispatch picks the min over types, and each type's
			// latency is non-increasing in its count.
			grown := mix
			for ti := range cat.Chiplets {
				if grown.Counts[ti] > 0 {
					grown.Counts[ti] *= 2
					break
				}
			}
			cg := c
			cg.Point = hw.Point{Mix: grown, NAct: 16, NPool: 16}
			gsum, err := ev.EvaluateSummary(m, cg, 1)
			if col.check(err == nil, m.Name, "", cfg, "grown mix summary: %v", err) {
				col.check(leq(gsum.LatencyS, sum.LatencyS), m.Name, "", cfg,
					"latency grew with chiplet count: %g -> %g s", sum.LatencyS, gsum.LatencyS)
			}
		}

		// Single-type mix vs homogeneous: identical cycle counts, so exactly
		// equal latency (energy and area legitimately differ when the spec's
		// hardened values differ from the fabric formula).
		for ti, spec := range cat.Chiplets {
			var mix hw.Mix
			mix.Counts[ti] = 16
			cm := hw.NewConfig(hw.Point{Mix: mix, NAct: 16, NPool: 16}, models)
			cm.Cat = cat
			ch := hw.NewConfig(hw.Point{SASize: spec.SASize, NSA: 16, NAct: 16, NPool: 16}, models)
			ch.Cat = cat
			ms, errM := ev.EvaluateSummary(m, cm, 1)
			hs, errH := ev.EvaluateSummary(m, ch, 1)
			if col.check(errM == nil && errH == nil, m.Name, "", spec.Name,
				"single-type mix eval: %v / %v", errM, errH) {
				col.check(ms.LatencyS == hs.LatencyS, m.Name, "", spec.Name,
					"single-type mix latency %g != homogeneous latency %g", ms.LatencyS, hs.LatencyS)
			}
		}
	}
}
