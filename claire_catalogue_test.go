package claire

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// legacyCatalogueJSON is the pre-catalogue ppa28 constant set, spelled out as
// a serialized catalogue with every number copied as a literal from the old
// compiled-in tables. It is deliberately NOT generated from hw.Default(): if
// the built-in catalogue (or the constants behind it) ever drifts from these
// values, the fingerprint comparison below fails.
const legacyCatalogueJSON = `{
  "name": "default-28nm",
  "tech_node_nm": 28,
  "clock_ghz": 1,
  "leakage_mw_per_mm2": 4,
  "sram_byte_pj": 0.35,
  "sa": {
    "pe_area_um2": 580,
    "pe_mac_pj": 0.55,
    "fixed_area_um2": 24000,
    "per_row_area_um2": 900
  },
  "units": [
    {"unit": "RELU", "area_um2": 95, "energy_pj": 0.045, "throughput_e": 4},
    {"unit": "RELU6", "area_um2": 120, "energy_pj": 0.055, "throughput_e": 4},
    {"unit": "GELU", "area_um2": 2600, "energy_pj": 0.95, "throughput_e": 4},
    {"unit": "SILU", "area_um2": 2350, "energy_pj": 0.88, "throughput_e": 4},
    {"unit": "TANH", "area_um2": 1500, "energy_pj": 0.52, "throughput_e": 4},
    {"unit": "MAXPOOL", "area_um2": 240, "energy_pj": 0.08, "throughput_e": 4},
    {"unit": "AVGPOOL", "area_um2": 330, "energy_pj": 0.1, "throughput_e": 4},
    {"unit": "ADAPTIVEAVGPOOL", "area_um2": 390, "energy_pj": 0.12, "throughput_e": 4},
    {"unit": "LASTLEVELMAXPOOL", "area_um2": 260, "energy_pj": 0.08, "throughput_e": 4},
    {"unit": "ROIALIGN", "area_um2": 5200, "energy_pj": 1.4, "throughput_e": 4},
    {"unit": "FLATTEN", "area_um2": 1800, "energy_pj": 0.2, "throughput_e": 4},
    {"unit": "PERMUTE", "area_um2": 2100, "energy_pj": 0.24, "throughput_e": 4}
  ],
  "chiplets": [
    {"name": "SA16", "kind": "systolic", "sa_size": 16, "peak_macs_per_cycle": 256,
     "bandwidth_gbps": 16, "memory_mb": 0.25, "area_mm2": 0.21056,
     "tdp_w": 0.14164224, "energy_per_mac_pj": 0.55, "tech_node_nm": 28},
    {"name": "SA32", "kind": "systolic", "sa_size": 32, "peak_macs_per_cycle": 1024,
     "bandwidth_gbps": 32, "memory_mb": 1, "area_mm2": 0.74976,
     "tdp_w": 0.56619904, "energy_per_mac_pj": 0.55, "tech_node_nm": 28},
    {"name": "SA64", "kind": "systolic", "sa_size": 64, "peak_macs_per_cycle": 4096,
     "bandwidth_gbps": 64, "memory_mb": 4, "area_mm2": 3.1088,
     "tdp_w": 2.2652352000000002, "energy_per_mac_pj": 0.55, "tech_node_nm": 28}
  ]
}`

func legacyCatalogue(t *testing.T) *Catalogue {
	t.Helper()
	cat, err := ParseCatalogue(strings.NewReader(legacyCatalogueJSON))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestLegacyCatalogueFingerprintPin is the backward-compat tripwire: the
// built-in default catalogue must serialize to exactly the legacy values
// above, so the zero-config path can never silently drift from the
// pre-catalogue constants.
func TestLegacyCatalogueFingerprintPin(t *testing.T) {
	lit := legacyCatalogue(t)
	if lit.Fingerprint() != DefaultCatalogue().Fingerprint() {
		t.Fatalf("built-in default catalogue drifted from the legacy ppa28 constants:\nliteral  %s\nbuilt-in %s",
			lit.Fingerprint(), DefaultCatalogue().Fingerprint())
	}
}

// TestPaperExploreByteIdenticalUnderLegacyCatalogue evaluates the whole
// 81-point paper space under (a) the zero-config nil-Cat path and (b) the
// literal legacy catalogue, and requires bit-identical summaries point by
// point, plus an identical explore result.
func TestPaperExploreByteIdenticalUnderLegacyCatalogue(t *testing.T) {
	lit := legacyCatalogue(t)
	models := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	ev := NewEvaluator(0)
	for _, m := range models {
		base := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		withCat := base
		withCat.Cat = lit
		for _, p := range hw.PaperSpace().Points() {
			base.Point, withCat.Point = p, p
			s0, err := ev.EvaluateSummary(m, base, 1)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := ev.EvaluateSummary(m, withCat, 1)
			if err != nil {
				t.Fatal(err)
			}
			if s0 != s1 {
				t.Fatalf("%s at %v: summaries differ under the legacy catalogue:\nnil-Cat %+v\nliteral %+v",
					m.Name, p, s0, s1)
			}
		}
	}

	cons := dse.DefaultConstraints()
	want, err := dse.ExploreSpaceCtx(context.Background(), models, hw.PointList(hw.PaperSpace().Points()), cons, NewEvaluator(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpaceWith("paper", lit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dse.ExploreSpaceCtx(context.Background(), models, spec, cons, NewEvaluator(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Point != want.Config.Point || got.Feasible != want.Feasible ||
		got.Explored != want.Explored {
		t.Fatalf("paper explore differs under the legacy catalogue:\nnil-Cat %v feasible=%d explored=%d\nliteral %v feasible=%d explored=%d",
			want.Config.Point, want.Feasible, want.Explored,
			got.Config.Point, got.Feasible, got.Explored)
	}
	for i := range want.Evals {
		if want.Evals[i].Summary() != got.Evals[i].Summary() {
			t.Fatalf("%s: winning evaluation differs under the legacy catalogue", models[i].Name)
		}
	}
}

// TestFacadeCatalogueSurface smoke-tests the re-exported catalogue API: load,
// mix space construction, and an Options round through Validate.
func TestFacadeCatalogueSurface(t *testing.T) {
	cat, err := LoadCatalogue("examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := DefaultMixSpec(cat).Build()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() == 0 || sp.Catalogue() != cat {
		t.Fatalf("mix space = %d points, catalogue attached %v", sp.Len(), sp.Catalogue() == cat)
	}
	o := DefaultOptions()
	o.Catalogue = cat
	o.Space = sp
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	var bad Catalogue
	o.Catalogue = &bad
	if err := o.Validate(); err == nil {
		t.Fatal("Options.Validate accepted an invalid catalogue")
	}
}
