package eval

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// perturbedCatalogue round-trips the default catalogue and changes one
// process constant before the first Fingerprint call, yielding a distinct
// valid catalogue.
func perturbedCatalogue(t *testing.T) *hw.Catalogue {
	t.Helper()
	var buf bytes.Buffer
	if err := hw.Default().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cat, err := hw.ParseCatalogue(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cat.Name = "perturbed"
	cat.SRAMBytePJ *= 2
	return cat
}

// TestCataloguesDoNotShareCacheEntries is the cross-catalogue separation
// gate: the same model and point evaluated under two catalogues must occupy
// two cache entries and produce different numbers.
func TestCataloguesDoNotShareCacheEntries(t *testing.T) {
	m := workload.NewAlexNet()
	ev := New(Options{Workers: 1})
	pt := hw.Point{SASize: 32, NSA: 16, NAct: 16, NPool: 16}
	base := hw.NewConfig(pt, []*workload.Model{m})
	alt := base
	alt.Cat = perturbedCatalogue(t)

	if k := ev.keyFor(m, base, 1); k == ev.keyFor(m, alt, 1) {
		t.Fatalf("configs under different catalogues share key %+v", k)
	}

	e0, err := ev.Evaluate(m, base)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := ev.Evaluate(m, alt)
	if err != nil {
		t.Fatal(err)
	}
	if st := ev.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 entries / 2 misses", st)
	}
	// Doubling SRAMBytePJ must change dynamic energy, and must not change
	// latency or area (the perturbed constant touches neither).
	s0, s1 := e0.Summary, e1.Summary
	if s1.DynamicPJ == s0.DynamicPJ {
		t.Error("perturbed catalogue produced identical dynamic energy")
	}
	if s1.LatencyS != s0.LatencyS || s1.AreaMM2 != s0.AreaMM2 {
		t.Errorf("perturbing SRAM energy changed latency/area: %+v vs %+v", s1, s0)
	}

	// Re-evaluating both must hit their own entries, not add entries.
	if e, err := ev.Evaluate(m, base); err != nil || e != e0 {
		t.Fatalf("base re-evaluation = %p, %v; want the cached %p", e, err, e0)
	}
	if e, err := ev.Evaluate(m, alt); err != nil || e != e1 {
		t.Fatalf("alt re-evaluation = %p, %v; want the cached %p", e, err, e1)
	}
	if st := ev.Stats(); st.Entries != 2 || st.Hits != 2 {
		t.Errorf("stats after re-evaluation = %+v, want 2 entries / 2 hits", st)
	}
}

// TestNilCatSharesDefaultEntry pins the opposite direction: a nil-Cat config
// and an explicit-default config are the same cache key, so the zero-config
// path is not split from catalogue-aware callers.
func TestNilCatSharesDefaultEntry(t *testing.T) {
	m := workload.NewAlexNet()
	ev := New(Options{Workers: 1})
	pt := hw.Point{SASize: 32, NSA: 16, NAct: 16, NPool: 16}
	nilCat := hw.NewConfig(pt, []*workload.Model{m})
	defCat := nilCat
	defCat.Cat = hw.Default()
	if kn, kd := ev.keyFor(m, nilCat, 1), ev.keyFor(m, defCat, 1); kn != kd {
		t.Fatalf("nil-Cat and explicit-default keys differ:\n%+v\n%+v", kn, kd)
	}
	if _, err := ev.Evaluate(m, nilCat); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(m, defCat); err != nil {
		t.Fatal(err)
	}
	if st := ev.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit", st)
	}
}

// TestMixConfigKeyIncludesCounts checks that two mixes differing only in one
// type count never share a key.
func TestMixConfigKeyIncludesCounts(t *testing.T) {
	ev := New(Options{Workers: 1})
	m := workload.NewAlexNet()
	a := hw.Config{Point: hw.Point{Mix: hw.Mix{Counts: [hw.MaxMixTypes]uint16{4, 0, 2}}, NAct: 16, NPool: 16}}
	b := a
	b.Mix.Counts[2] = 4
	if k := ev.keyFor(m, a, 1); k == ev.keyFor(m, b, 1) {
		t.Fatalf("mixes %v and %v share key %+v", a.Mix, b.Mix, k)
	}
	homo := hw.Config{Point: hw.Point{SASize: 32, NSA: 16, NAct: 16, NPool: 16}}
	if ev.keyFor(m, a, 1) == ev.keyFor(m, homo, 1) {
		t.Fatal("mix and homogeneous configs share a key")
	}
}
