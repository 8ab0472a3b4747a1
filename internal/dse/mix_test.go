package dse

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// smallMixSpace builds a table-sized heterogeneous space over the given
// catalogue (nil: default): every pairwise count combination of the first two
// chiplet types under a slot budget.
func smallMixSpace(t *testing.T, cat *hw.Catalogue) hw.MixSpace {
	t.Helper()
	if cat == nil {
		cat = hw.Default()
	}
	counts := make([][]int, len(cat.Chiplets))
	for i := range counts {
		counts[i] = []int{0, 4, 16}
	}
	sp, err := hw.MixSpec{
		Name: "test", Cat: cat, Counts: counts,
		NActs: []int{16, 32}, NPools: []int{16, 32}, MaxSlots: 48,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestMixStreamingMatchesReference extends the streaming-vs-eager oracle gate
// to heterogeneous spaces: over a default-catalogue mix space (where the
// nil-Cat reference evaluates identically), ExploreSpace must return
// byte-identical results through the mix space's cost tables at worker counts
// {1, 8} and several chunk sizes.
func TestMixStreamingMatchesReference(t *testing.T) {
	sp := smallMixSpace(t, nil)
	pts := make([]hw.Point, sp.Len())
	for i := range pts {
		pts[i] = sp.At(i)
	}
	modelSets := [][]*workload.Model{
		{workload.NewAlexNet()},
		{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()},
	}
	cons := DefaultConstraints()
	for mi, models := range modelSets {
		want, err := exploreReference(models, pts, cons, eval.New(eval.Options{Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		ref := canonResult(want)
		for _, workers := range []int{1, 8} {
			for _, chunk := range []int{1, 7, sp.Len()} {
				got, err := ExploreSpaceCtx(context.Background(), models, sp, cons,
					eval.New(eval.Options{Workers: workers}),
					&ExploreOptions{ChunkSize: chunk})
				if err != nil {
					t.Fatalf("models=%d workers=%d chunk=%d: %v", mi, workers, chunk, err)
				}
				if canonResult(got) != ref {
					t.Errorf("models=%d workers=%d chunk=%d: streaming differs from reference\n--- reference ---\n%s--- streaming ---\n%s",
						mi, workers, chunk, ref, canonResult(got))
				}
			}
		}
	}
}

// TestMixStreamingDeterministicOnAltCatalogue checks worker/chunk determinism
// on a non-default catalogue and that the winning configuration carries it.
func TestMixStreamingDeterministicOnAltCatalogue(t *testing.T) {
	cat, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	sp := smallMixSpace(t, cat)
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	cons := DefaultConstraints()
	base, err := ExploreSpaceCtx(context.Background(), models, sp, cons, eval.New(eval.Options{Workers: 1}),
		&ExploreOptions{ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Config.Cat != cat {
		t.Errorf("winner does not carry the space's catalogue")
	}
	if base.Config.Mix.IsZero() {
		t.Errorf("winner %v is not a mix point", base.Config.Point)
	}
	for _, workers := range []int{1, 8} {
		for _, chunk := range []int{0, 5} {
			got, err := ExploreSpaceCtx(context.Background(), models, sp, cons, eval.New(eval.Options{Workers: workers}),
				&ExploreOptions{ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if canonResult(got) != canonResult(base) {
				t.Errorf("workers=%d chunk=%d: mix exploration not deterministic", workers, chunk)
			}
		}
	}
}

// TestMixFineStreamBoundedMemory is the >=10^5-point heterogeneous acceptance
// gate: the full "mixfine" preset (110528 points on the default catalogue)
// must stream through ExploreSpace with frontier-only retention — no engine
// entry but the winner's and peak retained candidates at most 10% of the
// naive summary matrix.
func TestMixFineStreamBoundedMemory(t *testing.T) {
	sp, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() < 100000 {
		t.Fatalf("mixfine = %d points, want >= 1e5", sp.Len())
	}
	models := []*workload.Model{workload.NewAlexNet()}
	var stats ExploreStats
	ev := eval.New(eval.Options{Workers: 0})
	r, err := ExploreSpaceCtx(context.Background(), models, sp, DefaultConstraints(),
		ev, &ExploreOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != sp.Len() || stats.Models != 1 {
		t.Fatalf("stats = %+v, want %d points x 1 model", stats, sp.Len())
	}
	if st := ev.Stats(); st.Entries != 1 {
		t.Errorf("a %d-point sweep left %d engine entries, want 1 (the winner)", sp.Len(), st.Entries)
	}
	if ratio := float64(stats.RetainedBytes) / float64(stats.NaiveBytes); ratio > 0.10 {
		t.Errorf("retained memory %.1f%% of naive matrix, want <= 10%% (%+v)", 100*ratio, stats)
	}
	if r.Config.Mix.IsZero() {
		t.Errorf("winner %v is not a mix point", r.Config.Point)
	}
	if r.SpaceDesc != sp.Desc() {
		t.Errorf("SpaceDesc = %q, want %q", r.SpaceDesc, sp.Desc())
	}
}

// TestSweepSpaceMatchesPointList pins the table sweep over a default-catalogue
// mix space against the same points as a catalogue-less explicit point list,
// which must evaluate identically at any worker count.
func TestSweepSpaceMatchesPointList(t *testing.T) {
	sp := smallMixSpace(t, nil)
	pts := make([]hw.Point, sp.Len())
	for i := range pts {
		pts[i] = sp.At(i)
	}
	m := workload.NewAlexNet()
	cons := DefaultConstraints()
	want, err := SweepSpace(m, hw.PointList(pts), cons, eval.New(eval.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepSpace(m, sp, cons, eval.New(eval.Options{Workers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SweepSpace returned %d points over the mix space, %d over the point list", len(got), len(want))
	}
	for i := range want {
		if got[i].Point != want[i].Point || got[i].Feasible != want[i].Feasible ||
			got[i].Pareto != want[i].Pareto ||
			got[i].Summary != want[i].Summary {
			t.Errorf("row %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}
