package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// hugeSpec builds a synthetic 10^8-point SpaceSpec (100 values per axis)
// without ever enumerating it — only Len() and the byte pricing are exercised.
func hugeSpec() hw.SpaceSpec {
	axis := func() []int {
		vs := make([]int, 100)
		for i := range vs {
			vs[i] = i + 1
		}
		return vs
	}
	return hw.SpaceSpec{Name: "huge", SASizes: axis(), NSAs: axis(), NActs: axis(), NPools: axis()}
}

// TestStatsBytePricingInt64 is the overflow regression for
// ExploreStats.NaiveBytes/RetainedBytes: at a 10^8-point space x 13 models
// the naive-matrix price is 41.6 GB — past a 32-bit int, so the pricing must
// be computed in widened int64 arithmetic, not priced in int and converted.
func TestStatsBytePricingInt64(t *testing.T) {
	spec := hugeSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Len(); got != 100_000_000 {
		t.Fatalf("huge spec Len = %d, want 10^8", got)
	}
	nb := naiveBytes(spec.Len(), 13)
	if want := int64(100_000_000) * 13 * 32; nb != want {
		t.Fatalf("naiveBytes = %d, want %d", nb, want)
	}
	if nb <= math.MaxInt32 {
		t.Fatalf("naiveBytes = %d does not exceed 32-bit range; regression test lost its teeth", nb)
	}
	// A frontier and a band the size of the whole space must also price
	// correctly.
	rb := retainedBytes(spec.Len(), spec.Len(), 13)
	if want := int64(100_000_000) * (15 + 13) * 8; rb != want {
		t.Fatalf("retainedBytes = %d, want %d", rb, want)
	}
	if rb <= math.MaxInt32 {
		t.Fatalf("retainedBytes = %d does not exceed 32-bit range", rb)
	}
}

// TestExploreStatsPricingMatchesHelpers pins the ExploreStats fields populated
// by a real (small) sweep to the shared pricing helpers.
func TestExploreStatsPricingMatchesHelpers(t *testing.T) {
	models := []*workload.Model{workload.NewResNet18(), workload.NewGPT2()}
	var stats ExploreStats
	_, err := ExploreSpaceCtx(context.Background(), models, hw.PaperSpace(), DefaultConstraints(), nil,
		&ExploreOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NaiveBytes != naiveBytes(stats.Points, stats.Models) {
		t.Errorf("NaiveBytes = %d, want %d", stats.NaiveBytes, naiveBytes(stats.Points, stats.Models))
	}
	if want := retainedBytes(stats.MaxRetained, stats.MaxBand, stats.Models); stats.RetainedBytes != want {
		t.Errorf("RetainedBytes = %d, want %d", stats.RetainedBytes, want)
	}
	if stats.MaxRetained <= 0 || stats.Retained <= 0 {
		t.Errorf("retained counters not populated: %+v", stats)
	}
}

// TestMaxRetainedBoundsFrontierPeak pins MaxRetained as a bound on the
// frontier at every instant, not just at chunk ends: a one-worker sweep must
// report at least the largest frontier a Selector replay of the same points
// at the sweep's chunk boundaries reaches — including the peak inside a
// chunk, which a chunk-end sample misses.
func TestMaxRetainedBoundsFrontierPeak(t *testing.T) {
	cases := []struct {
		name   string
		models []*workload.Model
		space  hw.DesignSpace
		chunk  int
	}{
		{"paper x training set, one chunk", workload.TrainingSet(), hw.PaperSpace(), hw.PaperSpace().Len()},
		{"fine x trio", []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()},
			hw.FineSpace(), 0},
	}
	for _, c := range cases {
		cons := DefaultConstraints()
		ev := eval.New(eval.Options{Workers: 1})
		var stats ExploreStats
		if _, err := ExploreSpaceCtx(context.Background(), c.models, c.space, cons, ev,
			&ExploreOptions{ChunkSize: c.chunk, Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		mat, err := observeSpace(c.models, c.space, cons, ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, peak := replaySelector(mat, cons, stats.ChunkSize); stats.MaxRetained < peak {
			t.Errorf("%s: MaxRetained = %d, below the replayed frontier peak %d", c.name, stats.MaxRetained, peak)
		}
	}
}
