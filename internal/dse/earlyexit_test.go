package dse

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestEarlyExitMatchesFullSweep pins the early-exit soundness proof: with
// EarlyExit enabled the sweep must return the exact winner of the full sweep
// on every space shape (grid and mix), including one large enough
// (10x8x4x4 = 1280 points) to cross a superblock boundary, and the skip
// count must be identical at every worker count.
func TestEarlyExitMatchesFullSweep(t *testing.T) {
	big, err := hw.ParseSpace("10x8x4x4")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"paper", hw.PaperSpace(), []*workload.Model{workload.NewAlexNet()}},
		{"big-grid", big, []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
		{"mix", mix, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}},
	}
	cons := DefaultConstraints()
	for _, tc := range cases {
		full, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, eval.New(eval.Options{Workers: 4}), nil)
		if err != nil {
			t.Fatal(err)
		}
		var skipped []int
		for _, workers := range []int{1, 8} {
			var stats ExploreStats
			ev := eval.New(eval.Options{Workers: workers})
			res, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, ev, &ExploreOptions{EarlyExit: true, Stats: &stats})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if res.Config.Point != full.Config.Point {
				t.Errorf("%s workers=%d: early-exit winner %+v differs from full sweep %+v",
					tc.name, workers, res.Config.Point, full.Config.Point)
			}
			if len(res.Evals) != len(full.Evals) {
				t.Errorf("%s workers=%d: early-exit winner has %d evals, full sweep %d",
					tc.name, workers, len(res.Evals), len(full.Evals))
			}
			if stats.SkippedPoints < 0 || stats.SkippedPoints >= tc.space.Len() {
				t.Errorf("%s workers=%d: SkippedPoints=%d out of range [0,%d)",
					tc.name, workers, stats.SkippedPoints, tc.space.Len())
			}
			if res.Explored != tc.space.Len()-stats.SkippedPoints {
				t.Errorf("%s workers=%d: Explored=%d inconsistent with SkippedPoints=%d",
					tc.name, workers, res.Explored, stats.SkippedPoints)
			}
			skipped = append(skipped, stats.SkippedPoints)
		}
		if skipped[0] != skipped[1] {
			t.Errorf("%s: SkippedPoints differ across workers: %v", tc.name, skipped)
		}
	}
}

// TestEarlyExitSkipsSomewhere checks the optimization actually fires, not
// just degrades to a full sweep. Under loose constraints the winner is the
// global minimum-area point in the first SASize block, its latency
// certifies against the corner lower bounds, and every remaining block's
// minimum area exceeds it — so the sweep must stop at the first superblock
// boundary past the winner and skip the tail, identically at every worker
// count.
func TestEarlyExitSkipsSomewhere(t *testing.T) {
	big, err := hw.ParseSpace("10x8x4x4")
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet()}
	loose := Constraints{MaxChipAreaMM2: 1e9, MaxPowerDensityWPerMM2: 1e9, LatencySlack: 1e6}
	full, err := ExploreSpaceCtx(context.Background(), models, big, loose, eval.New(eval.Options{Workers: 4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var skipped []int
	for _, workers := range []int{1, 8} {
		var stats ExploreStats
		ev := eval.New(eval.Options{Workers: workers})
		res, err := ExploreSpaceCtx(context.Background(), models, big, loose, ev, &ExploreOptions{EarlyExit: true, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if res.Config.Point != full.Config.Point {
			t.Errorf("workers=%d: early-exit winner %+v differs from full sweep %+v",
				workers, res.Config.Point, full.Config.Point)
		}
		if stats.SkippedPoints == 0 {
			t.Errorf("workers=%d: early exit never skipped a point", workers)
		}
		skipped = append(skipped, stats.SkippedPoints)
	}
	if skipped[0] != skipped[1] {
		t.Errorf("SkippedPoints differ across workers: %v", skipped)
	}
}

// TestSelectorMatchesExplore pins the Selector replay contract the search
// package depends on: feeding every point of a space through a Selector in
// enumeration order must reproduce the streaming sweep's winner.
func TestSelectorMatchesExplore(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	space := hw.PaperSpace()
	cons := DefaultConstraints()
	ev := eval.New(eval.Options{Workers: 4})
	full, err := ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := observeSpace(models, space, cons, ev)
	if err != nil {
		t.Fatal(err)
	}
	sel := replaySelector(mat, cons)
	idx, _, ok := sel.Best()
	if !ok {
		t.Fatal("selector found no winner")
	}
	if space.At(idx) != full.Config.Point {
		t.Errorf("selector winner %+v differs from sweep winner %+v", space.At(idx), full.Config.Point)
	}
}
