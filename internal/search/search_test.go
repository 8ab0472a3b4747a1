package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// testSpaces returns the exhaustively verifiable spaces the search tests run
// against: the paper's 81-point grid, a generated fine subset, and the
// heterogeneous mix space (budget-filtered coordinates, so IndexOf can
// return -1).
func testSpaces(t *testing.T) []struct {
	name   string
	space  hw.DesignSpace
	models []*workload.Model
} {
	t.Helper()
	fineSub, err := hw.ParseSpace("6x6x4x4")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"paper", hw.PaperSpace(), []*workload.Model{workload.NewAlexNet()}},
		{"fine-subset", fineSub, []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
		{"mix", mix, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}},
	}
}

// canonResult flattens the fields of a search Result that must be identical
// across worker counts into one comparable string.
func canonResult(r dse.Result) string {
	return fmt.Sprintf("point=%+v feasible=%d explored=%d space=%q evals=%d",
		r.Config.Point, r.Feasible, r.Explored, r.SpaceDesc, len(r.Evals))
}

// selectionArea recomputes the summed per-model selection area of a point —
// the quantity search minimizes — so gap comparisons are like for like.
func selectionArea(t *testing.T, ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, pt hw.Point) float64 {
	t.Helper()
	area := 0.0
	for _, m := range models {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		c.Point = pt
		s, err := ev.EvaluateSummary(m, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		area += s.AreaMM2
	}
	return area
}

// TestSearchDeterminismAcrossWorkers pins the seed-determinism contract:
// for a fixed seed, both strategies must return byte-identical results and
// traces at 1 and 8 evaluator workers, on every test space at a quarter of
// the exhaustive budget, and on mixfine × AlexNet (110528 point·models), at
// 2%.
func TestSearchDeterminismAcrossWorkers(t *testing.T) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := append(testSpaces(t), struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{"mixfine-alexnet", mixfine, []*workload.Model{workload.NewAlexNet()}})
	for _, tc := range cases {
		n, nm := tc.space.Len(), len(tc.models)
		budget := n * nm / 4
		if tc.name == "mixfine-alexnet" {
			budget = n * nm / 50
		}
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				res   string
				trace Trace
			}
			var runs []run
			for _, workers := range []int{1, 8} {
				opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{Workers: workers})})
				if err != nil {
					t.Fatal(err)
				}
				res, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, kind, workers, err)
				}
				runs = append(runs, run{canonResult(res), tr})
			}
			if runs[0].res != runs[1].res {
				t.Errorf("%s/%s: result differs across workers\nw1: %s\nw8: %s",
					tc.name, kind, runs[0].res, runs[1].res)
			}
			if !reflect.DeepEqual(runs[0].trace, runs[1].trace) {
				t.Errorf("%s/%s: trace differs across workers\nw1: %+v\nw8: %+v",
					tc.name, kind, runs[0].trace, runs[1].trace)
			}
		}
	}
}

// cancelingSpace counts its At calls and cancels a context on the limit-th.
type cancelingSpace struct {
	hw.DesignSpace
	limit  int64
	cancel context.CancelFunc
	at     atomic.Int64
}

func (c *cancelingSpace) At(i int) hw.Point {
	if c.at.Add(1) == c.limit {
		c.cancel()
	}
	return c.DesignSpace.At(i)
}

// TestSearchCancelDuringEnding cancels in a search's ending: an uncancelled
// run on the paper point list counts the space's At calls, the last of which
// is the winner's materialization, and a rerun that cancels the context on
// that call must return the context's error, not its winner — a run either
// completes before its context is done or fails with its error, as a
// sweep's does.
func TestSearchCancelDuringEnding(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	points := hw.PointList(hw.PaperSpace().Points())
	budget := points.Len() * len(models) / 4
	for _, kind := range []string{"anneal", "genetic"} {
		spec, err := ParseSpec(kind)
		if err != nil {
			t.Fatal(err)
		}
		run := func(ctx context.Context, space hw.DesignSpace) error {
			opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{Workers: 2})})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = opt.Run(ctx, models, space, dse.DefaultConstraints(), budget)
			return err
		}
		count := &cancelingSpace{DesignSpace: points, cancel: func() {}}
		if err := run(context.Background(), count); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		space := &cancelingSpace{DesignSpace: points, limit: count.at.Load(), cancel: cancel}
		err = run(ctx, space)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: search cancelled on its winner's materialization returned %v, want context.Canceled", kind, err)
		}
	}
}

// TestSearchBudgetExactness pins the budget ledger: on a fresh evaluator the
// miss count after a run (scoring plus winner materialization) never exceeds
// the budget, evaluations equal unique points x models, and repeat visits
// surface as trace cache hits, not budget spend.
func TestSearchBudgetExactness(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		budget := n * nm / 5
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			ev := eval.New(eval.Options{Workers: 4})
			opt, err := New(spec, Options{Seed: 3, Evaluator: ev})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			stats := ev.Stats()
			if stats.Misses > uint64(budget) {
				t.Errorf("%s/%s: evaluator misses %d exceed budget %d", tc.name, kind, stats.Misses, budget)
			}
			if tr.Evaluations != tr.UniquePoints*nm {
				t.Errorf("%s/%s: Evaluations=%d != UniquePoints(%d) x models(%d)",
					tc.name, kind, tr.Evaluations, tr.UniquePoints, nm)
			}
			if tr.Evaluations > budget-nm {
				t.Errorf("%s/%s: Evaluations=%d exceed scoring budget %d", tc.name, kind, tr.Evaluations, budget-nm)
			}
			if tr.EvalsToWin <= 0 || tr.EvalsToWin > tr.Evaluations {
				t.Errorf("%s/%s: EvalsToWin=%d out of range (0, %d]", tc.name, kind, tr.EvalsToWin, tr.Evaluations)
			}
			if tr.CacheHits < 0 {
				t.Errorf("%s/%s: negative CacheHits", tc.name, kind)
			}
		}
	}
}

// TestSearchGapRegression is the optimality-gap regression gate on spaces
// where brute force is feasible: with a quarter of the exhaustive budget,
// both strategies must land within 5% of the exhaustive optimum's selection
// area (the bench gates the headline 1%-at-5%-budget criterion on the full
// fine and mixfine spaces).
func TestSearchGapRegression(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		ev := eval.New(eval.Options{Workers: 8})
		exh, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		exhArea := selectionArea(t, ev, tc.models, tc.space, exh.Config.Point)
		budget := n * nm / 4
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(spec, Options{Seed: 11, Evaluator: ev})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			gap := (tr.BestAreaMM2 - exhArea) / exhArea
			if gap > 0.05 || gap < -0.05 {
				t.Errorf("%s/%s: optimality gap %.4f exceeds ±5%% (search %.4f mm2, exhaustive %.4f mm2, %d/%d evals)",
					tc.name, kind, gap, tr.BestAreaMM2, exhArea, tr.Evaluations, n*nm)
			}
		}
	}
}

// TestSearchFallbackExhaustive pins the fallback contract: a budget covering
// the whole space routes to the exhaustive streaming sweep and returns its
// Result — winner, feasible count, explored count, space and evaluations —
// with Fallback set and every point counted as visited. MobileNetV2 alone on
// the mix space is the case where a sweep that stopped early, counting only
// a scanned prefix, reported a different feasible count than the full sweep.
func TestSearchFallbackExhaustive(t *testing.T) {
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := append(testSpaces(t), struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{"mix-mobilenetv2", mix, []*workload.Model{workload.NewMobileNetV2()}})
	for _, tc := range cases {
		n, nm := tc.space.Len(), len(tc.models)
		ev := eval.New(eval.Options{Workers: 4})
		exh, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec("anneal")
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(spec, Options{Seed: 1, Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), n*nm)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tr.Fallback || tr.Strategy != "exhaustive" {
			t.Errorf("%s: expected exhaustive fallback, got %+v", tc.name, tr)
		}
		if got, want := canonResult(res), canonResult(exh); got != want {
			t.Errorf("%s: fallback result differs from the sweep's\nfallback: %s\nsweep:    %s", tc.name, got, want)
		}
		if tr.UniquePoints != n {
			t.Errorf("%s: UniquePoints = %d, want the whole space %d", tc.name, tr.UniquePoints, n)
		}
	}
}

// TestSearchBudgetTooSmall pins the minimum-budget error.
func TestSearchBudgetTooSmall(t *testing.T) {
	spec, err := ParseSpec("genetic")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(spec, Options{Seed: 1, Evaluator: eval.New(eval.Options{Workers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	if _, _, err := opt.Run(context.Background(), models, hw.PaperSpace(), dse.DefaultConstraints(), 3); err == nil {
		t.Fatal("expected an error for a budget below the minimum")
	}
}

// TestSearchErrorMatchesSweep pins the ending the sweep and the search share
// (dse.Selector.Conclude) on its failure path: under an area limit no point
// meets, an exhaustive sweep and a budgeted anneal search fail with the same
// error text.
func TestSearchErrorMatchesSweep(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	space := hw.PaperSpace()
	cons := dse.Constraints{MaxChipAreaMM2: 1e-6, MaxPowerDensityWPerMM2: 0.8, LatencySlack: 1}
	ev := eval.New(eval.Options{Workers: 2})
	_, wantErr := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, nil)
	if wantErr == nil {
		t.Fatal("sweep unexpectedly feasible")
	}
	spec, err := ParseSpec("anneal")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(spec, Options{Seed: 1, Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	_, _, gotErr := opt.Run(context.Background(), models, space, cons, space.Len()*len(models)/4)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("error mismatch:\nsweep:  %v\nsearch: %v", wantErr, gotErr)
	}
}

// TestSearchAcceptanceGate pins the budgeted-search acceptance criterion on
// the large spaces it was set for: on fine × the training set and on mixfine
// × (AlexNet, ViT-base, ResNet18), at seed 7 and a budget of 5% of the
// exhaustive evaluation count, both strategies must land within 1% of the
// exhaustive optimum's selection area while spending at most that 5%.
func TestSearchAcceptanceGate(t *testing.T) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	cons := dse.DefaultConstraints()
	for _, tc := range []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"fine", hw.FineSpace(), workload.TrainingSet()},
		{"mixfine", mixfine, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}},
	} {
		n, nm := tc.space.Len(), len(tc.models)
		ev := eval.New(eval.Options{})
		exh, err := dse.ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		exhArea := selectionArea(t, ev, tc.models, tc.space, exh.Config.Point)
		budget := n * nm / 20
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, cons, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			gap := (tr.BestAreaMM2 - exhArea) / exhArea
			if math.Abs(gap) > 0.01 {
				t.Errorf("%s/%s: optimality gap %.4f exceeds ±1%% (search %.4f mm2, exhaustive %.4f mm2)",
					tc.name, kind, gap, tr.BestAreaMM2, exhArea)
			}
			if ratio := float64(tr.Evaluations) / float64(n*nm); ratio > 0.05 {
				t.Errorf("%s/%s: %d evaluations are %.2f%% of the exhaustive %d, want <= 5%%",
					tc.name, kind, tr.Evaluations, 100*ratio, n*nm)
			}
		}
	}
}
