package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/check/oracle"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// pick returns the models target names, in target order.
func pick(models []*workload.Model, target []int) []*workload.Model {
	out := make([]*workload.Model, len(target))
	for q, i := range target {
		out[q] = models[i]
	}
	return out
}

// sameResult reports how got differs from want, or "" when it does not:
// reflect.DeepEqual over the whole Result, plus the float bits of the
// configuration's area and every evaluation's area and latency, which
// DeepEqual compares only by value.
func sameResult(got, want Result) string {
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("results differ:\n got  %s\n want %s", canonResult(got), canonResult(want))
	}
	if math.Float64bits(got.TotalAreaMM2()) != math.Float64bits(want.TotalAreaMM2()) {
		return "configuration areas differ in their bits"
	}
	for i := range got.Evals {
		g, w := got.Evals[i], want.Evals[i]
		if math.Float64bits(g.AreaMM2) != math.Float64bits(w.AreaMM2) ||
			math.Float64bits(g.LatencyS) != math.Float64bits(w.LatencyS) {
			return fmt.Sprintf("%s: area or latency bits differ", g.Model.Name)
		}
	}
	return ""
}

// TestExploreTargetsMatchesSeparateSweeps is the multi-target sweep's
// differential: every target's Result and error must equal a separate
// ExploreSpaceCtx over the models it names, in its order, on a fresh
// engine. It covers the cost-table spaces (paper, fine, mix) and a point
// list (the per-point kernel), analytical and staged fidelity, workers 1
// and 8, and targets that overlap, repeat, reorder and cover the full set.
func TestExploreTargetsMatchesSeparateSweeps(t *testing.T) {
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18(), workload.NewViTBase()}
	targets := [][]int{{0}, {1}, {2}, {0, 1, 2}, {2, 0, 1}, {2, 0}, {1, 2}, {0}, {1, 1}}
	cons := DefaultConstraints()
	staged := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
	for _, space := range []hw.DesignSpace{hw.PaperSpace(), hw.FineSpace(), mix, hw.PointList(hw.PaperSpace().Points())} {
		for _, fo := range []*FidelityOptions{nil, staged} {
			if fo != nil && space.Len() > 5000 && testing.Short() {
				continue
			}
			want := make([]Result, len(targets))
			for k, target := range targets {
				var stats ExploreStats
				want[k], err = ExploreSpaceCtx(context.Background(), pick(models, target), space, cons,
					eval.New(eval.Options{Workers: 1}), &ExploreOptions{Fidelity: fo, Stats: &stats})
				if err != nil {
					t.Fatalf("%s staged=%v target %v: %v", space.Desc(), fo.Staged(), target, err)
				}
				// The target swept alone through its projection selects on
				// the same summed areas, bit for bit.
				var alone ExploreStats
				if _, errs := ExploreTargetsCtx(context.Background(), models, [][]int{target}, space, cons,
					eval.New(eval.Options{Workers: 1}), &ExploreOptions{Fidelity: fo, Stats: &alone}); errs[0] != nil {
					t.Fatal(errs[0])
				}
				if math.Float64bits(alone.WinnerAreaMM2) != math.Float64bits(stats.WinnerAreaMM2) {
					t.Errorf("%s staged=%v target %v: selection area %v, want %v bit for bit",
						space.Desc(), fo.Staged(), target, alone.WinnerAreaMM2, stats.WinnerAreaMM2)
				}
			}
			for _, workers := range []int{1, 8} {
				got, errs := ExploreTargetsCtx(context.Background(), models, targets, space, cons,
					eval.New(eval.Options{Workers: workers}), &ExploreOptions{Fidelity: fo})
				for k, target := range targets {
					if errs[k] != nil {
						t.Fatalf("%s staged=%v workers=%d target %v: %v", space.Desc(), fo.Staged(), workers, target, errs[k])
					}
					if d := sameResult(got[k], want[k]); d != "" {
						t.Errorf("%s staged=%v workers=%d target %v: %s", space.Desc(), fo.Staged(), workers, target, d)
					}
				}
			}
		}
	}
}

// TestExploreTargetsDeterministicAcrossWorkers pins the multi-target sweep's
// worker-count identity on the 19 selections of a Table I training run,
// staged, on the paper space: every target's Result must be the same at 1, 3
// and 8 workers, and its stage-1 refinement must have run.
func TestExploreTargetsDeterministicAcrossWorkers(t *testing.T) {
	models := workload.TrainingSet()
	targets := tableITargets(models)
	fo := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
	var want []string
	for _, workers := range []int{1, 3, 8} {
		got, errs := ExploreTargetsCtx(context.Background(), models, targets, hw.PaperSpace(), DefaultConstraints(),
			eval.New(eval.Options{Workers: workers}), &ExploreOptions{Fidelity: fo})
		canon := make([]string, len(targets))
		for k := range targets {
			if errs[k] != nil {
				t.Fatalf("workers=%d target %v: %v", workers, targets[k], errs[k])
			}
			if got[k].Refined == nil || got[k].Refined.Refined == 0 {
				t.Fatalf("workers=%d target %v: stage 1 did not run", workers, targets[k])
			}
			canon[k] = canonResult(got[k])
		}
		if want == nil {
			want = canon
			continue
		}
		for k := range targets {
			if canon[k] != want[k] {
				t.Errorf("workers=%d target %v differs from workers=1:\n%s\nvs\n%s", workers, targets[k], canon[k], want[k])
			}
		}
	}
}

// TestExploreTargetsCancel pins the multi-target sweep's cancellation: a
// cancel mid-sweep stops it within a few chunks, and one during stage 1 —
// fired by the first point read after the scan, a candidate's — aborts
// every target's refinement. Either way every target returns
// context.Canceled.
func TestExploreTargetsCancel(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18(), workload.NewViTBase()}
	targets := [][]int{{0}, {1}, {2}, {0, 1, 2}, {2, 0}}
	fo := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
	checkAll := func(what string, errs []error) {
		t.Helper()
		for k, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: target %v returned %v, want context.Canceled", what, targets[k], err)
			}
		}
	}

	space := &countingSpace{DesignSpace: hw.FineSpace()}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	_, errs := ExploreTargetsCtx(ctx, models, targets, space, DefaultConstraints(), eval.New(eval.Options{Workers: 2}),
		&ExploreOptions{ChunkSize: 64, Progress: func(done, total int) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		}})
	cancel()
	checkAll("mid-sweep", errs)
	if got, n := int(space.at.Load()), space.Len(); got >= n/4 {
		t.Errorf("mid-sweep: cancelled sweep touched %d of %d points, want < %d", got, n, n/4)
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		space := &cancelingSpace{DesignSpace: hw.PaperSpace(), cancel: cancel}
		space.limit = int64(space.Len()) + 1
		_, errs := ExploreTargetsCtx(ctx, models, targets, space, DefaultConstraints(),
			eval.New(eval.Options{Workers: workers}), &ExploreOptions{Fidelity: fo})
		cancel()
		checkAll(fmt.Sprintf("stage 1, workers=%d", workers), errs)
	}
}

// failingColumn is an oracle column that fails at the points listed in
// fail, with an error naming the point and the model.
type failingColumn struct {
	oracleColumn
	fail map[int]bool
}

func (f failingColumn) Summary(c hw.Config, batch int) (ppa.Summary, error) {
	if k := c.Point.SASize; f.fail[k] {
		return ppa.Summary{}, fmt.Errorf("point %d model %d", k, f.i)
	}
	return f.oracleColumn.Summary(c, batch)
}

// TestTargetErrorsIsolated pins error isolation on the per-point path,
// through the summarizer seam: random oracle matrices whose models fail at
// random points are swept for random targets under random shard counts,
// chunk sizes, chunk claiming and merge orders. A target that names a
// failing model must report the error of its lowest failing point, from the
// first model failing there in target order; every other target must select
// exactly what the brute-force oracle selects over its models' columns.
func TestTargetErrorsIsolated(t *testing.T) {
	for _, seed := range []int64{3, 11, 20260806} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 100; trial++ {
			m, slack := oracle.RandomTrial(rng)
			var targets [][]int
			for range 1 + rng.Intn(6) {
				target := make([]int, 1+rng.Intn(m.Models+1))
				for q := range target {
					target[q] = rng.Intn(m.Models)
				}
				targets = append(targets, target)
			}
			fails := make([]map[int]bool, m.Models)
			for i := range fails {
				fails[i] = make(map[int]bool)
				if rng.Intn(2) == 0 {
					for range 1 + rng.Intn(3) {
						fails[i][rng.Intn(m.Points())] = true
					}
				}
			}
			sw := oracleSweep(m, slack)
			for i := range sw.score.plans {
				sw.score.plans[i] = failingColumn{oracleColumn{m, i}, fails[i]}
			}
			sw.targets = targets
			sels, errs := runTargetShards(rng, sw)
			for k, target := range targets {
				wantErr := ""
				for p := 0; p < m.Points() && wantErr == ""; p++ {
					for _, i := range target {
						if fails[i][p] {
							wantErr = fmt.Sprintf("point %d model %d", p, i)
							break
						}
					}
				}
				if wantErr != "" {
					if errs[k] == nil || errs[k].Error() != wantErr {
						t.Fatalf("seed %d trial %d target %v: error %v, want %q", seed, trial, target, errs[k], wantErr)
					}
					continue
				}
				if errs[k] != nil {
					t.Fatalf("seed %d trial %d target %v: unexpected error %v", seed, trial, target, errs[k])
				}
				want := project(m, target).Select(slack)
				sel := sels[k]
				winner, _, _ := sel.Best()
				if winner != want.Winner() || !slices.Equal(sel.FeasibleFrontier(), want.Frontier) ||
					sel.Feasible() != want.Feasible || !slices.Equal(sel.BestLatencies(), want.Ref) {
					t.Fatalf("seed %d trial %d target %v: winner %d feasible %d, oracle winner %d feasible %d",
						seed, trial, target, winner, sel.Feasible(), want.Winner(), want.Feasible)
				}
			}
		}
	}
}

// project returns the oracle matrix of target's columns of m, in target
// order.
func project(m oracle.Matrix, target []int) oracle.Matrix {
	out := oracle.Matrix{Models: len(target)}
	for k := 0; k < m.Points(); k++ {
		row := m.Row(k)
		for _, i := range target {
			out.Obs = append(out.Obs, row[i])
		}
	}
	return out
}

// runTargetShards is runShards for every target of the sweep: it scans the
// space under a random schedule and merges each target's shards in a random
// order, returning every target's merged Selector and error.
func runTargetShards(rng *rand.Rand, sw *sweepState) ([]*Selector, []error) {
	nShards := 1 + rng.Intn(4)
	chunk := 1 + rng.Intn(sw.n)
	shards := make([]*exploreShard, nShards)
	for lo := 0; lo < sw.n; lo += chunk {
		s := rng.Intn(nShards)
		if shards[s] == nil {
			shards[s] = newExploreShard(sw)
		}
		shards[s].scanChunk(lo, min(lo+chunk, sw.n))
	}
	sels := make([]*Selector, len(sw.targets))
	errs := make([]error, len(sw.targets))
	for k := range sw.targets {
		rng.Shuffle(nShards, func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
		sels[k], errs[k] = sw.merge(k, shards, &ExploreStats{})
	}
	return sels, errs
}

// TestProjectionSumsInTargetOrder pins the projection's area sum to the
// target's order, the order a Scorer of the target's models adds its areas
// in: with per-model areas 1e16, 1 and 1, adding the large one first rounds
// both small ones away, and adding it last keeps them.
func TestProjectionSumsInTargetOrder(t *testing.T) {
	b := &scores{idx: []int{0}, area: []float64{1e16, 1, 1}, lat: make([]float64, 3), static: make([]bool, 3)}
	ref := make([]float64, 3)
	for _, target := range [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}} {
		var p projection
		p.project(target, b, 3, ref)
		want := 0.0
		for _, i := range target {
			want += b.area[i]
		}
		if math.Float64bits(p.area[0]) != math.Float64bits(want) {
			t.Errorf("target %v: projected area %v, want %v", target, p.area[0], want)
		}
	}
}
