package dse

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/check/oracle"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// observeSpace builds the brute-force oracle's eager observation matrix for
// models over space: every point's per-model summary from the per-point
// kernel, judged by the sweep's static constraint check.
func observeSpace(models []*workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator) (oracle.Matrix, error) {
	tmpl := make([]hw.Config, len(models))
	for i, m := range models {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
		tmpl[i].Cat = hw.CatalogueOf(space)
	}
	return oracle.Build(space.Len(), len(models), func(k, i int) (oracle.Obs, error) {
		c := tmpl[i]
		c.Point = space.At(k)
		s, err := ev.EvaluateSummary(models[i], c, 1)
		if err != nil {
			return oracle.Obs{}, err
		}
		return oracle.Obs{AreaMM2: s.AreaMM2, LatencyS: s.LatencyS,
			Static: cons.MeetsStatic(s.AreaMM2, s.PowerDensity())}, nil
	})
}

// replaySelector feeds every row of mat, in index order, through a Selector,
// moving the reference only at chunk boundaries as a one-worker sweep does:
// at the start of each chunk of the given size it lowers the reference to
// the chunk's statically feasible minima, then observes the chunk's rows one
// at a time. It also returns the largest frontier the Selector held after
// any row, a peak inside a chunk included. Chunk size 1 is plain
// point-by-point observation.
func replaySelector(mat oracle.Matrix, cons Constraints, chunk int) (*Selector, int) {
	sel := NewSelector(mat.Models, cons)
	lats := make([]float64, mat.Models)
	statics := make([]bool, mat.Models)
	minima := make([]float64, mat.Models)
	peak := 0
	for k := 0; k < mat.Points(); k++ {
		if k%chunk == 0 {
			copy(minima, sel.BestLatencies())
			for r := k; r < min(k+chunk, mat.Points()); r++ {
				for i, o := range mat.Row(r) {
					if o.Static {
						minima[i] = min(minima[i], o.LatencyS)
					}
				}
			}
			sel.lowerTo(minima)
		}
		for i, o := range mat.Row(k) {
			lats[i], statics[i] = o.LatencyS, o.Static
		}
		sel.Observe(k, mat.Area(k), lats, statics)
		peak = max(peak, len(sel.front.cands))
	}
	return sel, peak
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
	sel, _ := replaySelector(mat, cons, 1)
	idx, _, ok := sel.Best()
	if !ok {
		t.Fatal("selector found no winner")
	}
	if space.At(idx) != full.Config.Point {
		t.Errorf("selector winner %+v differs from sweep winner %+v", space.At(idx), full.Config.Point)
	}
}

// exploreReference is the eager oracle for byte-identity tests: it
// materializes the full O(points x models) observation matrix, selects with
// the brute-force oracle, and evaluates the winner like the sweep does. Any
// change to the streaming sweep must keep ExploreSpaceCtx equal to this on
// every space that fits in memory.
func exploreReference(models []*workload.Model, space []hw.Point, cons Constraints, ev *eval.Evaluator) (Result, error) {
	if len(models) == 0 {
		return Result{}, fmt.Errorf("dse: no models")
	}
	if len(space) == 0 {
		return Result{}, fmt.Errorf("dse: empty design space")
	}
	if err := cons.Validate(); err != nil {
		return Result{}, err
	}
	if ev == nil {
		ev = eval.Shared()
	}
	mat, err := observeSpace(models, hw.PointList(space), cons, ev)
	if err != nil {
		return Result{}, err
	}
	sel := mat.Select(cons.LatencySlack)
	for i, m := range models {
		if math.IsInf(sel.Ref[i], 1) {
			return Result{}, fmt.Errorf("dse: no space point meets area/power constraints for %s", m.Name)
		}
	}
	best := sel.Winner()
	if best < 0 {
		return Result{}, fmt.Errorf("dse: no feasible configuration for %d models under %+v",
			len(models), cons)
	}
	final := hw.NewConfig(space[best], models)
	evals := make([]*ppa.Eval, len(models))
	for i, m := range models {
		e, err := ev.Evaluate(m, final)
		if err != nil {
			return Result{}, err
		}
		evals[i] = e
	}
	return Result{Config: final, Evals: evals, Feasible: sel.Feasible, Explored: len(space)}, nil
}

// TestStreamingMatchesReference is the streaming sweep's central acceptance
// gate: over the paper's 81 points as a point list the streaming sweep must
// return byte-identical Results to the eager two-pass reference at worker
// counts {1, 3, 8} and chunk sizes {1, 7, 81}.
func TestStreamingMatchesReference(t *testing.T) {
	modelSets := [][]*workload.Model{
		{workload.NewAlexNet()},
		{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()},
	}
	consSets := []Constraints{DefaultConstraints(), {
		MaxChipAreaMM2:         100,
		MaxPowerDensityWPerMM2: 0.8,
		LatencySlack:           PaperLatencySlack,
	}}
	space := hw.PaperSpace().Points()
	for mi, models := range modelSets {
		for ci, cons := range consSets {
			want, err := exploreReference(models, space, cons, eval.New(eval.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			ref := canonResult(want)
			for _, workers := range []int{1, 3, 8} {
				for _, chunk := range []int{1, 7, 81} {
					got, err := ExploreSpaceCtx(context.Background(), models, hw.PointList(space), cons,
						eval.New(eval.Options{Workers: workers}),
						&ExploreOptions{ChunkSize: chunk})
					if err != nil {
						t.Fatalf("models=%d cons=%d workers=%d chunk=%d: %v",
							mi, ci, workers, chunk, err)
					}
					if canonResult(got) != ref {
						t.Errorf("models=%d cons=%d workers=%d chunk=%d: streaming differs from reference\n--- reference ---\n%s--- streaming ---\n%s",
							mi, ci, workers, chunk, ref, canonResult(got))
					}
				}
			}
		}
	}
}

// TestStreamingMatchesReferenceOnGeneratedSpace extends the oracle check to a
// generated spec (different axis values than the paper's, including points
// that fail static feasibility) swept lazily, against the reference over the
// materialized same points.
func TestStreamingMatchesReferenceOnGeneratedSpace(t *testing.T) {
	spec, err := hw.ParseSpace("4x4x3x3")
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	cons := DefaultConstraints()
	want, err := exploreReference(models, spec.Points(), cons, eval.New(eval.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, chunk := range []int{0, 5} {
			got, err := ExploreSpaceCtx(context.Background(), models, spec, cons, eval.New(eval.Options{Workers: workers}),
				&ExploreOptions{ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if canonResult(got) != canonResult(want) {
				t.Errorf("workers=%d chunk=%d: differs from reference", workers, chunk)
			}
		}
	}
}

// TestStreamingErrorMatchesReference checks the failure paths agree with the
// reference: impossibly tight area constraints must produce the same error.
func TestStreamingErrorMatchesReference(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	cons := Constraints{MaxChipAreaMM2: 1e-6, MaxPowerDensityWPerMM2: 0.8, LatencySlack: 1}
	_, wantErr := exploreReference(models, hw.PaperSpace().Points(), cons, eval.New(eval.Options{Workers: 1}))
	if wantErr == nil {
		t.Fatal("reference unexpectedly feasible")
	}
	_, gotErr := ExploreSpaceCtx(context.Background(), models, hw.PointList(hw.PaperSpace().Points()), cons,
		eval.New(eval.Options{Workers: 8}), &ExploreOptions{ChunkSize: 7})
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("error mismatch:\nreference: %v\nstreaming: %v", wantErr, gotErr)
	}
}

// TestStreamingByteIdentityMatrix extends the byte-identity gate to the
// sharded reduction's full determinism matrix on lazily enumerated spaces: a
// generated fine subset and the heterogeneous mix catalogue space, each swept
// through its cost tables at worker counts {1, 3, 8} x chunk sizes {1, 7, n}.
// Every cell must reproduce the eager reference, which scores the same points
// as a point list with the per-point kernel, byte for byte — shard count,
// chunk boundaries and the scoring path must be unobservable.
func TestStreamingByteIdentityMatrix(t *testing.T) {
	fineSub, err := hw.ParseSpace("5x5x3x3")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	mixPts := make([]hw.Point, 0, mix.Len())
	for i := 0; i < mix.Len(); i++ {
		mixPts = append(mixPts, mix.At(i))
	}
	cases := []struct {
		name   string
		space  hw.DesignSpace
		points []hw.Point
		models []*workload.Model
	}{
		{"fine-subset", fineSub, fineSub.Points(),
			[]*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
		{"mix", mix, mixPts,
			[]*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}},
	}
	cons := DefaultConstraints()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := exploreReference(tc.models, tc.points, cons, eval.New(eval.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			ref := canonResult(want)
			n := len(tc.points)
			for _, workers := range []int{1, 3, 8} {
				for _, chunk := range []int{1, 7, n} {
					got, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons,
						eval.New(eval.Options{Workers: workers}),
						&ExploreOptions{ChunkSize: chunk})
					if err != nil {
						t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
					}
					if canonResult(got) != ref {
						t.Errorf("workers=%d chunk=%d: streaming differs from reference\n--- reference ---\n%s--- streaming ---\n%s",
							workers, chunk, ref, canonResult(got))
					}
				}
			}
		})
	}
}

// TestExploreChunkLoopAllocFree pins the sharded sweep's allocation contract:
// once a warm-up pass has sized the frontier's backing arrays and the
// evaluator's plan tables, the steady-state chunk loop — scanChunk over the
// whole space — performs zero heap allocations. It covers both scoring
// paths: the per-point kernel on a homogeneous and a mix point list (every
// 7th point of the mix space), and the cost tables on a Cartesian and a mix
// space.
func TestExploreChunkLoopAllocFree(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	var mixPoints hw.PointList
	for k := 0; k < mix.Len(); k += 7 {
		mixPoints = append(mixPoints, mix.At(k))
	}
	cons := DefaultConstraints()
	for _, space := range []hw.DesignSpace{hw.PointList(hw.PaperSpace().Points()), mixPoints, hw.PaperSpace(), mix} {
		ev := eval.New(eval.Options{Workers: 1})
		sc := NewScorer(ev, models, space, cons)
		if _, list := space.(hw.PointList); list != (sc.tables == nil) {
			t.Fatalf("%s: tables built = %v", space.Desc(), sc.tables != nil)
		}
		sw := newSweepState(context.Background(), sc)
		sh := newExploreShard(sw)
		scan := func() {
			for lo := 0; lo < sw.n; lo += 16 {
				sh.scanChunk(lo, min(lo+16, sw.n))
			}
		}
		scan() // warm-up: sizes the frontier backing arrays and plan caches
		if sh.err != nil {
			t.Fatal(sh.err)
		}
		avg := testing.AllocsPerRun(10, func() {
			sh.sel.front.reset()
			scan()
		})
		if avg != 0 {
			t.Errorf("%s: steady-state chunk loop allocates %.1f objects per sweep, want 0", space.Desc(), avg)
		}
	}
}

// TestExploreColdAllocs bounds the allocations of one cold explore, the
// 13-model training set over the 81-point paper list on a fresh
// single-worker engine, at 3528 objects: 1.25 × the 2822 it reads. Unlike
// wall-clock time, the count barely moves between runs or machines, so it
// can gate here; .github/benchgate.sh gates the time against the base commit
// on one runner.
func TestExploreColdAllocs(t *testing.T) {
	models := workload.TrainingSet()
	space := hw.PointList(hw.PaperSpace().Points())
	cons := DefaultConstraints()
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = ExploreSpaceCtx(context.Background(), models, space, cons, eval.New(eval.Options{Workers: 1}), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 3528 {
		t.Errorf("cold explore allocates %.0f objects per run, want <= 3528 (1.25 x 2822)", allocs)
	}
}

// TestExploreStatsBoundedMemory checks the streaming sweep's observable
// memory claim on the fine preset (the >= 10k-point acceptance shape): the
// sweep must leave no engine entry but the winner's, and the peak
// retained-candidate set must cost no more than 10% of the naive summary
// matrix.
func TestExploreStatsBoundedMemory(t *testing.T) {
	spec := hw.FineSpace()
	models := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	var stats ExploreStats
	ev := eval.New(eval.Options{Workers: 4})
	r, err := ExploreSpaceCtx(context.Background(), models, spec, DefaultConstraints(),
		ev, &ExploreOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != spec.Len() || stats.Models != len(models) {
		t.Fatalf("stats = %+v, want %d points x %d models", stats, spec.Len(), len(models))
	}
	if stats.MaxRetained == 0 || stats.MaxRetained > spec.Len() {
		t.Fatalf("MaxRetained = %d out of range", stats.MaxRetained)
	}
	if ratio := float64(stats.RetainedBytes) / float64(stats.NaiveBytes); ratio > 0.10 {
		t.Errorf("retained memory %.1f%% of naive matrix, want <= 10%% (%+v)", 100*ratio, stats)
	}
	if r.SpaceDesc != spec.Desc() {
		t.Errorf("SpaceDesc = %q, want %q", r.SpaceDesc, spec.Desc())
	}
	if st := ev.Stats(); st.Entries != len(models) {
		t.Errorf("a %d-entry sweep left %d engine entries, want %d (the winner)",
			spec.Len()*len(models), st.Entries, len(models))
	}
}
