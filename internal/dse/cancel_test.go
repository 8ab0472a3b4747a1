package dse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// countingSpace wraps a DesignSpace and counts At calls — the direct measure
// of how many points a sweep actually touched.
type countingSpace struct {
	hw.DesignSpace
	at atomic.Int64
}

func (c *countingSpace) At(i int) hw.Point {
	c.at.Add(1)
	return c.DesignSpace.At(i)
}

// TestExploreCancelDuringEnding cancels after the scan, in the ending: the
// sweep reads each point of the paper point list once, so the space's next
// At call is a winner's materialization, and it cancels the context. The
// exploration must return ctx.Err() — for the one target of
// ExploreSpaceCtx and for every one of a Table I training run's 19 targets
// — not a winner, since a run either completes before its context is done
// or returns the context's error.
func TestExploreCancelDuringEnding(t *testing.T) {
	models := workload.TrainingSet()
	targets := tableITargets(models)
	for _, workers := range []int{1, 2} {
		for _, all := range [][][]int{{identity(len(models))}, targets} {
			ctx, cancel := context.WithCancel(context.Background())
			space := &cancelingSpace{DesignSpace: hw.PointList(hw.PaperSpace().Points()), cancel: cancel}
			space.limit = int64(space.Len()) + 1
			_, errs := ExploreTargetsCtx(ctx, models, all, space, DefaultConstraints(),
				eval.New(eval.Options{Workers: workers}), nil)
			cancel()
			if got := space.at.Load(); got <= int64(space.Len()) {
				t.Fatalf("workers=%d, %d targets: %d At calls, want a winner's read after the %d of the scan",
					workers, len(all), got, space.Len())
			}
			for i, err := range errs {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("workers=%d: target %d of %d cancelled in the ending returned %v, want context.Canceled",
						workers, i, len(all), err)
				}
			}
		}
	}
}

// TestExploreCancelMidSweep pins the server-facing cancellation contract on
// the fine space: cancelling the context mid-sweep makes ExploreSpaceCtx
// return ctx.Err() promptly, having scanned a small fraction of the space —
// chunk-granular, not phase-granular (the pre-PR-10 behavior checked
// cancellation only between coarse phases).
func TestExploreCancelMidSweep(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	space := &countingSpace{DesignSpace: hw.FineSpace()}
	n := space.Len()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from the Progress hook after the first completed chunk: the
	// remaining chunks must observe the cancelled context and skip.
	var fired atomic.Bool
	opts := &ExploreOptions{
		ChunkSize: 64,
		Progress: func(done, total int) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	_, err := ExploreSpaceCtx(ctx, models, space, DefaultConstraints(),
		eval.New(eval.Options{Workers: 2}), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	// Promptness: with 12288 points in chunks of 64, a worker pool of 2 can
	// have at most a few chunks in flight when the first one completes. Allow
	// a generous margin — anything under a quarter of the space proves the
	// chunk loop checks the context; the pre-PR-10 behavior scanned all n.
	if got := int(space.at.Load()); got >= n/4 {
		t.Errorf("cancelled sweep touched %d of %d points, want < %d (prompt chunk-granular stop)", got, n, n/4)
	}
}

// TestExploreCancelBeforeStart pins the already-cancelled fast path: the
// sweep returns ctx.Err() without scanning anything.
func TestExploreCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	models := []*workload.Model{workload.NewAlexNet()}
	space := &countingSpace{DesignSpace: hw.FineSpace()}
	_, err := ExploreSpaceCtx(ctx, models, space, DefaultConstraints(),
		eval.New(eval.Options{Workers: 2}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}
	if got := space.at.Load(); got != 0 {
		t.Errorf("pre-cancelled sweep touched %d points, want 0", got)
	}
}

// TestRefineSelectCancel pins staged refinement's cancellation: an already
// cancelled context aborts RefineSelect with ctx.Err().
// TestStagedCancelDuringStage1 cancels between candidates.
func TestRefineSelectCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	models := []*workload.Model{workload.NewAlexNet()}
	space := hw.PointList(hw.PaperSpace().Points())
	fo := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
	_, _, err := fo.RefineSelect(ctx, []int{0, 1}, models, space,
		DefaultConstraints(), eval.New(eval.Options{Workers: 1}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RefineSelect returned %v, want context.Canceled", err)
	}
}

// cancelingSpace cancels a context on its limit-th At call.
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

// TestStagedCancelDuringStage1 cancels between stage-1 candidates: the sweep
// reads each of the space's points once, so the space's next At call is the
// first candidate's, and it cancels the context. The exploration must return
// ctx.Err(), with every candidate not yet claimed by a worker skipped.
func TestStagedCancelDuringStage1(t *testing.T) {
	models := workload.TrainingSet()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		space := &cancelingSpace{DesignSpace: hw.PaperSpace(), cancel: cancel}
		space.limit = int64(space.Len()) + 1
		fo := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
		_, err := ExploreSpaceCtx(ctx, models, space, DefaultConstraints(), eval.New(eval.Options{Workers: workers}),
			&ExploreOptions{Fidelity: fo})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: exploration cancelled in stage 1 returned %v, want context.Canceled", workers, err)
		}
		if got, limit := space.at.Load(), int64(space.Len()+workers); got > limit {
			t.Errorf("workers=%d: %d At calls in all, want at most %d (one per point plus one per worker)", workers, got, limit)
		}
	}
}

// TestProgressReportsFullScan pins the Progress hook's accounting: an
// uncancelled sweep reports cumulative counts that reach exactly Len(space),
// and the result is byte-identical to a run without the hook.
func TestProgressReportsFullScan(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	space := hw.PointList(hw.PaperSpace().Points())
	cons := DefaultConstraints()
	base, err := ExploreSpaceCtx(context.Background(), models, space, cons, eval.New(eval.Options{Workers: 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var max atomic.Int64
	got, err := ExploreSpaceCtx(context.Background(), models, space, cons, eval.New(eval.Options{Workers: 2}),
		&ExploreOptions{ChunkSize: 7, Progress: func(done, total int) {
			if total != space.Len() {
				t.Errorf("Progress total = %d, want %d", total, space.Len())
			}
			for {
				cur := max.Load()
				if int64(done) <= cur || max.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if max.Load() != int64(space.Len()) {
		t.Errorf("Progress peak = %d, want %d", max.Load(), space.Len())
	}
	if canonResult(got) != canonResult(base) {
		t.Errorf("Progress hook changed the result:\n--- base ---\n%s--- hooked ---\n%s",
			canonResult(base), canonResult(got))
	}
}
