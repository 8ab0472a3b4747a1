package core

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestSweepTauZeroMissesAfterWarm pins the sweep-cache contract: once one
// retraining has populated the engine, further taus on the same subset
// plateau (0.42-0.52 form identical partitions) must be served entirely from
// cache — zero new evaluator misses.
func TestSweepTauZeroMissesAfterWarm(t *testing.T) {
	models := workload.TrainingSet()
	o := DefaultOptions()
	o.Evaluator = o.Engine()

	if _, err := SweepTau(models, o, []float64{0.42}); err != nil {
		t.Fatal(err)
	}
	warm := o.Evaluator.Stats()
	if warm.Misses == 0 {
		t.Fatal("warm run issued no evaluations")
	}

	pts, err := SweepTau(models, o, []float64{0.42, 0.46, 0.52})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	after := o.Evaluator.Stats()
	if after.Misses != warm.Misses {
		t.Errorf("tau sweep issued %d new evaluations after warm-up, want 0",
			after.Misses-warm.Misses)
	}
	if after.Hits <= warm.Hits {
		t.Errorf("tau sweep should have hit the cache (hits %d -> %d)", warm.Hits, after.Hits)
	}
}

// TestSweepSlackZeroMissesAfterWarm does the same for the slack sweep: the
// slack constraint is applied after scoring, and a sweep's only engine
// entries are its winner's, so re-running slacks already swept finds every
// winner materialized and issues no new evaluation.
func TestSweepSlackZeroMissesAfterWarm(t *testing.T) {
	m := workload.NewResNet50()
	o := DefaultOptions()
	o.Evaluator = o.Engine()
	slacks := []float64{2.0, 1.0, 0.5, 0.25}

	first, err := SweepSlack(m, o, slacks)
	if err != nil {
		t.Fatal(err)
	}
	warm := o.Evaluator.Stats()
	if warm.Misses == 0 {
		t.Fatal("warm run issued no evaluations")
	}

	pts, err := SweepSlack(m, o, slacks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, first) {
		t.Errorf("re-run slack sweep differs:\n%+v\n%+v", pts, first)
	}
	after := o.Evaluator.Stats()
	if after.Misses != warm.Misses {
		t.Errorf("slack sweep issued %d new evaluations after warm-up, want 0",
			after.Misses-warm.Misses)
	}
	if after.Entries != warm.Entries {
		t.Errorf("slack sweep grew the cache %d -> %d entries, want unchanged",
			warm.Entries, after.Entries)
	}
	if after.Hits < warm.Hits+uint64(len(slacks)) {
		t.Errorf("re-run slack sweep hit the cache %d times, want >= %d (one winner per slack)",
			after.Hits-warm.Hits, len(slacks))
	}
}
