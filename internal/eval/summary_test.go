package eval

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestSummaryLeavesCacheAlone pins the summary contract: EvaluateSummary (and
// its EvaluateSummaryUncached alias) returns the full evaluation's totals bit
// for bit and its errors, and creates no cache entry and counts no lookup.
func TestSummaryLeavesCacheAlone(t *testing.T) {
	ev := New(Options{Workers: 1})
	m := workload.NewAlexNet()
	c := testConfig(m)
	s, err := ev.EvaluateSummary(m, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ev.EvaluateSummaryUncached(m, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	bert := workload.NewBERTBase() // c lacks GELU
	if _, err := ev.EvaluateSummary(bert, c, 1); err == nil {
		t.Error("uncovered model should fail")
	}
	if st := ev.Stats(); st != (Stats{}) {
		t.Fatalf("stats after summaries = %+v, want none", st)
	}
	e, err := ev.Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	if e.Summary() != s || u != s {
		t.Errorf("summary %+v / uncached %+v diverge from full evaluation totals %+v", s, u, e.Summary())
	}
	if st := ev.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats after one full evaluation = %+v, want 1 entry / 1 miss", st)
	}
}

// TestPlanCachedPerModel checks the lower cache level: one plan per model
// pointer, shared across configurations and concurrent callers.
func TestPlanCachedPerModel(t *testing.T) {
	ev := New(Options{})
	m := workload.NewResNet18()
	const n = 16
	plans := make([]interface{}, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			plans[i] = ev.Plan(m)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent Plan calls returned different plans")
		}
	}
	if ev.Plan(workload.NewResNet18()) == plans[0] {
		t.Error("distinct model pointers must get distinct plans")
	}
}

// TestSummaryDeterministicAcrossWorkers: summaries, like full evaluations,
// are bit-identical at any worker count.
func TestSummaryDeterministicAcrossWorkers(t *testing.T) {
	m := workload.NewViTBase()
	c := testConfig(m)
	s1, err := New(Options{Workers: 1}).EvaluateSummary(m, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := New(Options{Workers: 8}).EvaluateSummary(m, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s8 {
		t.Errorf("summary differs across worker counts: %+v vs %+v", s1, s8)
	}
}
