package serve

// Admission-time resolution: names intern to one model per process, the
// coalescing key is derived from the resolved options (equivalent spellings
// coalesce, different computations never do), and strict decode -> resolve ->
// key is fuzzed without executing anything.

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dse"
	"repro/internal/workload"
)

// exploreKeyOf resolves a request the way SubmitExplore does and returns its
// coalescing key.
func exploreKeyOf(m *Manager, req *ExploreRequest) (string, error) {
	models, o, err := m.resolveExplore(req)
	if err != nil {
		return "", err
	}
	return m.key(KindExplore, models, o), nil
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestInternedModelsKeepHeapBounded pins model interning: a name resolves to
// the same model across requests, so warm requests pin nothing new in the
// process-lifetime evaluator (which memoizes fingerprints and plans by model
// pointer). Without interning every request would build fresh models and
// grow the live heap by tens of KiB, without bound.
func TestInternedModelsKeepHeapBounded(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, MaxQueue: 4, History: 4})
	defer m.Close()
	names := workload.Names()

	a, _, err := m.resolveExplore(&ExploreRequest{Models: names[:1]})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.resolveExplore(&ExploreRequest{Models: []string{names[1], names[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[1] {
		t.Fatalf("%s resolved to two different models across requests", names[0])
	}

	// The three shapes the leak was measured on: paper, mix and staged.
	reqs := []ExploreRequest{
		{Models: names[:1]},
		{Models: names[1:3], Space: "mix"},
		{Models: names[:1], Fidelity: "staged"},
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			req := reqs[i%len(reqs)]
			j, _, err := m.SubmitExplore(&req, true)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if st := j.Snapshot(false); st.State != StateDone {
				t.Fatalf("request %+v settled %v: %s", req, st.State, st.Error)
			}
		}
	}
	serve(30) // warm the cache, the intern table and the job history
	before := liveHeap()
	accepted := m.Metrics().Accepted.Load()
	const warm = 300
	serve(warm)
	if after := liveHeap(); after > before+1<<20 {
		t.Errorf("live heap grew %d KiB over %d warm requests (%d B per request), want bounded",
			(after-before)>>10, warm, (after-before)/warm)
	}
	// Each request was awaited before the next, so each ran as its own job
	// and the bound above is per execution.
	if ran := m.Metrics().Accepted.Load() - accepted; ran != warm {
		t.Errorf("%d warm requests ran as %d jobs, want %d", warm, ran, warm)
	}
}

// TestFinishedJobsReleaseTheirWork pins what a finished job keeps while it
// sits in the history: its status and result, not the work closure, which
// holds the resolved request — for a mix request a freshly built
// hw.MixSpace of about 10 KiB. With every job kept in history, each finished
// mix request may grow the live heap by at most 4 KiB.
func TestFinishedJobsReleaseTheirWork(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, MaxQueue: 4, History: 4096})
	defer m.Close()
	req := ExploreRequest{Models: workload.Names()[1:3], Space: "mix"}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			r := req
			j, coalesced, err := m.SubmitExplore(&r, true)
			if err != nil {
				t.Fatal(err)
			}
			if coalesced {
				t.Fatal("request coalesced onto a finished job")
			}
			<-j.Done()
			if st := j.Snapshot(false); st.State != StateDone {
				t.Fatalf("request %+v settled %v: %s", req, st.State, st.Error)
			}
		}
	}
	serve(20) // warm the engine's plans and winner, and the intern table
	before := liveHeap()
	const jobs = 400
	serve(jobs)
	after := liveHeap()
	m.mu.Lock()
	kept := len(m.history)
	m.mu.Unlock()
	if kept != 20+jobs {
		t.Fatalf("history holds %d jobs, want %d", kept, 20+jobs)
	}
	if after > before && (after-before)/jobs > 4<<10 {
		t.Errorf("live heap grew %d B per finished mix job over %d jobs, want <= 4096",
			(after-before)/jobs, jobs)
	}
}

// TestCoalesceKeyFromResolvedOptions pins the coalescing key to the resolved
// computation: spellings that resolve alike share a key, and requests that
// compute different results never do.
func TestCoalesceKeyFromResolvedOptions(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	n := workload.Names()
	slack := func(v float64) *ConstraintsSpec { return &ConstraintsSpec{LatencySlack: &v} }
	anneal := "anneal:restarts=8,batch=8,t0=0.05,t1=0.001" // search.DefaultAnnealParams, canonical

	for _, tc := range []struct {
		name     string
		a, b     ExploreRequest
		coalesce bool
	}{
		{"empty vs analytical fidelity", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Fidelity: "analytical"}, true},
		{"space case", ExploreRequest{Models: n[:1], Space: "Paper"},
			ExploreRequest{Models: n[:1], Space: "paper"}, true},
		{"empty vs paper space", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Space: "paper"}, true},
		{"seed and budget without search", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Budget: 64, Seed: 7}, true},
		{"anneal vs canonical spec", ExploreRequest{Models: n[:1], Search: "anneal", Seed: 3},
			ExploreRequest{Models: n[:1], Search: anneal, Seed: 3}, true},
		{"default slack spelled out", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Constraints: slack(dse.DefaultLatencySlack)}, true},
		{"sync", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Sync: true}, true},

		{"paper vs 3x3x3x3", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Space: "3x3x3x3"}, false},
		{"model order", ExploreRequest{Models: []string{n[0], n[1]}},
			ExploreRequest{Models: []string{n[1], n[0]}}, false},
		{"seed under search", ExploreRequest{Models: n[:1], Search: "anneal", Seed: 1},
			ExploreRequest{Models: n[:1], Search: "anneal", Seed: 2}, false},
		{"budget under search", ExploreRequest{Models: n[:1], Search: "anneal", Budget: 64},
			ExploreRequest{Models: n[:1], Search: "anneal", Budget: 128}, false},
		{"search vs exhaustive", ExploreRequest{Models: n[:1], Search: "anneal"},
			ExploreRequest{Models: n[:1]}, false},
		{"slack", ExploreRequest{Models: n[:1]},
			ExploreRequest{Models: n[:1], Constraints: slack(0.3)}, false},
		{"mix vs paper", ExploreRequest{Models: n[:1], Space: "mix"},
			ExploreRequest{Models: n[:1]}, false},
		{"staged vs analytical", ExploreRequest{Models: n[:1], Fidelity: "staged"},
			ExploreRequest{Models: n[:1]}, false},
		{"slack past the ninth digit", ExploreRequest{Models: n[:1], Constraints: slack(1)},
			ExploreRequest{Models: n[:1], Constraints: slack(1.0000000001)}, false},
	} {
		ka, err := exploreKeyOf(m, &tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		kb, err := exploreKeyOf(m, &tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (ka == kb) != tc.coalesce {
			t.Errorf("%s: coalesce = %v, want %v\nkey a: %s\nkey b: %s", tc.name, ka == kb, tc.coalesce, ka, kb)
		}
	}
}

// TestSweepKeyRendersValuesExactly pins the sweep key to its exact values:
// two sweeps whose values differ only past the ninth significant digit are
// different requests, so they must not share a key.
func TestSweepKeyRendersValuesExactly(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	keyOf := func(req *SweepRequest) string {
		models, o, err := m.resolveSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		return m.sweepKey(req, models, o)
	}
	a := keyOf(&SweepRequest{Kind: "slack", Model: workload.Names()[0], Values: []float64{0.5, 1}})
	b := keyOf(&SweepRequest{Kind: "slack", Model: workload.Names()[0], Values: []float64{0.5, 1.0000000001}})
	if a == b {
		t.Errorf("distinct sweep values share the key %s", a)
	}
}

// FuzzExploreRequest drives untrusted bodies through the admission path —
// strict decode, resolve, key — without executing them. Nothing may panic,
// resolution must be deterministic (resolving the same request twice gives
// the same key or the same error), and sync must never change the key.
func FuzzExploreRequest(f *testing.F) {
	for _, body := range []string{
		// The request shapes of the benchmark's serve workload.
		`{"models":["Resnet50"],"space":"mix"}`,
		`{"models":["Resnet50"]}`,
		`{"models":["Resnet50","BERT-base"]}`,
		`{"models":["Resnet50"],"fidelity":"staged"}`,
		`{"models":["Resnet50"],"search":"anneal","budget":32,"seed":7}`,
		`{"models":["Resnet50"],"constraints":{"latency_slack":0.2}}`,
		`{"models":["Resnet50","BERT-base"],"constraints":{"latency_slack":0.3}}`,
		// README bodies.
		`{"models":["Resnet50","BERT-base"],"space":"paper","fidelity":"staged","sync":true}`,
		`{"models":["Resnet50"],"space":"fine"}`,
		`{"models":["Resnet50"],"search":"anneal","budget":500,"seed":7,"sync":true}`,
		// TestValidationErrors bodies.
		`{"models":["NoSuchNet"],"sync":true}`,
		`{"models":["Resnet18"],"space":"bogus","sync":true}`,
		`{"models":["Resnet18"],"search":"bogus","sync":true}`,
		`{"models":["Resnet50"],"unknown_field":1}`,
	} {
		f.Add([]byte(body))
	}
	m := NewManager(ManagerConfig{Workers: 1})
	f.Cleanup(m.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExploreRequest
		if err := decode(bytes.NewReader(body), &req); err != nil {
			return
		}
		resolve := func() string {
			k, err := exploreKeyOf(m, &req)
			if err != nil {
				return "error: " + err.Error()
			}
			return k
		}
		first := resolve()
		if again := resolve(); again != first {
			t.Fatalf("resolving %s twice differs:\n%s\n%s", body, first, again)
		}
		req.Sync = !req.Sync
		if synced := resolve(); synced != first {
			t.Fatalf("sync changed the key of %s:\n%s\n%s", body, first, synced)
		}
	})
}
