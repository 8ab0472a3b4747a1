package eval

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

func testConfig(m *workload.Model) hw.Config {
	return hw.NewConfig(hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16},
		[]*workload.Model{m})
}

func TestEvaluateMemoizes(t *testing.T) {
	ev := New(Options{Workers: 1})
	m := workload.NewAlexNet()
	c := testConfig(m)
	e1, err := ev.Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ev.Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("second Evaluate did not return the cached evaluation")
	}
	s := ev.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestDistinctKeysDoNotCollide(t *testing.T) {
	ev := New(Options{Workers: 1})
	a, b := workload.NewAlexNet(), workload.NewResNet18()
	ca, cb := testConfig(a), testConfig(b)
	if _, err := ev.Evaluate(a, ca); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(b, cb); err != nil {
		t.Fatal(err)
	}
	// Same model, different point: a third entry.
	c2 := hw.NewConfig(hw.Point{SASize: 16, NSA: 16, NAct: 16, NPool: 16},
		[]*workload.Model{a})
	if _, err := ev.Evaluate(a, c2); err != nil {
		t.Fatal(err)
	}
	// Same model and config, different batch: a fourth entry.
	if _, err := ev.EvaluateBatch(a, ca, 8); err != nil {
		t.Fatal(err)
	}
	if s := ev.Stats(); s.Entries != 4 || s.Misses != 4 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 4 distinct entries and no hits", s)
	}
}

func TestEvaluateErrorMemoized(t *testing.T) {
	ev := New(Options{})
	cnn := workload.NewAlexNet()
	bert := workload.NewBERTBase() // needs GELU, absent from a CNN-only config
	c := testConfig(cnn)
	if _, err := ev.Evaluate(bert, c); err == nil {
		t.Fatal("uncovered model should fail")
	}
	if _, err := ev.Evaluate(bert, c); err == nil {
		t.Fatal("cached evaluation should repeat the error")
	}
	if s := ev.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the error computed once and replayed once", s)
	}
}

// TestConcurrentEvaluateComputesOnce hammers one key from many goroutines:
// the engine must coalesce them onto a single computation and hand every
// caller the same evaluation (run under -race in CI).
func TestConcurrentEvaluateComputesOnce(t *testing.T) {
	ev := New(Options{})
	m := workload.NewAlexNet()
	c := testConfig(m)
	const n = 32
	evals := make([]interface{}, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			e, err := ev.Evaluate(m, c)
			if err != nil {
				t.Error(err)
				return
			}
			evals[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if evals[i] != evals[0] {
			t.Fatal("concurrent callers received different evaluations")
		}
	}
	if s := ev.Stats(); s.Misses != 1 {
		t.Errorf("misses = %d, want exactly one computation", s.Misses)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 17} {
		for _, n := range []int{0, 1, 5, 100} {
			ev := New(Options{Workers: workers})
			var mu sync.Mutex
			seen := make(map[int]int)
			ev.ForEach(n, func(i int) {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("workers=%d n=%d: covered %d indices", workers, n, len(seen))
			}
			for i, count := range seen {
				if count != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, count)
				}
			}
		}
	}
}

func TestWorkerDefaults(t *testing.T) {
	if got := New(Options{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := New(Options{Workers: -3}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative workers = %d, want GOMAXPROCS", got)
	}
	if got := New(Options{Workers: 7}).Workers(); got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := workload.NewAlexNet()
	fp := Fingerprint(base)
	if fp != Fingerprint(workload.NewAlexNet()) {
		t.Error("identical models must share a fingerprint")
	}
	mutations := []func(m *workload.Model){
		func(m *workload.Model) { m.Name = "Alexnet2" },
		func(m *workload.Model) { m.SeqLen = 99 },
		func(m *workload.Model) { m.ExtraParams++ },
		func(m *workload.Model) { m.Layers[0].NOFM++ },
		func(m *workload.Model) { m.Layers[len(m.Layers)-1].Kind = workload.Tanh },
		func(m *workload.Model) { m.Layers = m.Layers[:len(m.Layers)-1] },
	}
	for i, mutate := range mutations {
		m := workload.NewAlexNet()
		mutate(m)
		if Fingerprint(m) == fp {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

// TestFingerprintCoversAllLayerFields pins the workload.Layer field count:
// Fingerprint hashes an explicit field list, so a new Layer field must be
// added there (and this pin bumped) or structurally different models could
// share a fingerprint and alias cache entries.
func TestFingerprintCoversAllLayerFields(t *testing.T) {
	const pinned = 15
	if n := reflect.TypeOf(workload.Layer{}).NumField(); n != pinned {
		t.Fatalf("workload.Layer has %d fields, fingerprint covers %d: add the new fields to Fingerprint and bump this pin", n, pinned)
	}
}

func TestConfigKeySensitivity(t *testing.T) {
	ev := New(Options{Workers: 1})
	m := workload.NewAlexNet()
	c := testConfig(m)
	key := ev.keyFor(m, c, 1)
	if key != ev.keyFor(m, testConfig(workload.NewAlexNet()), 1) {
		t.Error("identical configs must share a key")
	}
	variants := []hw.Config{}
	v := c
	v.SASize = 64
	variants = append(variants, v)
	v = c
	v.Precision = hw.Int16
	variants = append(variants, v)
	v = c
	v.Units ^= hw.SetOf(hw.EngFlatten)
	variants = append(variants, v)
	v = c
	v.Units ^= hw.SetOf(hw.ActReLU)
	variants = append(variants, v)
	for i, vc := range variants {
		if ev.keyFor(m, vc, 1) == key {
			t.Errorf("variant %d did not change the key", i)
		}
	}
	if ev.keyFor(m, c, 2) == key {
		t.Error("batch size must be part of the key")
	}
}
