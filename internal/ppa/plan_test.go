package ppa

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

func allNetworks() []*workload.Model {
	return append(workload.TrainingSet(), workload.TestSet()...)
}

// mixOf returns a mix point with the given per-type chiplet counts.
func mixOf(nact, npool int, counts ...uint16) hw.Point {
	var m hw.Mix
	copy(m.Counts[:], counts)
	return hw.Point{NAct: nact, NPool: npool, Mix: m}
}

// twinCatalogue returns the built-in catalogue plus a fourth chiplet type,
// a copy of the first at twice its energy per MAC: every compute layer takes
// as long on one as on the other, so on a mix of both the tie rule alone
// picks the energy.
func twinCatalogue(t *testing.T) *hw.Catalogue {
	t.Helper()
	var buf bytes.Buffer
	if err := hw.Default().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cat, err := hw.ParseCatalogue(&buf)
	if err != nil {
		t.Fatal(err)
	}
	twin := cat.Chiplets[0]
	twin.Name += "-twin"
	twin.EnergyPerMACPJ *= 2
	cat.Name += "-twin"
	cat.Chiplets = append(cat.Chiplets, twin)
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestPlanMatchesDirectEvaluationBitExact pins the plan against the
// reference: ModelPlan.EvaluateBatch (reflect.DeepEqual) and ModelPlan.Summary
// (every bit of the four totals) equal the direct ppa.EvaluateBatch for every
// network, at batch 1 and 4, under the built-in and the mobile-7nm catalogue
// at Int8 and Int16, on homogeneous space corners and on mixes with one, two
// and three active chiplet types. Both sides dispatch each compute layer of
// a mix to its fastest type on their own, so the mixes pin that dispatch,
// and a mix of two types that tie on every layer pins its tie rule.
func TestPlanMatchesDirectEvaluationBitExact(t *testing.T) {
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	homogeneous := []hw.Point{
		{SASize: 16, NSA: 16, NAct: 16, NPool: 16},
		{SASize: 32, NSA: 32, NAct: 16, NPool: 16},
		{SASize: 64, NSA: 64, NAct: 64, NPool: 64},
	}
	cats := []struct {
		cat   *hw.Catalogue
		mixes []hw.Point
	}{
		// The built-in catalogue's types are 16x16, 32x32 and 64x64 arrays.
		{nil, []hw.Point{mixOf(16, 16, 0, 8), mixOf(16, 32, 16, 0, 2), mixOf(64, 16, 24, 4, 1)}},
		// mobile-7nm's are 32x32, 64x64, 128x128 and a low-power 16x16.
		{mobile, []hw.Point{mixOf(16, 16, 0, 0, 0, 12), mixOf(32, 16, 0, 2, 0, 24), mixOf(16, 64, 8, 0, 1, 16)}},
		{twinCatalogue(t), []hw.Point{mixOf(16, 16, 8, 0, 0, 8)}},
	}
	compared := 0
	for _, ct := range cats {
		for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
			for _, m := range allNetworks() {
				plan := NewModelPlan(m)
				for _, p := range append(homogeneous, ct.mixes...) {
					c := hw.NewConfig(p, []*workload.Model{m})
					c.Cat, c.Precision = ct.cat, prec
					for _, batch := range []int{1, 4} {
						direct, err := EvaluateBatch(m, c, batch)
						if err != nil {
							t.Fatalf("%s %v: %v", m.Name, p, err)
						}
						full, err := plan.EvaluateBatch(c, batch)
						if err != nil {
							t.Fatalf("%s %v: plan: %v", m.Name, p, err)
						}
						if !reflect.DeepEqual(direct, full) {
							t.Fatalf("%s %v %v batch %d under %s: plan evaluation diverges from direct path",
								m.Name, p, prec, batch, c.Catalogue().Name)
						}
						sum, err := plan.Summary(c, batch)
						if err != nil {
							t.Fatalf("%s %v: summary: %v", m.Name, p, err)
						}
						if !sameSummary(sum, direct.Summary) {
							t.Fatalf("%s %v %v batch %d under %s: summary %+v != direct totals %+v",
								m.Name, p, prec, batch, c.Catalogue().Name, sum, direct.Summary)
						}
						compared++
					}
				}
			}
		}
	}
	t.Logf("%d evaluations bit-identical", compared)
}

// TestTrafficMatchesEvaluateBatch pins ModelPlan.Traffic, the input stage 1
// reads instead of a full evaluation: for every network, at both precisions
// and two batch sizes, it equals the (Unit, OutBytes) columns of
// EvaluateBatch's per-layer breakdown, including on a heterogeneous mix.
func TestTrafficMatchesEvaluateBatch(t *testing.T) {
	points := []hw.Point{
		{SASize: 16, NSA: 16, NAct: 16, NPool: 16},
		{SASize: 64, NSA: 32, NAct: 64, NPool: 32},
		{NAct: 16, NPool: 16, Mix: hw.Mix{Counts: [hw.MaxMixTypes]uint16{8, 8}}},
	}
	for _, m := range allNetworks() {
		plan := NewModelPlan(m)
		for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
			for _, batch := range []int{1, 4} {
				tr := plan.Traffic(prec, batch)
				for _, p := range points {
					c := hw.NewConfig(p, []*workload.Model{m})
					c.Precision = prec
					e, err := plan.EvaluateBatch(c, batch)
					if err != nil {
						t.Fatalf("%s %v: %v", m.Name, p, err)
					}
					if len(tr) != len(e.Layers) {
						t.Fatalf("%s: %d traffic rows for %d layers", m.Name, len(tr), len(e.Layers))
					}
					for i, le := range e.Layers {
						if want := (LayerTraffic{Unit: le.Unit, OutBytes: le.OutBytes}); tr[i] != want {
							t.Fatalf("%s %v %v batch %d layer %d: traffic %+v, evaluation %+v",
								m.Name, p, prec, batch, i, tr[i], want)
						}
					}
				}
			}
		}
	}
}

// TestSummaryDerivedQuantities checks the derived accessors, which Eval
// promotes from its Summary, against their definitions.
func TestSummaryDerivedQuantities(t *testing.T) {
	m := workload.NewResNet18()
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	e, err := Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Summary
	energyJ := (s.DynamicPJ + s.LeakagePJ) * 1e-12
	if s.EnergyPJ() != s.DynamicPJ+s.LeakagePJ || s.EnergyJ() != energyJ ||
		s.PowerW() != energyJ/s.LatencyS || s.PowerDensity() != energyJ/s.LatencyS/s.AreaMM2 {
		t.Errorf("derived quantities diverge from their definitions: %+v", s)
	}
	if e.PowerDensity() != s.PowerDensity() {
		t.Error("Eval must report its Summary's power density")
	}
	if (Summary{}).PowerW() != 0 || (Summary{}).PowerDensity() != 0 {
		t.Error("zero summary must report zero power")
	}
}

// TestSummaryErrorsMirrorEvaluate checks the summary path reproduces the
// evaluation error contract.
func TestSummaryErrorsMirrorEvaluate(t *testing.T) {
	plan := NewModelPlan(workload.NewBERTBase())
	c := hw.NewConfig(centralPoint(), []*workload.Model{workload.NewAlexNet()})
	if _, err := plan.Summary(c, 1); err == nil {
		t.Error("summary accepted a model with <100% coverage")
	}
	own := hw.NewConfig(centralPoint(), []*workload.Model{workload.NewBERTBase()})
	if _, err := plan.Summary(own, 0); err == nil {
		t.Error("summary accepted batch 0")
	}
	if _, err := plan.EvaluateBatch(c, 1); err == nil {
		t.Error("plan evaluation accepted a model with <100% coverage")
	}
}

// TestPlanConcurrentUse hammers one plan from many goroutines across array
// sizes; run under -race this guards the fold-cache locking.
func TestPlanConcurrentUse(t *testing.T) {
	m := workload.NewResNet18()
	plan := NewModelPlan(m)
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	want, err := plan.Summary(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for _, size := range []int{16, 32, 64, 16, 32, 64} {
				cc := c
				cc.SASize = size
				if _, err := plan.Summary(cc, 1); err != nil {
					done <- err
					return
				}
			}
			s, err := plan.Summary(c, 1)
			if err == nil && s != want {
				err = errMismatch
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent summary diverged")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestElementwiseTinyThroughputNoPanic is the regression test for the latent
// divide-by-zero in the element-wise kernel: a bank whose throughput product
// truncates below one op per cycle (e.g. zero provisioned instances) used to
// panic in ceilDiv; it must now clamp to the slowest physical rate.
func TestElementwiseTinyThroughputNoPanic(t *testing.T) {
	l := workload.Layer{Kind: workload.ReLU, OFMX: 8, OFMY: 8, NOFM: 16}
	c := hw.Config{
		Point: hw.Point{SASize: 32, NSA: 32, NAct: 0, NPool: 0},
		Units: hw.SetOf(hw.SystolicArray, hw.ActReLU),
	}
	out := elementKernelVals(hw.ActReLU, l.ElementOps(), l.OutputElems(), c.BankCount(hw.ActReLU), c.Catalogue(), 1, 1)
	if out.latencyS <= 0 {
		t.Fatalf("degenerate bank must still take time, got %v", out.latencyS)
	}
	// The zero-instance bank clamps to one instance (4 SIMD lanes).
	ops := l.ElementOps()
	wantLat := float64((ops+3)/4) / (hw.ClockGHz * 1e9)
	if out.latencyS != wantLat {
		t.Errorf("clamped latency = %v, want %v", out.latencyS, wantLat)
	}
	if out.executions != ops {
		t.Errorf("clamped executions = %d, want %d", out.executions, ops)
	}
}

// TestComputeFoldsZeroRows is the table-driven regression test for grouped
// convolutions whose per-group tile degenerates to zero rows (NIFM < Groups)
// or zero columns (NOFM < Groups): every group must still contribute folds.
func TestComputeFoldsZeroRows(t *testing.T) {
	cases := []struct {
		name      string
		layer     workload.Layer
		size      int
		wantFolds int64
	}{
		{
			name: "conv2d zero rows",
			layer: workload.Layer{Kind: workload.Conv2d, NIFM: 2, NOFM: 64,
				KX: 1, KY: 1, Groups: 4, OFMX: 7, OFMY: 7},
			size:      32,
			wantFolds: 4, // 4 groups x ceil(1/32) x ceil(16/32)
		},
		{
			name: "conv2d zero rows and cols",
			layer: workload.Layer{Kind: workload.Conv2d, NIFM: 2, NOFM: 2,
				KX: 1, KY: 1, Groups: 4, OFMX: 7, OFMY: 7},
			size:      32,
			wantFolds: 4,
		},
		{
			name: "conv1d zero rows",
			layer: workload.Layer{Kind: workload.Conv1d, NIFM: 3, NOFM: 64,
				KX: 1, Groups: 8, OFMX: 16},
			size:      16,
			wantFolds: 8,
		},
		{
			name: "conv2d healthy grouped",
			layer: workload.Layer{Kind: workload.Conv2d, NIFM: 96, NOFM: 96,
				KX: 3, KY: 3, Groups: 96, OFMX: 28, OFMY: 28},
			size:      32,
			wantFolds: 96,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			folds, _ := Folds(tc.layer, tc.size)
			if folds != tc.wantFolds {
				t.Errorf("folds = %d, want %d", folds, tc.wantFolds)
			}
		})
	}
}

// TestBatchedEvaluationInvariants pins the batched-evaluation contract for
// every network of the paper: total latency is monotone in the batch size,
// per-inference latency is non-increasing (weight-load and drain overhead
// amortize), and batch=1 is exactly Evaluate.
func TestBatchedEvaluationInvariants(t *testing.T) {
	for _, m := range allNetworks() {
		c := hw.NewConfig(centralPoint(), []*workload.Model{m})
		e1, err := Evaluate(m, c)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		b1, err := EvaluateBatch(m, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !reflect.DeepEqual(e1, b1) {
			t.Errorf("%s: EvaluateBatch(1) != Evaluate", m.Name)
		}
		prevLat := 0.0
		prevPerInf := math.Inf(1)
		for _, batch := range []int{1, 2, 4, 8, 16} {
			e, err := EvaluateBatch(m, c, batch)
			if err != nil {
				t.Fatalf("%s batch %d: %v", m.Name, batch, err)
			}
			if e.LatencyS <= prevLat {
				t.Errorf("%s: total latency not monotone at batch %d (%v <= %v)",
					m.Name, batch, e.LatencyS, prevLat)
			}
			perInf := e.LatencyS / float64(batch)
			if perInf > prevPerInf*(1+1e-12) {
				t.Errorf("%s: per-inference latency grew at batch %d (%v > %v)",
					m.Name, batch, perInf, prevPerInf)
			}
			prevLat, prevPerInf = e.LatencyS, perInf
		}
	}
}

// TestColdPlanBuildAllocs pins the cold-path allocation contract: building a
// ModelPlan plus the fold tables for three distinct array dimensions costs a
// fixed, layer-count-independent number of allocations (the SoA columns and
// fold-table columns each share one backing array). Currently 12; the bound
// leaves slack for runtime-version noise only.
func TestColdPlanBuildAllocs(t *testing.T) {
	for _, m := range allNetworks() {
		m := m
		avg := testing.AllocsPerRun(20, func() {
			p := NewModelPlan(m)
			for _, s := range []int{8, 16, 32} {
				p.foldsFor(s)
			}
		})
		if avg > 16 {
			t.Errorf("%s (%d layers): cold plan build allocates %.1f objects, want <= 16",
				m.Name, len(m.Layers), avg)
		}
	}
}
