package ppa

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/workload"
)

func centralPoint() hw.Point {
	return hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
}

func TestEvaluateRejectsUncoveredModel(t *testing.T) {
	c := hw.NewConfig(centralPoint(), []*workload.Model{workload.NewAlexNet()})
	if _, err := Evaluate(workload.NewBERTBase(), c); err == nil {
		t.Fatal("Evaluate accepted a model with <100% coverage")
	}
}

func TestEvaluateBasicInvariants(t *testing.T) {
	for _, m := range append(workload.TrainingSet(), workload.TestSet()...) {
		c := hw.NewConfig(centralPoint(), []*workload.Model{m})
		e, err := Evaluate(m, c)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if e.LatencyS <= 0 || e.DynamicPJ <= 0 || e.AreaMM2 <= 0 {
			t.Errorf("%s: non-positive totals %+v", m.Name, e)
		}
		if len(e.Layers) != m.LayerCount() {
			t.Errorf("%s: %d layer evals, want %d", m.Name, len(e.Layers), m.LayerCount())
		}
		var lat, dyn float64
		for _, le := range e.Layers {
			if le.Executions <= 0 {
				t.Errorf("%s layer %d: zero executions", m.Name, le.Index)
			}
			if le.LatencyS < 0 || le.EnergyPJ < 0 {
				t.Errorf("%s layer %d: negative cost", m.Name, le.Index)
			}
			lat += le.LatencyS
			dyn += le.EnergyPJ
		}
		if math.Abs(lat-e.LatencyS) > 1e-12 || math.Abs(dyn-e.DynamicPJ) > 1e-3 {
			t.Errorf("%s: totals do not match layer sums", m.Name)
		}
		if e.PowerW() <= 0 || e.PowerDensity() <= 0 {
			t.Errorf("%s: non-positive power", m.Name)
		}
	}
}

// TestLatencyLowerBound checks the model never reports a latency below the
// roofline bound MACs / peak-MAC-rate.
func TestLatencyLowerBound(t *testing.T) {
	p := centralPoint()
	for _, m := range workload.TrainingSet() {
		c := hw.NewConfig(p, []*workload.Model{m})
		e, err := Evaluate(m, c)
		if err != nil {
			t.Fatal(err)
		}
		peak := float64(p.NSA) * float64(p.SASize*p.SASize) * hw.ClockGHz * 1e9
		bound := float64(m.MACs()) / peak
		if e.LatencyS < bound*0.999 {
			t.Errorf("%s: latency %.3e below roofline %.3e", m.Name, e.LatencyS, bound)
		}
	}
}

// TestMoreArraysNeverSlower checks monotonicity in the array count.
func TestMoreArraysNeverSlower(t *testing.T) {
	m := workload.NewResNet50()
	for _, size := range []int{16, 32, 64} {
		var prev float64 = math.Inf(1)
		for _, n := range []int{16, 32, 64} {
			c := hw.NewConfig(hw.Point{SASize: size, NSA: n, NAct: 16, NPool: 16},
				[]*workload.Model{m})
			e, err := Evaluate(m, c)
			if err != nil {
				t.Fatal(err)
			}
			if e.LatencyS > prev*1.0001 {
				t.Errorf("size %d: latency grew from %.3e to %.3e with more arrays",
					size, prev, e.LatencyS)
			}
			prev = e.LatencyS
		}
	}
}

func TestComputeFoldsExamples(t *testing.T) {
	// 3x3x64 -> 128 conv on 32x32 arrays: rows=576, cols=128 -> 18*4 folds.
	conv := workload.Layer{
		Kind: workload.Conv2d, NIFM: 64, NOFM: 128, KX: 3, KY: 3,
		OFMX: 56, OFMY: 56,
	}
	folds, streams := computeFolds(conv, 32)
	if folds != 18*4 {
		t.Errorf("conv folds = %d, want 72", folds)
	}
	if streams != 56*56 {
		t.Errorf("conv streams = %d, want %d", streams, 56*56)
	}
	// Depthwise 3x3 over 96 channels: one fold per group.
	dw := workload.Layer{
		Kind: workload.Conv2d, NIFM: 96, NOFM: 96, KX: 3, KY: 3, Groups: 96,
		OFMX: 28, OFMY: 28,
	}
	folds, _ = computeFolds(dw, 32)
	if folds != 96 {
		t.Errorf("depthwise folds = %d, want 96", folds)
	}
	// 768->3072 linear over 128 tokens on 32x32: 24*96 folds, 128 streams.
	lin := workload.Layer{Kind: workload.Linear, NIFM: 768, NOFM: 3072, IFMX: 128}
	folds, streams = computeFolds(lin, 32)
	if folds != 24*96 {
		t.Errorf("linear folds = %d, want %d", folds, 24*96)
	}
	if streams != 128 {
		t.Errorf("linear streams = %d, want 128", streams)
	}
	// MoE expert with 2 active copies doubles folds.
	moe := lin
	moe.Copies, moe.ActiveCopies = 8, 2
	folds2, _ := computeFolds(moe, 32)
	if folds2 != 2*folds {
		t.Errorf("moe folds = %d, want %d", folds2, 2*folds)
	}
}

// TestEnergyDominatedByMACs sanity-checks the energy split for a MAC-heavy
// model: MAC energy should be the largest single component.
func TestEnergyDominatedByMACs(t *testing.T) {
	m := workload.NewVGG16()
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	e, err := Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	macPJ := float64(m.MACs()) * hw.PEMacPJ
	if macPJ > e.DynamicPJ {
		t.Errorf("MAC energy %.3e exceeds total dynamic %.3e", macPJ, e.DynamicPJ)
	}
	if macPJ < 0.3*e.DynamicPJ {
		t.Errorf("MAC energy %.3e is under 30%% of dynamic %.3e; movement model suspect",
			macPJ, e.DynamicPJ)
	}
}

// TestLeakageSmallButPresent mirrors the paper's observation that energy
// varies only ~0.2% across configurations because leakage (no power gating)
// is a small additive term.
func TestLeakageSmallButPresent(t *testing.T) {
	m := workload.NewResNet18()
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	e, err := Evaluate(m, c)
	if err != nil {
		t.Fatal(err)
	}
	if e.LeakagePJ <= 0 {
		t.Fatal("leakage must be modelled (no power gating)")
	}
	if frac := e.LeakagePJ / e.EnergyPJ(); frac > 0.15 {
		t.Errorf("leakage fraction %.3f too large for the 0.2%% cross-config story", frac)
	}
}

// TestQuickFoldsPositive property-checks fold decomposition over arbitrary
// shapes.
func TestQuickFoldsPositive(t *testing.T) {
	f := func(in, out, k, sz uint8) bool {
		l := workload.Layer{
			Kind: workload.Conv2d,
			NIFM: int(in%64) + 1, NOFM: int(out%64) + 1,
			KX: int(k%5) + 1, KY: int(k%5) + 1,
			OFMX: 7, OFMY: 7,
		}
		sizes := []int{16, 32, 64}
		folds, streams := computeFolds(l, sizes[int(sz)%3])
		return folds >= 1 && streams == 49
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickLatencyScalesDown: halving work never increases latency.
func TestQuickLatencyScalesDown(t *testing.T) {
	c := hw.Config{Point: centralPoint(), Units: hw.SetOf(hw.SystolicArray, hw.ActReLU)}
	f := func(tok uint8) bool {
		rows := int(tok%200) + 2
		big := workload.Layer{Kind: workload.Linear, NIFM: 1024, NOFM: 1024, IFMX: rows}
		small := big
		small.IFMX = rows / 2
		if small.IFMX == 0 {
			small.IFMX = 1
		}
		eb := evalCompute(big, c, 1)
		es := evalCompute(small, c, 1)
		return es.LatencyS <= eb.LatencyS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBatchAmortizesWeightLoads: per-inference latency improves with batch
// (fold fill/drain amortized) and per-inference energy converges (weight
// reads amortized), while total work scales.
func TestBatchAmortizesWeightLoads(t *testing.T) {
	m := workload.NewResNet18()
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	e1, err := EvaluateBatch(m, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := EvaluateBatch(m, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	perInf1 := e1.LatencyS
	perInf8 := e8.LatencyS / 8
	if perInf8 >= perInf1 {
		t.Errorf("batching should improve per-inference latency: %.3e vs %.3e",
			perInf8, perInf1)
	}
	// Total batch latency still grows with batch size.
	if e8.LatencyS <= e1.LatencyS {
		t.Error("batch-8 total latency must exceed batch-1")
	}
	// Per-inference dynamic energy shrinks (weight reads shared).
	if e8.DynamicPJ/8 >= e1.DynamicPJ {
		t.Errorf("per-inference energy should shrink with batch: %v vs %v",
			e8.DynamicPJ/8, e1.DynamicPJ)
	}
	// MAC work is exactly linear in batch.
	macs1 := float64(m.MACs()) * hw.PEMacPJ
	if e8.DynamicPJ < 8*macs1 {
		t.Error("batch energy below 8x MAC floor")
	}
	if _, err := EvaluateBatch(m, c, 0); err == nil {
		t.Error("batch 0 should fail")
	}
}

// TestPrecisionAblation (D8): an INT16 datapath costs ~3x energy and moves
// 2x the bytes at identical latency (same array dimensions and fold plan).
func TestPrecisionAblation(t *testing.T) {
	m := workload.NewResNet18()
	c8 := hw.NewConfig(centralPoint(), []*workload.Model{m})
	c16 := c8
	c16.Precision = hw.Int16
	e8, err := Evaluate(m, c8)
	if err != nil {
		t.Fatal(err)
	}
	e16, err := Evaluate(m, c16)
	if err != nil {
		t.Fatal(err)
	}
	if e16.LatencyS != e8.LatencyS {
		t.Errorf("latency should match at equal geometry: %v vs %v", e16.LatencyS, e8.LatencyS)
	}
	if ratio := e16.DynamicPJ / e8.DynamicPJ; ratio < 2.2 || ratio > 3.5 {
		t.Errorf("INT16/INT8 dynamic energy ratio = %.2f, want ~2.5-3x", ratio)
	}
	if e16.Layers[0].OutBytes != 2*e8.Layers[0].OutBytes {
		t.Error("INT16 must double edge bytes")
	}
	if e16.AreaMM2 <= e8.AreaMM2 {
		t.Error("INT16 config must be larger")
	}
}
