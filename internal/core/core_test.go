package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// trainOnce caches the full training result: it is the substrate of most
// tests here and deterministic, so building it once keeps the suite fast.
var (
	trainOnce   sync.Once
	trainCached *TrainResult
	trainErr    error
)

func trained(t *testing.T) *TrainResult {
	t.Helper()
	trainOnce.Do(func() {
		trainCached, trainErr = Train(workload.TrainingSet(), DefaultOptions())
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainCached
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Space = nil
	if o.Validate() == nil {
		t.Error("empty space should fail")
	}
	o = DefaultOptions()
	o.Cluster = nil
	if o.Validate() == nil {
		t.Error("nil cluster fn should fail")
	}
	o = DefaultOptions()
	o.MaxChipletAreaMM2 = 0
	if o.Validate() == nil {
		t.Error("zero chiplet limit should fail")
	}
}

func TestTrainProducesAllOutputs(t *testing.T) {
	tr := trained(t)
	if len(tr.Customs) != 13 {
		t.Errorf("got %d custom configs, want 13", len(tr.Customs))
	}
	if tr.Generic == nil || tr.Generic.NRE != 1 {
		t.Error("generic config must exist with normalized NRE 1")
	}
	if len(tr.Subsets) != 5 {
		t.Errorf("got %d subsets, want 5 (Table III)", len(tr.Subsets))
	}
	if tr.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	// Convergence well under the paper's eight minutes.
	if tr.Elapsed.Seconds() > 60 {
		t.Errorf("training took %v; expected sub-minute convergence", tr.Elapsed)
	}
}

func TestEveryTrainingAlgorithmFullyCovered(t *testing.T) {
	tr := trained(t)
	for _, m := range tr.Models {
		k := tr.SubsetOf(m.Name)
		if k < 0 {
			t.Fatalf("%s not in any subset", m.Name)
		}
		lib := tr.Subsets[k].Library
		mp := lib.PerModel[m.Name]
		if mp == nil {
			t.Fatalf("%s missing PerModel on its library", m.Name)
		}
		if mp.Coverage != 1 {
			t.Errorf("%s coverage on %s = %v, want 1 (paper: C_layer 100%%)",
				m.Name, tr.Subsets[k].Name, mp.Coverage)
		}
		if cg := tr.Generic.PerModel[m.Name]; cg == nil || cg.Coverage != 1 {
			t.Errorf("%s not fully covered by the generic config", m.Name)
		}
	}
}

func TestCustomUtilizationIsFull(t *testing.T) {
	// Custom configurations provision exactly the units their algorithm
	// needs, so U_chiplet(i, i) must be 1 (the paper: "custom design
	// configurations achieving full utilization").
	tr := trained(t)
	for name, d := range tr.Customs {
		mp := d.PerModel[name]
		if mp.Utilization != 1 {
			t.Errorf("%s custom utilization = %v, want 1", name, mp.Utilization)
		}
	}
}

func TestUtilizationOrderingCustomLibraryGeneric(t *testing.T) {
	// "progressively lower utilization ... from custom to library-synthesized
	// and then to generic configurations."
	tr := trained(t)
	for _, m := range tr.Models {
		k := tr.SubsetOf(m.Name)
		lib := tr.Subsets[k].Library.PerModel[m.Name].Utilization
		gen := tr.Generic.PerModel[m.Name].Utilization
		if !(1 >= lib && lib >= gen) {
			t.Errorf("%s: utilization ordering violated: custom=1, lib=%v, generic=%v",
				m.Name, lib, gen)
		}
	}
}

func TestNRENormalization(t *testing.T) {
	tr := trained(t)
	if tr.Generic.NRE != 1 {
		t.Fatalf("generic NRE = %v", tr.Generic.NRE)
	}
	for name, d := range tr.Customs {
		if d.NRE <= 0 || d.NRE >= 1 {
			t.Errorf("%s custom NRE = %v, want in (0, 1): customs must be cheaper than generic",
				name, d.NRE)
		}
	}
	for _, s := range tr.Subsets {
		if s.Library.NRE <= 0 || s.Library.NRE >= 1 {
			t.Errorf("%s library NRE = %v, want in (0, 1)", s.Name, s.Library.NRE)
		}
	}
}

// TestTableIVShape pins the training-phase NRE benefits: the CNN subset
// (six members) must show a benefit of roughly 5-6x and every multi-member
// subset must show a benefit close to its cardinality.
func TestTableIVShape(t *testing.T) {
	tr := trained(t)
	for _, s := range tr.Subsets {
		cum, lib, ben := s.NREBenefit(tr.Customs)
		if lib <= 0 || cum <= 0 {
			t.Fatalf("%s: degenerate NRE %v/%v", s.Name, cum, lib)
		}
		n := float64(len(s.Members))
		if ben < 0.7*n || ben > 1.3*n {
			t.Errorf("%s (%d members): benefit %.2fx outside [%.1f, %.1f] (paper: benefit ~ subset size)",
				s.Name, len(s.Members), ben, 0.7*n, 1.3*n)
		}
		if len(s.Members) == 6 && (ben < 4.5 || ben > 7) {
			t.Errorf("six-member subset benefit %.2fx, paper reports 5.99x", ben)
		}
	}
}

func TestChipletizationRespectsAreaLimit(t *testing.T) {
	tr := trained(t)
	o := tr.Options
	check := func(d *DesignPoint) {
		if len(d.Chiplets) == 0 {
			t.Fatalf("%s has no chiplets", d.Name)
		}
		for _, c := range d.Chiplets {
			// The logic limit applies pre-interconnect; allow the PHY/router
			// overhead on top.
			if c.LogicAreaMM2 > o.MaxChipletAreaMM2*1.001 {
				t.Errorf("%s chiplet %s logic %.1f exceeds limit %.1f",
					d.Name, c.Label, c.LogicAreaMM2, o.MaxChipletAreaMM2)
			}
			if c.AreaMM2 < c.LogicAreaMM2 {
				t.Errorf("%s chiplet %s total area below logic area", d.Name, c.Label)
			}
		}
	}
	check(tr.Generic)
	for _, d := range tr.Customs {
		check(d)
	}
	for _, s := range tr.Subsets {
		check(s.Library)
	}
}

func TestGenericHasMostChipletTypes(t *testing.T) {
	// The generic configuration integrates every unit kind in the training
	// set; after clustering it must hold at least as many distinct chiplet
	// types as any library configuration (it is the expensive catch-all).
	tr := trained(t)
	genTypes := distinctTypes(tr.Generic)
	for _, s := range tr.Subsets {
		if distinctTypes(s.Library) > genTypes {
			t.Errorf("%s has more chiplet types (%d) than generic (%d)",
				s.Name, distinctTypes(s.Library), genTypes)
		}
	}
}

func distinctTypes(d *DesignPoint) int {
	sigs := make(map[string]bool)
	for _, c := range d.Chiplets {
		sigs[c.Signature()] = true
	}
	return len(sigs)
}

func TestFigure3ShapeCNNLibraryHasTwoChiplets(t *testing.T) {
	// Figure 3: the CNN-class library configuration clusters into exactly
	// two chiplets.
	tr := trained(t)
	cnn := tr.Subsets[tr.SubsetOf("Resnet18")]
	if got := len(cnn.Library.Chiplets); got != 2 {
		t.Errorf("CNN library has %d chiplets, want 2 (Figure 3b)", got)
	}
	// Both chiplets carry at least one bank, labels are L1, L2.
	for i, c := range cnn.Library.Chiplets {
		if len(c.Banks) == 0 {
			t.Errorf("chiplet %d empty", i)
		}
	}
	if cnn.Library.Chiplets[0].Label != "L1" || cnn.Library.Chiplets[1].Label != "L2" {
		t.Errorf("labels = %v, %v", cnn.Library.Chiplets[0].Label, cnn.Library.Chiplets[1].Label)
	}
}

func TestTestPhase(t *testing.T) {
	tr := trained(t)
	tt, err := Test(tr, workload.TestSet(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Assignments) != 6 {
		t.Fatalf("got %d assignments, want 6", len(tt.Assignments))
	}
	for _, a := range tt.Assignments {
		if a.SubsetIndex < 0 {
			t.Errorf("%s unassigned; every paper test algorithm finds a covering config", a.Algorithm)
			continue
		}
		if a.OnLibrary == nil || a.OnLibrary.Coverage != 1 {
			t.Errorf("%s: assignment must guarantee 100%% coverage", a.Algorithm)
		}
		if a.Custom == nil || a.Custom.NRE <= 0 {
			t.Errorf("%s: missing custom configuration", a.Algorithm)
		}
		if a.OnGeneric == nil {
			t.Errorf("%s: missing generic evaluation", a.Algorithm)
		}
	}
}

// TestTableVShape pins the utilization improvements: every test algorithm
// must utilize its library configuration strictly better than the generic
// one, with ratios in the paper's reported neighborhood (>= 1.3x, and >= 2x
// for the pure-transformer algorithms).
func TestTableVShape(t *testing.T) {
	tr := trained(t)
	tt, err := Test(tr, workload.TestSet(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tt.Assignments {
		g, l := a.OnGeneric.Utilization, a.OnLibrary.Utilization
		if l <= g {
			t.Errorf("%s: library utilization %v not above generic %v", a.Algorithm, l, g)
			continue
		}
		ratio := l / g
		if ratio < 1.3 {
			t.Errorf("%s: utilization ratio %.2f below 1.3 (paper: 1.6-4x)", a.Algorithm, ratio)
		}
		switch a.Algorithm {
		case "BERT-base", "Graphormer", "ViT-base", "AST":
			if ratio < 2 {
				t.Errorf("%s: transformer ratio %.2f, paper reports ~4x for this class",
					a.Algorithm, ratio)
			}
		}
	}
}

// TestTableVIShape pins the test-phase NRE benefits: every subset that
// received at least two test algorithms shows a benefit of roughly 1.5-4x.
func TestTableVIShape(t *testing.T) {
	tr := trained(t)
	tt, err := Test(tr, workload.TestSet(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	assigned := tt.Assigned()
	if len(assigned) == 0 {
		t.Fatal("no subset received test algorithms")
	}
	sawMulti := false
	for k, idxs := range assigned {
		if len(idxs) < 2 {
			continue
		}
		sawMulti = true
		_, _, ben := tt.SubsetNREBenefit(tr, k)
		if ben < 1.3 || ben > 4.5 {
			t.Errorf("subset %s: test NRE benefit %.2fx outside the paper's 1.99-3.99x neighborhood",
				tr.Subsets[k].Name, ben)
		}
	}
	if !sawMulti {
		t.Error("no subset received two or more test algorithms")
	}
}

// TestFigure4EnergyDeviationSmall mirrors the paper's 0.2% energy claim: for
// each subset's area-dominant member (the one whose custom config matches the
// library's DSE point), energy on C_k deviates from custom by well under 5%.
func TestFigure4EnergyDeviationSmall(t *testing.T) {
	tr := trained(t)
	for _, s := range tr.Subsets {
		for _, name := range s.Members {
			cust := tr.Customs[name]
			if cust.Config.Point != s.Library.Config.Point {
				continue // smaller member; its custom sits at another point
			}
			ce := cust.PerModel[name].Total.EnergyPJ
			le := s.Library.PerModel[name].Total.EnergyPJ
			dev := math.Abs(le-ce) / ce
			if dev > 0.05 {
				t.Errorf("%s on %s: energy deviation %.3f%% exceeds 5%%",
					name, s.Name, dev*100)
			}
		}
	}
}

func TestChipletSignatureDistinguishesBanks(t *testing.T) {
	a := Chiplet{Banks: []hw.Bank{{Unit: hw.SystolicArray, Count: 32, SASize: 32}}}
	b := Chiplet{Banks: []hw.Bank{{Unit: hw.SystolicArray, Count: 64, SASize: 32}}}
	if a.Signature() == b.Signature() {
		t.Error("different bank counts must differ in signature")
	}
	c := Chiplet{Banks: a.Banks}
	if a.Signature() != c.Signature() {
		t.Error("same banks must share a signature")
	}
	if !strings.Contains(a.Signature(), "SA[32x32]x32") {
		t.Errorf("signature %q unreadable", a.Signature())
	}
}

func TestGreedyClusterAblation(t *testing.T) {
	o := DefaultOptions()
	o.Cluster = GreedyCluster
	tr, err := Train(workload.TrainingSet(), o)
	if err != nil {
		t.Fatal(err)
	}
	// The greedy baseline still yields a working pipeline with full coverage.
	for _, m := range tr.Models {
		k := tr.SubsetOf(m.Name)
		if tr.Subsets[k].Library.PerModel[m.Name].Coverage != 1 {
			t.Errorf("%s loses coverage under greedy clustering", m.Name)
		}
	}
}

func TestTrainErrorPaths(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("empty training set should fail")
	}
	o := DefaultOptions()
	o.Space = nil
	if _, err := Train(workload.TrainingSet(), o); err == nil {
		t.Error("invalid options should fail")
	}
	tr := trained(t)
	if _, err := Test(tr, nil, tr.Options); err == nil {
		t.Error("empty test set should fail")
	}

	// Algorithm 1's error order: the customs in input order, then the
	// generic configuration, then the libraries in partition order. At a
	// 0.3 W/mm² power-density limit DPT-Large, the tenth training network,
	// is the first whose custom DSE fails; the generic and DPT-Large's
	// library fail too, but the custom's error wins. At 10% latency slack
	// every custom is feasible and the generic and the first library are
	// not; the generic's error wins.
	for _, tc := range []struct {
		name string
		set  func(*Options)
		want string
	}{
		{"power density", func(o *Options) { o.Constraints.MaxPowerDensityWPerMM2 = 0.3 },
			"dse: no space point meets area/power constraints for DPT-Large"},
		{"slack", func(o *Options) { o.Constraints.LatencySlack = 0.1 },
			"core: generic configuration: dse: no feasible configuration for 13 models under " +
				"{MaxChipAreaMM2:100 MaxPowerDensityWPerMM2:0.8 LatencySlack:0.1}"},
	} {
		for _, workers := range []int{1, 4} {
			o := DefaultOptions()
			o.Workers = workers
			tc.set(&o)
			if _, err := Train(workload.TrainingSet(), o); err == nil || err.Error() != tc.want {
				t.Errorf("%s, workers=%d: Train error %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
}

func TestSubsetOf(t *testing.T) {
	tr := trained(t)
	if tr.SubsetOf("Resnet18") < 0 {
		t.Error("Resnet18 must belong to a subset")
	}
	if tr.SubsetOf("NoSuchNet") != -1 {
		t.Error("unknown algorithm should map to -1")
	}
}

func TestPeakTemperatureWithinBudget(t *testing.T) {
	// The PD_limit constraint exists "to manage chip temperature"; with the
	// default thermal model every feasible configuration must stay inside
	// the junction budget, and temperatures must exceed ambient while any
	// work runs.
	tr := trained(t)
	check := func(d *DesignPoint) {
		for name, mp := range d.PerModel {
			if mp.PeakTempC <= tr.Options.Thermal.AmbientC {
				t.Errorf("%s on %s: peak %v C not above ambient", name, d.Name, mp.PeakTempC)
			}
			if mp.PeakTempC > tr.Options.JunctionLimitC {
				t.Errorf("%s on %s: peak %v C exceeds junction budget %v",
					name, d.Name, mp.PeakTempC, tr.Options.JunctionLimitC)
			}
		}
	}
	check(tr.Generic)
	for _, s := range tr.Subsets {
		check(s.Library)
	}
}

func TestFloorplanCoversAllChiplets(t *testing.T) {
	tr := trained(t)
	check := func(d *DesignPoint) {
		if len(d.Floorplan.Slot) != len(d.Chiplets) {
			t.Fatalf("%s: floorplan has %d slots for %d chiplets",
				d.Name, len(d.Floorplan.Slot), len(d.Chiplets))
		}
		seen := make(map[int]bool)
		for _, s := range d.Floorplan.Slot {
			if seen[s] {
				t.Fatalf("%s: two chiplets share slot %d", d.Name, s)
			}
			seen[s] = true
		}
		// Hops between distinct chiplets are at least 1.
		for i := range d.Chiplets {
			for j := range d.Chiplets {
				h := d.Floorplan.Hops(i, j)
				if i == j && h != 0 {
					t.Fatalf("%s: self hops %d", d.Name, h)
				}
				if i != j && h < 1 {
					t.Fatalf("%s: hops(%d,%d) = %d", d.Name, i, j, h)
				}
			}
		}
	}
	check(tr.Generic)
	for _, s := range tr.Subsets {
		check(s.Library)
	}
}

func TestInterconnectBreakdownConsistent(t *testing.T) {
	tr := trained(t)
	for _, s := range tr.Subsets {
		for name, mp := range s.Library.PerModel {
			wantLat := mp.Compute.LatencyS + mp.NoCLatencyS + mp.NoPLatencyS
			if math.Abs(wantLat-mp.Total.LatencyS) > 1e-12 {
				t.Errorf("%s on %s: latency breakdown inconsistent", name, s.Name)
			}
			wantE := mp.Compute.EnergyPJ + mp.NoCEnergyPJ + mp.NoPEnergyPJ
			if math.Abs(wantE-mp.Total.EnergyPJ) > 1e-3 {
				t.Errorf("%s on %s: energy breakdown inconsistent", name, s.Name)
			}
			if len(s.Library.Chiplets) == 1 && mp.NoPEnergyPJ != 0 {
				t.Errorf("%s on single-die %s: NoP energy should be zero", name, s.Name)
			}
		}
	}
}
