package fidelity

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/ppa"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func testParams() Params {
	return Params{
		NoC:               noc.DefaultNoC(),
		NoP:               noc.DefaultNoP(),
		MaxChipletAreaMM2: 50,
		Thermal:           thermal.Default(),
		JunctionLimitC:    105,
	}
}

// oneCommunity clusters every node into community 0.
func oneCommunity(n int, _ []graph.Edge) ([]int, error) { return make([]int, n), nil }

// asymmetricPackage builds a two-chiplet package with different bank counts:
// chiplet 0 hosts 2 banks, chiplet 1 hosts 3, adjacent on a 2x1 grid.
func asymmetricPackage() *Package {
	chiplets := []Chiplet{
		{Label: "L1", Banks: []hw.Bank{
			{Unit: hw.SystolicArray, Count: 2, SASize: 32},
			{Unit: hw.ActReLU, Count: 1},
		}, AreaMM2: 10},
		{Label: "L2", Banks: []hw.Bank{
			{Unit: hw.PoolMax, Count: 1},
			{Unit: hw.EngFlatten, Count: 1},
			{Unit: hw.ActGELU, Count: 1},
		}, AreaMM2: 20},
	}
	fp := placement.Placement{Grid: placement.Grid{W: 2, H: 1}, Slot: []int{0, 1}}
	return NewPackage(chiplets, fp)
}

// TestEvalPerChipletIntraHops pins the intra-chiplet hop bugfix on an
// asymmetric two-chiplet package: each intra-chiplet transfer must be charged
// the fractional average hop count of the torus spanning its *hosting*
// chiplet's banks. The old model charged every transfer the rounded average
// of the largest chiplet's torus, which both overcharges the small die and
// quantizes the large die's 7/3 average down to 2.
func TestEvalPerChipletIntraHops(t *testing.T) {
	p := testParams()
	pkg := asymmetricPackage()

	// Layer chain: SA -> ReLU (intra chiplet 0), ReLU -> MaxPool (inter),
	// MaxPool -> Flatten -> GELU (intra chiplet 1).
	e := &ppa.Eval{
		Summary: ppa.Summary{LatencyS: 1e-3},
		Layers: []ppa.LayerEval{
			{Unit: hw.SystolicArray, OutBytes: 1 << 20},
			{Unit: hw.ActReLU, OutBytes: 1 << 18},
			{Unit: hw.PoolMax, OutBytes: 1 << 16},
			{Unit: hw.EngFlatten, OutBytes: 1 << 14},
			{Unit: hw.ActGELU},
		},
	}
	r := p.Eval(pkg, e)

	hops0 := noc.NewTorus(2).AvgHops() // 2-bank die
	hops1 := noc.NewTorus(3).AvgHops() // 3-bank die: 7/3, fractional
	if hops1 == math.Trunc(hops1) {
		t.Fatalf("test premise broken: 3-bank torus average %v is integral", hops1)
	}
	wantNoC := p.NoC.TransferLatencyAvgS(1<<20, hops0) +
		p.NoC.TransferLatencyAvgS(1<<16, hops1) +
		p.NoC.TransferLatencyAvgS(1<<14, hops1)
	if math.Abs(r.NoCLatencyS-wantNoC) > 1e-18 {
		t.Errorf("NoC latency = %v, want %v (per-hosting-chiplet fractional hops)", r.NoCLatencyS, wantNoC)
	}
	wantNoCE := p.NoC.TransferEnergyAvgPJ(1<<20, hops0) +
		p.NoC.TransferEnergyAvgPJ(1<<16, hops1) +
		p.NoC.TransferEnergyAvgPJ(1<<14, hops1)
	if math.Abs(r.NoCEnergyPJ-wantNoCE) > 1e-9 {
		t.Errorf("NoC energy = %v, want %v", r.NoCEnergyPJ, wantNoCE)
	}

	// The old model: every intra transfer at round(AvgHops(largest)) hops.
	oldHops := int(math.Round(noc.NewTorus(3).AvgHops()))
	oldNoC := p.NoC.TransferLatencyS(1<<20, oldHops) +
		p.NoC.TransferLatencyS(1<<16, oldHops) +
		p.NoC.TransferLatencyS(1<<14, oldHops)
	if math.Abs(r.NoCLatencyS-oldNoC) < 1e-18 {
		t.Error("per-chiplet hops indistinguishable from the old largest-chiplet model; asymmetric fixture broken")
	}

	// Inter-chiplet transfer goes over the NoP at the floorplan hop count.
	wantNoP := p.NoP.TransferLatencyS(1<<18, pkg.Floorplan.Hops(0, 1))
	if math.Abs(r.NoPLatencyS-wantNoP) > 1e-18 {
		t.Errorf("NoP latency = %v, want %v", r.NoPLatencyS, wantNoP)
	}
	if r.LatencyS != e.LatencyS+r.NoCLatencyS+r.NoPLatencyS {
		t.Error("refined latency must be compute + NoC + NoP")
	}
}

// TestEvalThermal cross-checks PeakTempC against a direct call of the
// compact thermal model with area-proportional power sources.
func TestEvalThermal(t *testing.T) {
	p := testParams()
	pkg := asymmetricPackage()
	e := &ppa.Eval{
		Summary: ppa.Summary{LatencyS: 1e-3, DynamicPJ: 5e9},
		Layers: []ppa.LayerEval{
			{Unit: hw.SystolicArray, OutBytes: 1 << 20},
			{Unit: hw.PoolMax},
		},
	}
	r := p.Eval(pkg, e)
	if r.PeakTempC <= p.Thermal.AmbientC {
		t.Fatalf("peak temperature %v not above ambient %v", r.PeakTempC, p.Thermal.AmbientC)
	}
	totalW := r.EnergyPJ * 1e-12 / r.LatencyS
	area := pkg.AreaMM2()
	srcs := make([]thermal.Source, len(pkg.Chiplets))
	for i, c := range pkg.Chiplets {
		srcs[i] = thermal.Source{PowerW: totalW * c.AreaMM2 / area, AreaMM2: c.AreaMM2, Slot: pkg.Floorplan.Slot[i]}
	}
	want, err := p.Thermal.Peak(srcs, pkg.Floorplan.Grid.W)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakTempC != want {
		t.Errorf("PeakTempC = %v, want %v", r.PeakTempC, want)
	}
}

func TestEvalZeroTraffic(t *testing.T) {
	p := testParams()
	pkg := asymmetricPackage()
	e := &ppa.Eval{Layers: []ppa.LayerEval{{Unit: hw.SystolicArray}}}
	r := p.Eval(pkg, e)
	if r.NoCLatencyS != 0 || r.NoPLatencyS != 0 || r.PeakTempC != 0 {
		t.Errorf("single-layer zero-power eval should cost nothing: %+v", r)
	}
}

func TestBuildValidation(t *testing.T) {
	p := testParams()
	if _, err := p.Build("empty", nil); err == nil {
		t.Error("Build must reject an empty eval set")
	}
	if _, err := p.Build("x", []*ppa.Eval{{}}); err == nil {
		t.Error("Build must reject a nil cluster function")
	}
	p.Cluster = oneCommunity
	bankless := &ppa.Eval{
		Config: hw.Config{Point: hw.Point{SASize: 16, NSA: 1}},
		Layers: []ppa.LayerEval{{Unit: hw.SystolicArray}, {Unit: hw.ActGELU}},
	}
	if _, err := p.Build("x", []*ppa.Eval{bankless}); err == nil {
		t.Error("Build must reject a layer whose unit has no bank")
	}
}

// TestBuildWeightsNodesByExecutions: Build's graph gives each node the
// summed executions of its layers across every model, here AlexNet and
// ViT-base on their own configurations of one point, so the SA node sums
// both models' SA layers.
func TestBuildWeightsNodesByExecutions(t *testing.T) {
	p := testParams()
	p.Cluster = oneCommunity
	pt := hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	want := make(map[hw.Unit]float64)
	var saPerModel []float64
	var evals []*ppa.Eval
	for _, m := range []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()} {
		e, err := ppa.Evaluate(m, hw.NewConfig(pt, []*workload.Model{m}))
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, e)
		var sa float64
		for _, le := range e.Layers {
			want[le.Unit] += float64(le.Executions)
			if le.Unit == hw.SystolicArray {
				sa += float64(le.Executions)
			}
		}
		saPerModel = append(saPerModel, sa)
	}
	pkg, err := p.Build("UG", evals)
	if err != nil {
		t.Fatal(err)
	}
	g := pkg.Graph
	if g == nil || g.Name != "UG" {
		t.Fatalf("Build's graph = %+v, want the universal graph named UG", g)
	}
	if len(g.Nodes) != len(want) {
		t.Fatalf("graph has %d nodes, the layers use %d unit kinds", len(g.Nodes), len(want))
	}
	for _, n := range g.Nodes {
		if n.Weight != want[n.Unit] || n.Weight <= 0 {
			t.Errorf("%v weight = %v, want its layers' %v executions", n.Unit, n.Weight, want[n.Unit])
		}
	}
	if saPerModel[0] <= 0 || saPerModel[1] <= 0 {
		t.Fatalf("test premise broken: per-model SA executions %v", saPerModel)
	}
	if sa := g.Nodes[0]; sa.Unit != hw.SystolicArray || sa.Weight != saPerModel[0]+saPerModel[1] {
		t.Errorf("node 0 = %+v, want the SA bank weighted %v", sa, saPerModel[0]+saPerModel[1])
	}
}

func TestHostMapFirstHost(t *testing.T) {
	chiplets := []Chiplet{
		{Banks: []hw.Bank{{Unit: hw.SystolicArray, Count: 2}}},
		{Banks: []hw.Bank{{Unit: hw.SystolicArray, Count: 2}, {Unit: hw.ActReLU, Count: 1}}},
	}
	m := HostMap(chiplets)
	if m[hw.SystolicArray] != 0 {
		t.Errorf("split SA bank must map to its first hosting chiplet, got %d", m[hw.SystolicArray])
	}
	if m[hw.ActReLU] != 1 {
		t.Errorf("ReLU host = %d, want 1", m[hw.ActReLU])
	}
}

// shapeOfPackage renders what Rescore's memo must tell apart: the chiplet
// count, each chiplet's bank count and the unit-kind host map.
func shapeOfPackage(pkg *Package) string {
	banks := make([]int, len(pkg.Chiplets))
	for i, c := range pkg.Chiplets {
		banks[i] = len(c.Banks)
	}
	return fmt.Sprint(len(pkg.Chiplets), banks, HostMap(pkg.Chiplets))
}

// sameBits reports whether two results agree bit for bit in every field.
func sameBits(a, b Result) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return false
		}
	}
	return true
}

// TestRescoreMatchesScoreOnRealize pins Rescore's memo of package shapes
// against the un-memoized Score on Realize. Every unit sits in one
// community and the die limit holds two and a half arrays, so the
// systolic-array bank splits across dies; as the activation and pooling
// banks grow, the first die keeps fewer arrays and then none. That yields
// distinct shapes with the same chiplet count: with arrays on the first die
// or all of them moved off it. Every result must equal Score on Realize bit
// for bit, in grid order on one topology, and the topology must solve one
// floorplan per distinct shape.
func TestRescoreMatchesScoreOnRealize(t *testing.T) {
	m := workload.NewAlexNet()
	plan := ppa.NewModelPlan(m)
	traffic := [][]ppa.LayerTraffic{plan.Traffic(hw.Int8, 1)}
	p := testParams()
	p.Cluster = oneCommunity
	perSA := hw.Bank{Unit: hw.SystolicArray, Count: 1, SASize: 32}.AreaUM2()
	p.MaxChipletAreaMM2 = hw.UM2ToMM2(2.5 * perSA)
	tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
	topo, err := p.NewTopology("rescore", []hw.Config{tmpl}, traffic)
	if err != nil {
		t.Fatal(err)
	}
	shapes := make(map[string]bool)
	byCount := make(map[int]map[string]bool)
	for _, nsa := range []int{4, 6} {
		for units := 1; units <= 4096; units *= 2 {
			cfg := tmpl
			cfg.Point = hw.Point{SASize: 32, NSA: nsa, NAct: units, NPool: units}
			s, err := plan.Summary(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := p.Realize(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := p.Score(pkg, traffic[0], s)
			got := make([]Result, 1)
			if err := topo.Rescore(cfg, []ppa.Summary{s}, got); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got[0], want) {
				t.Errorf("%v: Rescore %+v, Score on Realize %+v", cfg.Point, got[0], want)
			}
			key := shapeOfPackage(pkg)
			shapes[key] = true
			if byCount[len(pkg.Chiplets)] == nil {
				byCount[len(pkg.Chiplets)] = make(map[string]bool)
			}
			byCount[len(pkg.Chiplets)][key] = true
		}
	}
	if got := topo.Floorplans(); got != len(shapes) {
		t.Errorf("%d floorplans solved for %d distinct shapes", got, len(shapes))
	}
	shared := false
	for _, ks := range byCount {
		shared = shared || len(ks) > 1
	}
	if !shared {
		t.Fatalf("no two shapes share a chiplet count: %v", byCount)
	}
}
