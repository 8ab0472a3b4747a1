package graph

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// universalOf builds the universal graph of models, each on its own
// configuration of one point, from their plan traffic.
func universalOf(t *testing.T, models ...*workload.Model) *Graph {
	t.Helper()
	pt := hw.Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	cfgs := make([]hw.Config, len(models))
	traffic := make([][]ppa.LayerTraffic, len(models))
	for i, m := range models {
		cfgs[i] = hw.NewConfig(pt, []*workload.Model{m})
		traffic[i] = ppa.NewModelPlan(m).Traffic(cfgs[i].Precision, 1)
	}
	g, err := Universal("UG", cfgs, traffic)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nodeOf returns the index of the node with unit kind u, or -1.
func nodeOf(g *Graph, u hw.Unit) int {
	for i, n := range g.Nodes {
		if n.Unit == u {
			return i
		}
	}
	return -1
}

// edgeWeight returns the weight of the undirected edge (a, b), or 0.
func edgeWeight(g *Graph, a, b int) float64 {
	a, b = min(a, b), max(a, b)
	for _, e := range g.Edges {
		if e.A == a && e.B == b {
			return e.Weight
		}
	}
	return 0
}

// lt is one layer's traffic: its unit and output bytes.
func lt(u hw.Unit, outBytes int64) ppa.LayerTraffic {
	return ppa.LayerTraffic{Unit: u, OutBytes: outBytes}
}

func totalWeight(g *Graph) float64 {
	var w float64
	for _, e := range g.Edges {
		w += e.Weight
	}
	return w
}

func TestBuildBankGraph(t *testing.T) {
	g := universalOf(t, workload.NewAlexNet())
	// One node per config bank: SA, RELU, MAXPOOL, ADAPTIVEAVGPOOL, FLATTEN.
	if len(g.Nodes) != 5 {
		t.Fatalf("AlexNet graph has %d nodes, want 5 (%v)", len(g.Nodes), g.Nodes)
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	sa, relu := nodeOf(g, hw.SystolicArray), nodeOf(g, hw.ActReLU)
	if sa < 0 || relu < 0 {
		t.Fatalf("missing SA or RELU node: %v", g.Nodes)
	}
	// CONV2D->RELU consecutive layers create an SA--RELU edge.
	if edgeWeight(g, sa, relu) <= 0 {
		t.Error("missing SA--RELU edge")
	}
}

func TestSelfEdgeForConsecutiveSameBankLayers(t *testing.T) {
	// BERT is linear-dominated: consecutive LINEAR layers map to the SA bank
	// and must create a self-edge carrying the inter-layer data volume.
	g := universalOf(t, workload.NewBERTBase())
	sa := nodeOf(g, hw.SystolicArray)
	if edgeWeight(g, sa, sa) <= 0 {
		t.Error("expected SA self-edge for LINEAR-LINEAR traffic")
	}
}

// TestEdgeAccumulation pins Universal on a hand-worked case: two
// configurations whose banks merge to the largest of each dimension (the SA
// node takes the first's array size and the second's count, the RELU node
// the first's count), one undirected edge fed from both directions and by
// both models, and a zero-byte output that adds no edge.
func TestEdgeAccumulation(t *testing.T) {
	cfgs := []hw.Config{
		{Point: hw.Point{SASize: 32, NSA: 4, NAct: 4}, Units: hw.SetOf(hw.ActReLU)},
		{Point: hw.Point{SASize: 16, NSA: 8, NAct: 2, NPool: 3},
			Units: hw.SetOf(hw.ActReLU, hw.ActGELU, hw.PoolMax)},
	}
	traffic := [][]ppa.LayerTraffic{
		// SA->RELU 100 and RELU->SA 50 feed the same edge; the last
		// layer's output goes nowhere.
		{lt(hw.SystolicArray, 100), lt(hw.ActReLU, 50), lt(hw.SystolicArray, 7)},
		// GELU->GELU 30 is a self-edge, GELU->MAXPOOL moves nothing,
		// MAXPOOL->RELU 9 and RELU->SA 1.
		{lt(hw.ActGELU, 30), lt(hw.ActGELU, 0), lt(hw.PoolMax, 9), lt(hw.ActReLU, 1), lt(hw.SystolicArray, 5)},
	}
	g, err := Universal("hand", cfgs, traffic)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []Node{
		{ID: 0, Unit: hw.SystolicArray, Count: 8, SASize: 32},
		{ID: 1, Unit: hw.ActReLU, Count: 4},
		{ID: 2, Unit: hw.ActGELU, Count: 2},
		{ID: 3, Unit: hw.PoolMax, Count: 3},
	}
	if !reflect.DeepEqual(g.Nodes, wantNodes) {
		t.Errorf("nodes = %v, want %v", g.Nodes, wantNodes)
	}
	wantEdges := []Edge{{A: 0, B: 1, Weight: 151}, {A: 1, B: 3, Weight: 9}, {A: 2, B: 2, Weight: 30}}
	if !reflect.DeepEqual(g.Edges, wantEdges) {
		t.Errorf("edges = %v, want %v", g.Edges, wantEdges)
	}
	if g.Name != "hand" {
		t.Errorf("name = %q", g.Name)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	cfgs := []hw.Config{{Point: hw.Point{SASize: 16, NSA: 1, NAct: 1, NPool: 1},
		Units: hw.SetOf(hw.ActReLU, hw.ActGELU, hw.PoolMax, hw.EngFlatten)}}
	// Nodes SA 0, RELU 1, GELU 2, MAXPOOL 3, FLATTEN 4; edges produced in
	// the order (1,3), (0,4), (2,2).
	traffic := [][]ppa.LayerTraffic{
		{lt(hw.PoolMax, 1), lt(hw.ActReLU, 0), lt(hw.SystolicArray, 1), lt(hw.EngFlatten, 0)},
		{lt(hw.ActGELU, 1), lt(hw.ActGELU, 0)},
	}
	g, err := Universal("t", cfgs, traffic)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{A: 0, B: 4, Weight: 1}, {A: 1, B: 3, Weight: 1}, {A: 2, B: 2, Weight: 1}}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Errorf("edges = %v, want %v", g.Edges, want)
	}
}

// TestUniversalLayerWithoutBank: traffic through a unit kind the
// configurations do not provision is an error naming the unit.
func TestUniversalLayerWithoutBank(t *testing.T) {
	cfgs := []hw.Config{{Point: hw.Point{SASize: 16, NSA: 1, NAct: 1}, Units: hw.SetOf(hw.ActReLU)}}
	for _, tr := range [][]ppa.LayerTraffic{
		{lt(hw.SystolicArray, 1), lt(hw.ActGELU, 1)},
		{lt(hw.PoolMax, 1)},
		{lt(hw.SystolicArray, 1), lt(hw.Unit(hw.NumUnits), 1)},
		{lt(hw.Unit(-1), 1)},
	} {
		_, err := Universal("t", cfgs, [][]ppa.LayerTraffic{tr})
		if err == nil {
			t.Errorf("traffic %v: no error", tr)
			continue
		}
		if u := tr[len(tr)-1].Unit; !strings.Contains(err.Error(), u.String()) {
			t.Errorf("traffic %v: error %q does not name %v", tr, err, u)
		}
	}
}

func TestUniversalMerge(t *testing.T) {
	ga := universalOf(t, workload.NewAlexNet())
	gv := universalOf(t, workload.NewViTBase())
	ug := universalOf(t, workload.NewAlexNet(), workload.NewViTBase())
	// Union of unit kinds.
	for _, u := range []hw.Unit{hw.SystolicArray, hw.ActReLU, hw.ActGELU,
		hw.PoolMax, hw.PoolAdaptiveAvg, hw.EngFlatten, hw.EngPermute} {
		if nodeOf(ug, u) < 0 {
			t.Errorf("universal graph missing %v", u)
		}
	}
	if len(ug.Nodes) != 7 {
		t.Errorf("universal graph has %d nodes, want 7 (%v)", len(ug.Nodes), ug.Nodes)
	}
	// Total edge weight sums.
	if got, want := totalWeight(ug), totalWeight(ga)+totalWeight(gv); got != want {
		t.Errorf("universal edge weight %v, want %v", got, want)
	}
}

func TestDOTOutput(t *testing.T) {
	g := universalOf(t, workload.NewAlexNet())
	mono := g.DOT(nil)
	for _, frag := range []string{"graph", "SA[32x32]x32", "--"} {
		if !strings.Contains(mono, frag) {
			t.Errorf("monolithic DOT missing %q", frag)
		}
	}
	clusters := make([]int, len(g.Nodes))
	for i := range clusters {
		clusters[i] = i % 2
	}
	dot := g.DOT(clusters)
	if !strings.Contains(dot, "subgraph cluster_0") || !strings.Contains(dot, "Chiplet L1") {
		t.Errorf("clustered DOT missing chiplet subgraphs:\n%s", dot)
	}
	if !strings.Contains(dot, "Chiplet L2") {
		t.Error("clustered DOT missing second chiplet")
	}
}
