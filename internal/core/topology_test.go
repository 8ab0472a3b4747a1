package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// TestTopologyEdgesMatchUniversalGraph pins the clustering input stage 1
// derives from plan traffic: for every design of a Table I train and test
// run, the topology's edges equal, bit for bit and in order, the edges of
// the universal graph graph.Universal merges from graph.Build over the
// design's full evaluations.
func TestTopologyEdgesMatchUniversalGraph(t *testing.T) {
	tr := trained(t)
	tt, err := Test(tr, workload.TestSet(), tr.Options)
	if err != nil {
		t.Fatal(err)
	}
	designs := []*DesignPoint{tr.Generic}
	for _, m := range workload.TrainingSet() {
		designs = append(designs, tr.Customs[m.Name])
	}
	for _, s := range tr.Subsets {
		designs = append(designs, s.Library)
	}
	for _, a := range tt.Assignments {
		designs = append(designs, a.Custom)
	}
	params := tr.Options.FidelityParams()
	ev := tr.Options.Engine()
	for _, d := range designs {
		gs := make([]*graph.Graph, len(d.DSE.Evals))
		traffic := make([][]ppa.LayerTraffic, len(d.DSE.Evals))
		for i, e := range d.DSE.Evals {
			gs[i] = graph.Build(e)
			traffic[i] = ev.Plan(e.Model).Traffic(d.Config.Precision, 1)
		}
		want := graph.Universal(d.Name, gs...).Edges()
		topo, err := params.NewTopology(d.Name, []hw.Config{d.Config}, traffic)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		got := topo.Edges()
		if len(got) != len(want) {
			t.Fatalf("%s: %d topology edges, universal graph %d", d.Name, len(got), len(want))
		}
		for i, e := range want {
			if g := got[i]; g.A != e.A || g.B != e.B || math.Float64bits(g.Weight) != math.Float64bits(e.Weight) {
				t.Errorf("%s: edge %d is (%d,%d,%v), universal graph (%d,%d,%v)", d.Name, i, g.A, g.B, g.Weight, e.A, e.B, e.Weight)
			}
		}
	}
}
