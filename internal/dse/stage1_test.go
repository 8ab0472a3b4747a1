package dse

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/workload"
)

// scoredFrontier streams a space through the sweep's Scorer and a Selector
// and returns the slack-feasible frontier stage 1 is handed.
func scoredFrontier(t *testing.T, models []*workload.Model, space hw.DesignSpace, ev *eval.Evaluator) []int {
	t.Helper()
	cons := DefaultConstraints()
	sc := NewScorer(ev, models, space, cons, CacheNever)
	sel := NewSelector(len(models), cons)
	lats := make([]float64, len(models))
	statics := make([]bool, len(models))
	for k := 0; k < space.Len(); k++ {
		area, err := sc.Score(k, lats, statics)
		if err != nil {
			t.Fatal(err)
		}
		sel.Observe(k, area, lats, statics)
	}
	return sel.FeasibleFrontier()
}

// strided returns every step-th element of xs, starting with the first.
func strided(xs []int, step int) []int {
	var out []int
	for i := 0; i < len(xs); i += step {
		out = append(out, xs[i])
	}
	return out
}

// TestStage1MatchesBuildEval is stage 1's bit-identity differential: on
// every point checked, the refined per-model results built from plan
// traffic, the shared topology and uncached summaries must equal, in every
// fidelity.Result field and bit for bit, Params.Eval on Params.Build over
// the full per-layer evaluations of the point's union-kind configuration.
// Both realize through the topology, so each point is also checked against
// the universal graph itself: the topology's edges against its edges, and
// the package's chiplets against chipletizing its nodes. The mix cases
// include truly mixed points such as mix(8,8), whose systolic-array banks
// the universal graph merges into one node.
func TestStage1MatchesBuildEval(t *testing.T) {
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	three := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	ev := eval.New(eval.Options{Workers: 2})
	everyPoint := func(space hw.DesignSpace, step int) []int {
		var pts []int
		for k := 0; k < space.Len(); k += step {
			pts = append(pts, k)
		}
		return pts
	}
	mix88 := hw.Mix{Counts: [hw.MaxMixTypes]uint16{8, 8}}
	for _, tc := range []struct {
		name   string
		models []*workload.Model
		space  hw.DesignSpace
		points []int
		// mustSee is a point mix the case must check (zero: none).
		mustSee hw.Mix
	}{
		{"paper/training", workload.TrainingSet(), hw.PaperSpace(),
			scoredFrontier(t, workload.TrainingSet(), hw.PaperSpace(), ev), hw.Mix{}},
		{"fine/training", workload.TrainingSet(), hw.FineSpace(),
			strided(scoredFrontier(t, workload.TrainingSet(), hw.FineSpace(), ev), 4), hw.Mix{}},
		// The frontier, then one point per mix (NAct and NPool vary fastest).
		{"mix/three", three, mix,
			append(scoredFrontier(t, three, mix, ev), everyPoint(mix, 9)...), mix88},
		{"mixfine/three", three, mixfine, everyPoint(mixfine, 2011), hw.Mix{}},
	} {
		params := testFidelityParams()
		st, err := newStage1(params, tc.models, tc.space, ev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]fidelity.Result, len(tc.models))
		seen := tc.mustSee.IsZero()
		for _, k := range tc.points {
			pt := tc.space.At(k)
			seen = seen || pt.Mix == tc.mustSee
			if err := st.refine(pt, got); err != nil {
				t.Fatalf("%s %v: %v", tc.name, pt, err)
			}
			cfg := hw.NewConfig(pt, tc.models)
			cfg.Cat = hw.CatalogueOf(tc.space)
			full := fullEvals(t, ev, tc.models, cfg)
			pkg, err := params.Build("oracle", full)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, pt, err)
			}
			for i, e := range full {
				if f := diffResultBits(got[i], params.Eval(pkg, e)); f != "" {
					t.Errorf("%s %v %s: stage-1 %s differs from Build+Eval", tc.name, pt, tc.models[i].Name, f)
				}
			}
			// Build's Graph is graph.Universal over graph.Build, which the
			// topology's edges and node merge must reproduce exactly.
			if !sameEdges(st.topo.Edges(), pkg.Graph.Edges()) {
				t.Errorf("%s %v: topology edges differ from the universal graph's", tc.name, pt)
			}
			if !reflect.DeepEqual(pkg.Chiplets, params.Chipletize(pkg.Graph, pkg.Assign)) {
				t.Errorf("%s %v: chiplets differ from chipletizing the universal graph", tc.name, pt)
			}
		}
		if !seen {
			t.Errorf("%s: %v was not checked", tc.name, tc.mustSee)
		}
	}
}

// sameEdges reports whether a clustering input equals a graph's edge list,
// in order and bit for bit.
func sameEdges(a []louvain.Edge, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B || math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

// diffResultBits names the first field in which a and b differ bit for bit,
// or returns "".
func diffResultBits(a, b fidelity.Result) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}
