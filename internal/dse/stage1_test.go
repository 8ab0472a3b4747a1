package dse

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/workload"
)

// scoredFrontier streams a space through the sweep's Scorer and a Selector
// and returns the slack-feasible frontier stage 1 is handed.
func scoredFrontier(t *testing.T, models []*workload.Model, space hw.DesignSpace, ev *eval.Evaluator) []int {
	t.Helper()
	cons := DefaultConstraints()
	sc := NewScorer(ev, models, space, cons)
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
// traffic, the shared topology and its memo of package shapes, and the
// sweep Scorer's per-model summaries re-priced on the union area must equal,
// in every fidelity.Result field and bit for bit, Params.Eval on
// Params.Build over the full per-layer evaluations of the point's union-kind
// configuration.
// The mix cases include truly mixed points such as mix(8,8), whose
// systolic-array banks the universal graph merges into one node.
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
		sc := NewScorer(ev, tc.models, tc.space, DefaultConstraints())
		got := make([]fidelity.Result, len(tc.models))
		seen := tc.mustSee.IsZero()
		for _, k := range tc.points {
			pt := tc.space.At(k)
			seen = seen || pt.Mix == tc.mustSee
			blk, err := gatherCands(context.Background(), sc, []int{k})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, pt, err)
			}
			if err := st.refine(pt, blk.sums, got); err != nil {
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
		}
		if !seen {
			t.Errorf("%s: %v was not checked", tc.name, tc.mustSee)
		}
	}
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

// shapeKey renders what a package's floorplan and NoC/NoP terms read of it:
// the chiplet count, each chiplet's bank count and the unit-kind host map.
func shapeKey(pkg *fidelity.Package) string {
	banks := make([]int, len(pkg.Chiplets))
	for i, c := range pkg.Chiplets {
		banks[i] = len(c.Banks)
	}
	return fmt.Sprint(len(pkg.Chiplets), banks, fidelity.HostMap(pkg.Chiplets))
}

// TestStage1RealizesEachShapeOnce pins stage 1's memo of package shapes on
// the Table I training set over the fine space and on three networks over
// the mix space. Refining the whole frontier solves one floorplan per
// distinct package shape, as the un-memoized Realize tells the shapes
// apart, and fewer than one per candidate; the refined results are
// bit-identical at one and eight workers; and candidates that share a shape
// each equal Params.Eval on Params.Build over their own full evaluations.
func TestStage1RealizesEachShapeOnce(t *testing.T) {
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	three := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		models []*workload.Model
		space  hw.DesignSpace
	}{
		{"fine/training", workload.TrainingSet(), hw.FineSpace()},
		{"mix/three", three, mix},
	} {
		// A 5 mm^2 die limit splits the larger candidates' arrays across
		// several dies, so the frontier spans about a dozen shapes.
		params := testFidelityParams()
		params.MaxChipletAreaMM2 = 5
		ev := eval.New(eval.Options{Workers: 2})
		cands := scoredFrontier(t, tc.models, tc.space, ev)
		nm := len(tc.models)
		var want []fidelity.Result
		var st *stage1
		for _, workers := range []int{1, 8} {
			evw := eval.New(eval.Options{Workers: workers})
			s, err := newStage1(params, tc.models, tc.space, evw)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			blk, err := gatherCands(ctx, NewScorer(evw, tc.models, tc.space, DefaultConstraints()), cands)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, errs := s.refineAll(ctx, blk, evw)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("%s %v: %v", tc.name, tc.space.At(cands[j]), err)
				}
			}
			if want == nil {
				want, st = got, s
				continue
			}
			for x := range got {
				if f := diffResultBits(got[x], want[x]); f != "" {
					t.Fatalf("%s %v %s: %s differs between 1 and %d workers", tc.name,
						tc.space.At(cands[x/nm]), tc.models[x%nm].Name, f, workers)
				}
			}
			if a, b := st.topo.Floorplans(), s.topo.Floorplans(); a != b {
				t.Errorf("%s: %d floorplans at 1 worker, %d at %d", tc.name, a, b, workers)
			}
		}

		byShape := make(map[string][]int)
		cfg := st.tmpl
		for j, k := range cands {
			cfg.Point = tc.space.At(k)
			pkg, err := params.Realize(st.topo, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, cfg.Point, err)
			}
			byShape[shapeKey(pkg)] = append(byShape[shapeKey(pkg)], j)
		}
		if got := st.topo.Floorplans(); got != len(byShape) {
			t.Errorf("%s: %d floorplans solved for %d distinct shapes over %d candidates",
				tc.name, got, len(byShape), len(cands))
		}
		if len(byShape) >= len(cands) {
			t.Fatalf("%s: %d candidates in %d shapes; no shape is shared", tc.name, len(cands), len(byShape))
		}
		for _, js := range byShape {
			if len(js) < 2 {
				continue
			}
			for _, j := range js[:2] {
				cfg := hw.NewConfig(tc.space.At(cands[j]), tc.models)
				cfg.Cat = hw.CatalogueOf(tc.space)
				full := fullEvals(t, ev, tc.models, cfg)
				pkg, err := params.Build("oracle", full)
				if err != nil {
					t.Fatalf("%s %v: %v", tc.name, cfg.Point, err)
				}
				for i, e := range full {
					if f := diffResultBits(want[j*nm+i], params.Eval(pkg, e)); f != "" {
						t.Errorf("%s %v %s: memoized %s differs from Build+Eval", tc.name, cfg.Point, tc.models[i].Name, f)
					}
				}
			}
		}
		t.Logf("%s: %d candidates, %d shapes", tc.name, len(cands), len(byShape))
	}
}
