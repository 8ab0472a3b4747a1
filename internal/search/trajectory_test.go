package search

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestSearchTrajectoryPinned pins both strategies' whole trajectories on the
// explore benchmark's search shapes: seed 7 at a budget of points × models /
// 20, on fine × the training set and on mixfine × AlexNet, ViT-base and
// ResNet18. The literals were read before the genetic loop kept its
// population's fitness between generations and before MixSpace.CoordsOf
// became a lookup. A change to the strategies' bookkeeping that moved one
// RNG draw, one comparison or one visit would move these counts, the
// incumbent trajectory or the winner.
func TestSearchTrajectoryPinned(t *testing.T) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[string]struct {
		space  hw.DesignSpace
		models []*workload.Model
	}{
		"fine":    {hw.FineSpace(), workload.TrainingSet()},
		"mixfine": {mixfine, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}},
	}
	cases := []struct {
		space, kind                     string
		evals, hits, unique, evalsToWin int
		improvements, feasible          int
		area                            string // Trace.BestAreaMM2, shortest round-trip form
		point                           string
	}{
		{"fine", "anneal", 7969, 2201, 613, 4589, 14, 153, "625.21656", "32x32 SAx64 ACTx64 POOLx16"},
		{"fine", "genetic", 7969, 1554, 613, 7293, 7, 185, "625.21656", "32x32 SAx64 ACTx64 POOLx16"},
		{"mixfine", "anneal", 16575, 9482, 5525, 6354, 23, 2269, "108.10487999999998", "mix(0,48) ACTx32 POOLx16"},
		{"mixfine", "genetic", 16575, 197190, 5525, 4371, 12, 995, "108.10487999999998", "mix(0,48) ACTx32 POOLx16"},
	}
	cons := dse.DefaultConstraints()
	for _, c := range cases {
		sp := spaces[c.space]
		spec, err := ParseSpec(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{Workers: 2})})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := opt.Run(context.Background(), sp.models, sp.space, cons, sp.space.Len()*len(sp.models)/20)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.kind, c.space, err)
		}
		area := strconv.FormatFloat(tr.BestAreaMM2, 'g', -1, 64)
		if tr.Evaluations != c.evals || tr.CacheHits != c.hits || tr.UniquePoints != c.unique || tr.EvalsToWin != c.evalsToWin {
			t.Errorf("%s on %s: evaluations/hits/unique/evals-to-win %d/%d/%d/%d, want %d/%d/%d/%d", c.kind, c.space,
				tr.Evaluations, tr.CacheHits, tr.UniquePoints, tr.EvalsToWin, c.evals, c.hits, c.unique, c.evalsToWin)
		}
		if len(tr.Improvements) != c.improvements || res.Feasible != c.feasible {
			t.Errorf("%s on %s: %d improvements, %d feasible; want %d, %d", c.kind, c.space,
				len(tr.Improvements), res.Feasible, c.improvements, c.feasible)
		}
		if area != c.area || res.Config.Point.String() != c.point {
			t.Errorf("%s on %s: winner %s at %s mm², want %s at %s mm²", c.kind, c.space,
				res.Config.Point, area, c.point, c.area)
		}
	}
}

// TestBreederRefreshFollowsReference pins the genetic loop's fitness memo on
// the path the pinned trajectories never take: on those shapes calibration
// settles the reference before the population is founded. Once the
// selector's reference moves, refresh must leave every member's kept
// fitness equal to what state.fitness returns, or tournaments would rank
// members by a stale reference.
func TestBreederRefreshFollowsReference(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	space := hw.PaperSpace()
	st := newState(context.Background(), eval.New(eval.Options{Workers: 1}), space, models,
		dse.DefaultConstraints(), 7, space.Len()*len(models)/2)
	var pop []int
	for _, s := range st.visit([]int{0, 10, 20, 30, 40, 50, 60, 70, 80}) {
		if s >= 0 && st.errs[s] == nil {
			pop = append(pop, s)
		}
	}
	br := newBreeder(st, DefaultGeneticParams(), pop)
	before := append([]float64(nil), br.fit...)
	// A statically feasible observation far faster than any point lowers
	// the reference, so every scored member falls outside latency slack.
	fast := make([]float64, st.nm)
	for i, r := range st.sel.BestLatencies() {
		fast[i] = r / 100
	}
	st.sel.Observe(space.Len(), 1, fast, []bool{true})
	br.refresh()
	changed := false
	for i, s := range br.pop {
		if want := st.fitness(s); br.fit[i] != want {
			t.Fatalf("member %d: kept fitness %v, state.fitness %v", i, br.fit[i], want)
		}
		changed = changed || br.fit[i] != before[i]
	}
	if !changed {
		t.Fatal("the reference moved but no member's fitness changed; the check lost its teeth")
	}
}
