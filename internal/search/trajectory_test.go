package search

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestSearchTrajectoryPinned pins whole search trajectories. The first four
// rows are the explore benchmark's search shapes: seed 7 at a budget of
// points × models / 20, on fine × the training set and on mixfine × AlexNet,
// ViT-base and ResNet18; their literals were read before the genetic loop
// kept its population's fitness between generations and before
// MixSpace.CoordsOf became a lookup. The mix rows run both strategies on the
// budget-filtered mix preset (MaxSlots 128) × the training set's first four
// networks at seeds 7 and 42, where offspring and neighbors land on dropped
// count tuples (IndexOf returns -1) and the repair draws run; they take a
// quarter of points × models, because at a twentieth calibration spends the
// budget before either strategy starts. The genetic row with a 600-point
// batch on fine visits past its budget inside one generation. Every row runs
// at one and at eight evaluator workers against the same literals, which
// were read before visits scored on the coordinator, before the genetic
// population kept its members' coordinates, worst member and membership
// flags, and before MixSpace.IndexOf read a dense tuple index. A change to
// the strategies' bookkeeping that moved one RNG draw, one comparison or one
// visit would move these counts, the incumbent trajectory or the winner.
func TestSearchTrajectoryPinned(t *testing.T) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[string]struct {
		space  hw.DesignSpace
		models []*workload.Model
		div    int // budget = points × models / div
	}{
		"fine":    {hw.FineSpace(), workload.TrainingSet(), 20},
		"mixfine": {mixfine, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}, 20},
		"mix":     {mix, workload.TrainingSet()[:4], 4},
	}
	cases := []struct {
		space, spec                     string
		seed                            int64
		evals, hits, unique, evalsToWin int
		improvements, feasible          int
		area                            string // Trace.BestAreaMM2, shortest round-trip form
		point                           string
	}{
		{"fine", "anneal", 7, 7969, 2201, 613, 4589, 14, 153, "625.21656", "32x32 SAx64 ACTx64 POOLx16"},
		{"fine", "genetic", 7, 7969, 1554, 613, 7293, 7, 185, "625.21656", "32x32 SAx64 ACTx64 POOLx16"},
		{"mixfine", "anneal", 7, 16575, 9482, 5525, 6354, 23, 2269, "108.10487999999998", "mix(0,48) ACTx32 POOLx16"},
		{"mixfine", "genetic", 7, 16575, 197190, 5525, 4371, 12, 995, "108.10487999999998", "mix(0,48) ACTx32 POOLx16"},
		{"mix", "anneal", 7, 1020, 344, 255, 644, 3, 48, "192.0768", "mix(0,64) ACTx64 POOLx32"},
		{"mix", "anneal", 42, 1020, 266, 255, 472, 1, 51, "192.16032", "mix(0,64) ACTx64 POOLx64"},
		{"mix", "genetic", 7, 1020, 156, 255, 932, 4, 50, "192.03504", "mix(0,64) ACTx64 POOLx16"},
		{"mix", "genetic", 42, 1020, 178, 255, 980, 3, 52, "192.0768", "mix(0,64) ACTx64 POOLx32"},
		{"fine", "genetic:pop=16,batch=600", 7, 7969, 227962, 613, 6071, 5, 124, "631.87032", "24x24 SAx112 ACTx96 POOLx16"},
	}
	cons := dse.DefaultConstraints()
	for _, c := range cases {
		sp := spaces[c.space]
		spec, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("%s on %s, seed %d, %d workers", c.spec, c.space, c.seed, workers)
			opt, err := New(spec, Options{Seed: c.seed, Evaluator: eval.New(eval.Options{Workers: workers})})
			if err != nil {
				t.Fatal(err)
			}
			res, tr, err := opt.Run(context.Background(), sp.models, sp.space, cons, sp.space.Len()*len(sp.models)/sp.div)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			area := strconv.FormatFloat(tr.BestAreaMM2, 'g', -1, 64)
			if tr.Evaluations != c.evals || tr.CacheHits != c.hits || tr.UniquePoints != c.unique || tr.EvalsToWin != c.evalsToWin {
				t.Errorf("%s: evaluations/hits/unique/evals-to-win %d/%d/%d/%d, want %d/%d/%d/%d", name,
					tr.Evaluations, tr.CacheHits, tr.UniquePoints, tr.EvalsToWin, c.evals, c.hits, c.unique, c.evalsToWin)
			}
			if len(tr.Improvements) != c.improvements || res.Feasible != c.feasible {
				t.Errorf("%s: %d improvements, %d feasible; want %d, %d", name,
					len(tr.Improvements), res.Feasible, c.improvements, c.feasible)
			}
			if area != c.area || res.Config.Point.String() != c.point {
				t.Errorf("%s: winner %s at %s mm², want %s at %s mm²", name,
					res.Config.Point, area, c.point, c.area)
			}
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
	br := newBreeder(st, DefaultGeneticParams())
	for _, s := range st.visit([]int{0, 10, 20, 30, 40, 50, 60, 70, 80}) {
		if s >= 0 && st.errs[s] == nil {
			br.add(s)
		}
	}
	br.rank()
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

// TestBreederOfferReplacesFirstWorst pins the kept worst member on ties,
// which the pinned trajectories never produce: an offspring replaces the
// first member of maximal fitness, takes over its membership flag and
// coordinates, and the next offspring replaces the next tied member.
func TestBreederOfferReplacesFirstWorst(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	space := hw.PaperSpace()
	st := newState(context.Background(), eval.New(eval.Options{Workers: 1}), space, models,
		dse.DefaultConstraints(), 7, space.Len()*len(models)/2)
	slots := st.visit([]int{0, 10, 20, 30, 40, 50})
	br := newBreeder(st, DefaultGeneticParams())
	for _, s := range slots[:4] {
		br.add(s)
	}
	br.rank()
	inf := math.Inf(1)
	copy(br.fit, []float64{1, inf, inf, 2})
	br.findWorst()
	coords := make([]int, len(st.card))
	for n, s := range slots[4:] {
		br.offer(s)
		if w := 1 + n; br.pop[w] != s || !br.member(s) || br.member(slots[w]) {
			t.Fatalf("offer %d: population %v, want slot %d in place of member %d", n, br.pop, s, w)
		}
		st.cs.CoordsOf(st.pts[s], coords)
		if w := 1 + n; !slices.Equal(br.coords[w*br.dims:(w+1)*br.dims], coords) {
			t.Fatalf("offer %d: member %d keeps coordinates %v, want %v", n, w, br.coords[w*br.dims:(w+1)*br.dims], coords)
		}
	}
	if br.pop[0] != slots[0] || br.pop[3] != slots[3] {
		t.Fatalf("population %v: a member that was not the worst was replaced", br.pop)
	}
}

// TestCoordinatorAllocs pins a generation of repeats off the heap: breeding
// an offspring allocates nothing, on the budget-filtered mix preset where
// offspring are repaired too, and neither does a visit whose candidates are
// all scored already.
func TestCoordinatorAllocs(t *testing.T) {
	space, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	models := workload.TrainingSet()[:4]
	st := newState(context.Background(), eval.New(eval.Options{Workers: 1}), space, models,
		dse.DefaultConstraints(), 7, space.Len()*len(models)/4)
	st.visit(st.seedPoints())
	br := newBreeder(st, DefaultGeneticParams())
	for s := range st.pts {
		br.add(s)
	}
	br.rank()
	if st.err != nil || len(br.pop) < 2 {
		t.Fatalf("founded %d members, error %v", len(br.pop), st.err)
	}
	if n := testing.AllocsPerRun(1000, func() { br.offspring() }); n != 0 {
		t.Errorf("breeder.offspring allocates %v times per call, want 0", n)
	}
	scored := append([]int(nil), st.pts...)
	hits := st.hits
	if n := testing.AllocsPerRun(100, func() { st.visit(scored) }); n != 0 {
		t.Errorf("a visit of scored points allocates %v times, want 0", n)
	}
	if st.hits == hits || len(st.pts) != len(scored) {
		t.Fatalf("the visits scored %d new points and hit the memo %d times; want only hits", len(st.pts)-len(scored), st.hits-hits)
	}
}
