package dse

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/noc"
	"repro/internal/ppa"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// testFidelityParams mirrors core's default physical-model projection without
// importing core (which imports dse).
func testFidelityParams() fidelity.Params {
	return fidelity.Params{
		NoC:               noc.DefaultNoC(),
		NoP:               noc.DefaultNoP(),
		MaxChipletAreaMM2: 50,
		Cluster: func(n int, edges []louvain.Edge) ([]int, error) {
			res, err := louvain.Cluster(n, edges)
			if err != nil {
				return nil, err
			}
			return res.Community, nil
		},
		Thermal:        thermal.Default(),
		JunctionLimitC: 105,
	}
}

func TestParseFidelityMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FidelityMode
	}{{"", FidelityAnalytical}, {"analytical", FidelityAnalytical}, {"staged", FidelityStaged}} {
		got, err := ParseFidelityMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFidelityMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("mode %v renders empty", got)
		}
	}
	if _, err := ParseFidelityMode("cycle-accurate"); err == nil {
		t.Error("unknown mode must error")
	}
}

// TestAnalyticalFidelityByteIdentity pins the -fidelity=analytical contract:
// explicitly requesting the analytical mode is byte-identical to passing no
// fidelity options at all, at any worker count, and reports zero stage-1 work.
func TestAnalyticalFidelityByteIdentity(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	space := hw.PaperSpace()
	cons := DefaultConstraints()
	for _, workers := range []int{1, 8} {
		base, err := ExploreSpaceCtx(context.Background(), models, space, cons, eval.New(eval.Options{Workers: workers}), nil)
		if err != nil {
			t.Fatal(err)
		}
		opts := &ExploreOptions{
			Fidelity: &FidelityOptions{Mode: FidelityAnalytical, Params: testFidelityParams()},
		}
		got, err := ExploreSpaceCtx(context.Background(), models, space, cons, eval.New(eval.Options{Workers: workers}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canonResult(base), canonResult(got); a != b {
			t.Errorf("workers=%d: analytical fidelity differs from default:\n--- default ---\n%s--- analytical ---\n%s",
				workers, a, b)
		}
		if got.Refined != nil {
			t.Errorf("workers=%d: analytical mode reported stage-1 work: %+v", workers, *got.Refined)
		}
	}
}

// TestStagedDeterministicAcrossWorkers guards the staged pipeline's
// determinism: serial and 8-way staged exploration, whose stage 1 refines
// candidates on the engine's workers, must select byte-identical
// configurations with bit-identical refined scores and report identical
// stage-1 counters (canonResult renders Result.Refined).
func TestStagedDeterministicAcrossWorkers(t *testing.T) {
	cons := DefaultConstraints()
	fo := &FidelityOptions{Mode: FidelityStaged, Params: testFidelityParams()}
	for _, tc := range []struct {
		name   string
		models []*workload.Model
		space  hw.DesignSpace
	}{
		{"paper/AlexNet+ResNet18", []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}, hw.PaperSpace()},
		{"fine/training", workload.TrainingSet(), hw.FineSpace()},
	} {
		var out []string
		for _, workers := range []int{1, 8} {
			r, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, cons, eval.New(eval.Options{Workers: workers}),
				&ExploreOptions{Fidelity: fo})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			out = append(out, canonResult(r))
		}
		if out[0] != out[1] {
			t.Errorf("%s: staged exploration differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s",
				tc.name, out[0], out[1])
		}
	}
}

// TestStagedRefinesFrontierOnly asserts the multi-fidelity budget: stage 1
// evaluates the physical models on exactly the feasible frontier — as many
// candidates as a Selector replaying the space returns (scoredFrontier) —
// never on the full sweep, and so on at most half of any space. On spaces of at least 1000
// points it may refine at most 5% of them (fine × the training set refines
// 288 of 12288); smaller spaces are exempt from that ratio, since their
// frontier is a double-digit share of the space by floor effect alone. It
// clusters once for the whole frontier, since the universal graph's edges do
// not depend on the point, and it scores candidates from uncached summaries:
// a staged exploration on a fresh engine leaves exactly the analytical
// exploration's entries (the sweep's own plus the winner's). The physical
// models run with core's default parameters (testFidelityParams).
func TestStagedRefinesFrontierOnly(t *testing.T) {
	for _, tc := range []struct {
		name   string
		models []*workload.Model
		space  hw.DesignSpace
	}{
		{"paper/AlexNet+ViT-base", []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}, hw.PaperSpace()},
		{"paper/training", workload.TrainingSet(), hw.PaperSpace()},
		{"fine/training", workload.TrainingSet(), hw.FineSpace()},
	} {
		ana := eval.New(eval.Options{Workers: 4})
		if _, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, DefaultConstraints(), ana, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var stats ExploreStats
		var calls atomic.Int64
		params := testFidelityParams()
		cluster := params.Cluster
		params.Cluster = func(n int, edges []louvain.Edge) ([]int, error) {
			calls.Add(1)
			return cluster(n, edges)
		}
		staged := eval.New(eval.Options{Workers: 4})
		fo := &FidelityOptions{Mode: FidelityStaged, Params: params}
		res, err := ExploreSpaceCtx(context.Background(), tc.models, tc.space, DefaultConstraints(), staged,
			&ExploreOptions{Fidelity: fo, Stats: &stats})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		refined := res.Refined.Refined
		if refined == 0 {
			t.Fatalf("%s: staged sweep refined nothing", tc.name)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("%s: %d clustering calls for %d refined candidates, want 1", tc.name, got, refined)
		}
		if a, s := ana.Stats().Entries, staged.Stats().Entries; s != a {
			t.Errorf("%s: staged exploration left %d engine entries, analytical %d", tc.name, s, a)
		}
		if front := scoredFrontier(t, tc.models, tc.space, eval.New(eval.Options{Workers: 1})); refined != len(front) {
			t.Errorf("%s: Refined = %d, want the replayed frontier's %d candidates", tc.name, refined, len(front))
		}
		if refined > stats.Points/2 {
			t.Errorf("%s: stage 1 refined %d of %d points; frontier pruning is not working", tc.name, refined, stats.Points)
		}
		if ratio := float64(refined) / float64(stats.Points); stats.Points >= 1000 && ratio > 0.05 {
			t.Errorf("%s: stage 1 refined %.2f%% of %d points, want <= 5%%", tc.name, 100*ratio, stats.Points)
		}
	}
}

// fullEvals materializes every model's full per-layer evaluation on one
// configuration: the input of fidelity.Params.Build, the oracle stage 1 is
// checked against.
func fullEvals(t *testing.T, ev *eval.Evaluator, models []*workload.Model, cfg hw.Config) []*ppa.Eval {
	t.Helper()
	full := make([]*ppa.Eval, len(models))
	for i, m := range models {
		e, err := ev.Plan(m).EvaluateBatch(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		full[i] = e
	}
	return full
}

// frontierFor returns the brute-force oracle's feasible dominance frontier in
// selection order — the exact candidate list a staged sweep hands to
// RefineSelect.
func frontierFor(t *testing.T, models []*workload.Model, space hw.DesignSpace, cons Constraints, ev *eval.Evaluator) []int {
	t.Helper()
	mat, err := observeSpace(models, space, cons, ev)
	if err != nil {
		t.Fatal(err)
	}
	return mat.Select(cons.LatencySlack).Frontier
}

// TestFeasibleFrontierLeadsWithBest pins the FeasibleFrontier contract the
// search layer depends on: a Selector replaying the paper space returns the
// oracle's slack-feasible frontier, in selection order, led by Best()'s index.
func TestFeasibleFrontierLeadsWithBest(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	space := hw.PaperSpace()
	cons := DefaultConstraints()
	mat, err := observeSpace(models, space, cons, eval.New(eval.Options{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := mat.Select(cons.LatencySlack).Frontier
	sel, _ := replaySelector(mat, cons, 1)
	cands := sel.FeasibleFrontier()
	best, _, ok := sel.Best()
	if !ok || len(cands) == 0 {
		t.Fatal("no feasible candidates on the paper space")
	}
	if cands[0] != best {
		t.Errorf("frontier leads with %d, Best() = %d", cands[0], best)
	}
	if !slices.Equal(cands, want) {
		t.Errorf("selector frontier %v, oracle %v", cands, want)
	}
}

// TestRefineSelectThermalRejection drives the junction-temperature rejection
// and backfill paths deterministically: the limit is placed just below the
// hottest frontier candidate's measured peak, so exactly the candidates at
// that peak are rejected and selection backfills from the survivors.
func TestRefineSelectThermalRejection(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	space := hw.PaperSpace()
	cons := DefaultConstraints()
	ev := eval.New(eval.Options{Workers: 2})
	cands := frontierFor(t, models, space, cons, ev)
	if len(cands) < 2 {
		t.Skipf("frontier too small to exercise backfill: %d candidates", len(cands))
	}

	// Measure each candidate's peak junction temperature directly.
	params := testFidelityParams()
	peaks := make([]float64, len(cands))
	for i, idx := range cands {
		full := fullEvals(t, ev, models, hw.NewConfig(space.At(idx), models))
		pkg, err := params.Build("t", full)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range full {
			if r := params.Eval(pkg, e); r.PeakTempC > peaks[i] {
				peaks[i] = r.PeakTempC
			}
		}
	}
	pMax, pSecond := math.Inf(-1), math.Inf(-1)
	for _, p := range peaks {
		if p > pMax {
			pMax, pSecond = p, pMax
		} else if p > pSecond && p < pMax {
			pSecond = p
		}
	}
	if math.IsInf(pSecond, -1) {
		t.Skipf("all %d frontier candidates share peak %v C; cannot straddle", len(cands), pMax)
	}

	limit := (pMax + pSecond) / 2
	hot := 0
	for _, p := range peaks {
		if p > limit {
			hot++
		}
	}
	params.JunctionLimitC = limit
	fo := &FidelityOptions{Mode: FidelityStaged, Params: params}
	best, stats, err := fo.RefineSelect(context.Background(), cands, models, space, cons, ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ThermalRejected != hot {
		t.Errorf("ThermalRejected = %d, want %d (candidates above %v C)", stats.ThermalRejected, hot, limit)
	}
	if stats.Refined != len(cands) {
		t.Errorf("Refined = %d, want %d", stats.Refined, len(cands))
	}
	for i, idx := range cands {
		if idx == best && peaks[i] > limit {
			t.Errorf("winner %d exceeds the junction limit (%v > %v C)", best, peaks[i], limit)
		}
	}

	// A limit below every peak rejects the whole frontier and must error.
	params.JunctionLimitC = 1
	fo = &FidelityOptions{Mode: FidelityStaged, Params: params}
	if _, _, err := fo.RefineSelect(context.Background(), cands, models, space, cons, ev); err == nil ||
		!strings.Contains(err.Error(), "rejected all") {
		t.Errorf("all-rejected frontier must error, got %v", err)
	}

	// An empty frontier must error without touching the models.
	if _, _, err := fo.RefineSelect(context.Background(), nil, models, space, cons, ev); err == nil {
		t.Error("empty frontier must error")
	}
}
