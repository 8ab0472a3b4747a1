package search

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/noc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// stagedOptions builds the default physical-model projection for staged
// search tests without importing core (which imports this package's sibling).
func stagedOptions() *dse.FidelityOptions {
	return &dse.FidelityOptions{
		Mode: dse.FidelityStaged,
		Params: fidelity.Params{
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
		},
	}
}

// TestSearchStagedDeterminism extends the seed-determinism contract to staged
// fidelity: results, traces and stage-1 counters must be byte-identical at
// 1 and 8 evaluator workers, and stage 1 must actually run.
func TestSearchStagedDeterminism(t *testing.T) {
	space := hw.PaperSpace()
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	budget := space.Len() * len(models) / 4
	spec, err := ParseSpec("anneal")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var traces []Trace
	var refined []*dse.RefineStats
	for _, workers := range []int{1, 8} {
		opt, err := New(spec, Options{
			Seed:      7,
			Evaluator: eval.New(eval.Options{Workers: workers}),
			Fidelity:  stagedOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := opt.Run(context.Background(), models, space, dse.DefaultConstraints(), budget)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out = append(out, canonResult(res))
		traces = append(traces, tr)
		refined = append(refined, res.Refined)
	}
	if out[0] != out[1] {
		t.Errorf("staged search differs across workers\nw1: %s\nw8: %s", out[0], out[1])
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Errorf("staged trace differs across workers\nw1: %+v\nw8: %+v", traces[0], traces[1])
	}
	if !reflect.DeepEqual(refined[0], refined[1]) {
		t.Errorf("stage-1 stats differ across workers\nw1: %+v\nw8: %+v", refined[0], refined[1])
	}
	if refined[0] == nil || refined[0].Refined == 0 {
		t.Fatal("staged search refined nothing")
	}
	if refined[0].Refined > traces[0].UniquePoints {
		t.Errorf("refined %d of %d visited points; frontier pruning is not working",
			refined[0].Refined, traces[0].UniquePoints)
	}
}

// TestSearchStagedFallback pins the fallback interplay: a space-covering
// budget routes through the exhaustive sweep with fidelity threaded, the
// sweep explores the whole space, and the stage-1 counters surface in the
// result.
func TestSearchStagedFallback(t *testing.T) {
	space := hw.PaperSpace()
	models := []*workload.Model{workload.NewAlexNet()}
	spec, err := ParseSpec("genetic")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(spec, Options{
		Seed:      3,
		Evaluator: eval.New(eval.Options{Workers: 4}),
		Fidelity:  stagedOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := opt.Run(context.Background(), models, space, dse.DefaultConstraints(),
		space.Len()*len(models))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Fallback {
		t.Fatal("space-covering budget must fall back to the exhaustive sweep")
	}
	if res.Refined == nil || res.Refined.Refined == 0 {
		t.Error("staged fallback refined nothing")
	}
	if res.Explored != space.Len() {
		t.Errorf("Explored = %d, want the full space %d", res.Explored, space.Len())
	}
}
