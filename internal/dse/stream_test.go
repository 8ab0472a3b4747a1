package dse

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check/oracle"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// oracleSweep builds a sweep whose summaries come from an oracle matrix:
// point k is hw.Point{SASize: k}, model i is a bare model named "m<i>", and a
// statically infeasible observation carries enough energy to break the
// power-density limit, so the sweep's own meetsStatic rejects it.
func oracleSweep(m oracle.Matrix, slack float64) *sweepState {
	models := make([]*workload.Model, m.Models)
	col := make(map[*workload.Model]int, m.Models)
	for i := range models {
		models[i] = &workload.Model{Name: fmt.Sprintf("m%d", i)}
		col[models[i]] = i
	}
	space := make(hw.PointList, m.Points())
	for k := range space {
		space[k] = hw.Point{SASize: k}
	}
	cons := Constraints{MaxChipAreaMM2: 100, MaxPowerDensityWPerMM2: 1, LatencySlack: slack}
	summary := func(md *workload.Model, c hw.Config) (ppa.Summary, error) {
		o := m.Row(c.Point.SASize)[col[md]]
		s := ppa.Summary{LatencyS: o.LatencyS, AreaMM2: o.AreaMM2}
		if !o.Static {
			s.DynamicPJ = 1e15 // 1 kJ: hundreds of W/mm² on these latencies and areas
		}
		return s, nil
	}
	return newSweepState(context.Background(), &Scorer{
		space: space, models: models, cons: cons, tmpl: make([]hw.Config, m.Models), summary: summary,
	})
}

// runShards drives the sweep's shard loop as ExploreSpaceCtx does, with the
// scheduling left to rng: 1-4 shards, a random chunk size, a random shard
// claiming each chunk, and a random merge order. It returns the merge.
func runShards(rng *rand.Rand, sw *sweepState) merged {
	nShards := 1 + rng.Intn(4)
	chunk := 1 + rng.Intn(sw.n)
	shards := make([]*exploreShard, nShards)
	for lo := 0; lo < sw.n; lo += chunk {
		s := rng.Intn(nShards)
		if shards[s] == nil {
			shards[s] = newExploreShard(sw)
		}
		shards[s].scanChunk(lo, min(lo+chunk, sw.n))
	}
	rng.Shuffle(nShards, func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
	return sw.merge(shards)
}

// TestShardLoopMatchesOracle feeds quantized random candidate sets, with
// per-model static infeasibility, through the sweep's own reduction code —
// scanChunk and merge — under random shard counts, chunk sizes,
// chunk-to-shard claiming and merge orders. The per-model references, the
// whole merged frontier (and with it the winner) and the feasible count must
// equal the brute-force oracle's on every trial.
func TestShardLoopMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260806} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 200; trial++ {
			m, slack := oracle.RandomTrial(rng)
			want := m.Select(slack)
			mg := runShards(rng, oracleSweep(m, slack))
			front := make([]int, 0, len(mg.front.cands))
			for _, c := range mg.front.cands {
				front = append(front, c.idx)
			}
			if mg.err != nil || mg.winner() != want.Winner() || !slices.Equal(front, want.Frontier) ||
				mg.feasible != want.Feasible || !slices.Equal(mg.bestLat, want.Ref) {
				t.Fatalf("seed %d trial %d (%d points x %d models, slack %.2f):\n"+
					"shard loop: winner %d frontier %v feasible %d refs %v err %v\n"+
					"oracle:     winner %d frontier %v feasible %d refs %v",
					seed, trial, m.Points(), m.Models, slack,
					mg.winner(), front, mg.feasible, mg.bestLat, mg.err,
					want.Winner(), want.Frontier, want.Feasible, want.Ref)
			}
		}
	}
}

// TestDominatesValsTieBreaksByIndex unit-tests the dominance relation's
// selection-order guard: treating "no worse on every model" as sufficient
// would prune a candidate with equal area and latencies but a *lower* index,
// exactly the tie the lowest-index rule must keep.
func TestDominatesValsTieBreaksByIndex(t *testing.T) {
	// Two identical candidates: the buggy prune would keep idx 1 and drop
	// idx 0 depending on arrival order, flipping the winner.
	aLats, bLats := []float64{1}, []float64{1}
	if !dominatesVals(1, 0, aLats, 1, 1, bLats) {
		t.Error("lower index with equal area/latency must dominate")
	}
	if dominatesVals(1, 1, bLats, 1, 0, aLats) {
		t.Error("higher index must never dominate an equal lower index")
	}
	// Antisymmetry on a strict partial order: never both ways.
	cLats := []float64{2}
	if dominatesVals(1, 0, aLats, 0.5, 2, cLats) && dominatesVals(0.5, 2, cLats, 1, 0, aLats) {
		t.Error("dominates must be antisymmetric")
	}
}

// TestSweepEvaluatesEachPointOnce pins one kernel evaluation per (point,
// model): on a fresh engine with every summary cached, the sweep misses once
// per pair and hits only when materializing the winner, whose union config
// equals each model's own on models sharing unit kinds.
func TestSweepEvaluatesEachPointOnce(t *testing.T) {
	models := []*workload.Model{workload.NewResNet18(), workload.NewResNet50(), workload.NewVGG16()}
	space := hw.PaperSpace()
	ev := eval.New(eval.Options{Workers: 2})
	if _, err := ExploreSpaceCtx(context.Background(), models, space, DefaultConstraints(), ev,
		&ExploreOptions{Cache: CacheAlways}); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if want := uint64(space.Len() * len(models)); st.Misses != want || st.Hits != uint64(len(models)) {
		t.Errorf("engine saw %d misses and %d hits, want %d misses and %d hits", st.Misses, st.Hits, want, len(models))
	}
}
