package dse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// absorbScan is frontier.absorb with every insertion through the general
// scan.
func absorbScan(f, o *frontier) {
	for i := range o.cands {
		oc := &o.cands[i]
		f.addScan(oc.idx, oc.area, o.latsOf(oc))
	}
	f.band = append(f.band, o.band...)
}

// frontierDiff describes the first difference between two one-model
// frontiers — candidates in order (offsets included), their latency rows,
// the band rows in order, the free list and both peaks — or returns "".
func frontierDiff(a, b *frontier) string {
	switch {
	case !slices.Equal(a.cands, b.cands):
		return fmt.Sprintf("candidates %v, want %v", a.cands, b.cands)
	case !slices.Equal(a.band, b.band):
		return fmt.Sprintf("band %v, want %v", a.band, b.band)
	case !slices.Equal(a.free, b.free):
		return fmt.Sprintf("free list %v, want %v", a.free, b.free)
	case a.peak != b.peak || a.peakBand != b.peakBand:
		return fmt.Sprintf("peaks %d/%d, want %d/%d", a.peak, a.peakBand, b.peak, b.peakBand)
	}
	for i := range a.cands {
		if !slices.Equal(a.latsOf(&a.cands[i]), b.latsOf(&b.cands[i])) {
			return fmt.Sprintf("candidate %d latencies %v, want %v", i, a.latsOf(&a.cands[i]), b.latsOf(&b.cands[i]))
		}
	}
	return ""
}

// TestStairMatchesScan is the differential test of one-model insertion:
// random one-model streams go through add, which takes the staircase path
// on one model, and through addScan, the general scan, as the oracle. Areas
// and latencies are quantized to a few values and point indices arrive in
// random order, so the streams hold area ties, latency ties and equal
// (area, latency) rows at different indices. filterSlack and absorb (of a
// second pair of frontiers fed the same way) are interleaved with the
// insertions. After every step both frontiers must hold the same candidates
// in order with the same latency rows, the same band rows in order, the
// same free list and the same peaks, so ExploreStats.MaxRetained and MaxBand
// read the same either way. The staircase's own invariant — latencies
// falling strictly along the frontier — is checked as well.
func TestStairMatchesScan(t *testing.T) {
	var tieRejects, runEvicts int
	for _, seed := range []int64{1, 7, 42, 20260806} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 200; trial++ {
			levels := 2 + rng.Intn(8)
			quant := func() float64 { return float64(1 + rng.Intn(levels)) }
			perm := rng.Perm(400)
			next := 0
			// feed adds one random row to a frontier pair.
			feed := func(stair, scan *frontier) {
				idx, area, lat := perm[next], quant(), quant()
				next++
				pos := scan.insertionPoint(idx, area)
				if pos > 0 && scan.lats[scan.cands[pos-1].off] == lat {
					tieRejects++
				}
				before := len(scan.cands)
				stair.add(idx, area, []float64{lat})
				scan.addScan(idx, area, []float64{lat})
				if len(scan.cands) < before {
					runEvicts++
				}
			}
			var stair, scan frontier
			stair.init(1)
			scan.init(1)
			for step := 0; step < 80; step++ {
				op := "add"
				switch r := rng.Intn(20); {
				case r < 16:
					feed(&stair, &scan)
				case r < 18:
					op = "filterSlack"
					ref := []float64{quant()}
					slack := []float64{0, 0.25, 1}[rng.Intn(3)]
					stair.filterSlack(ref, slack)
					scan.filterSlack(ref, slack)
				default:
					op = "absorb"
					var oStair, oScan frontier
					oStair.init(1)
					oScan.init(1)
					for range rng.Intn(12) {
						feed(&oStair, &oScan)
					}
					if d := frontierDiff(&oStair, &oScan); d != "" {
						t.Fatalf("seed %d trial %d step %d: absorbed frontier: %s", seed, trial, step, d)
					}
					stair.absorb(&oStair)
					absorbScan(&scan, &oScan)
				}
				if d := frontierDiff(&stair, &scan); d != "" {
					t.Fatalf("seed %d trial %d step %d (%s): %s", seed, trial, step, op, d)
				}
				for i := 1; i < len(stair.cands); i++ {
					if a, b := stair.latsOf(&stair.cands[i-1])[0], stair.latsOf(&stair.cands[i])[0]; a <= b {
						t.Fatalf("seed %d trial %d step %d: latencies %v then %v along the frontier", seed, trial, step, a, b)
					}
				}
			}
		}
	}
	if tieRejects == 0 || runEvicts == 0 {
		t.Fatalf("%d tie rejections and %d multi-row evictions; the streams lost their teeth", tieRejects, runEvicts)
	}
}

// BenchmarkSelectCustomsFine times the one-model selections of a Table I
// training run alone: for each of the 13 training networks, a fresh
// Selector observes the network's scores over the fine space in 512-point
// batches, as a one-worker sweep's shard observes a custom target's
// projection of each chunk. The scores are computed before the timer
// starts.
func BenchmarkSelectCustomsFine(b *testing.B) {
	space := hw.FineSpace()
	models := workload.TrainingSet()
	cons := DefaultConstraints()
	sc := NewScorer(eval.New(eval.Options{Workers: 1}), models, space, cons)
	n := space.Len()
	idxs := make([]int, n)
	areas, lats, statics := make([][]float64, len(models)), make([][]float64, len(models)), make([][]bool, len(models))
	for i := range models {
		areas[i], lats[i], statics[i] = make([]float64, n), make([]float64, n), make([]bool, n)
		for k := 0; k < n; k++ {
			s, err := sc.Summary(i, k, space.At(k))
			if err != nil {
				b.Fatal(err)
			}
			idxs[k] = k
			areas[i][k], lats[i][k], statics[i][k] = s.AreaMM2, s.LatencyS, cons.MeetsStatic(s.AreaMM2, s.PowerDensity())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := range models {
			sel := NewSelector(1, cons)
			for lo := 0; lo < n; lo += 512 {
				hi := min(lo+512, n)
				sel.ObserveBatch(idxs[lo:hi], areas[i][lo:hi], lats[i][lo:hi], statics[i][lo:hi], nil)
			}
			if _, _, ok := sel.Best(); !ok {
				b.Fatalf("%s: no feasible point", models[i].Name)
			}
		}
	}
}
