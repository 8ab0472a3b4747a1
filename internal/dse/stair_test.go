package dse

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// shadowRow is a held row of the brute-force shadow of a frontier.
type shadowRow struct {
	row
	lats []float64
}

// shadowSkyline is the brute-force frontier of the shadow's rows: every row
// no other row dominates, in (area, index) order.
func shadowSkyline(rows []shadowRow) []row {
	var out []row
	for _, b := range rows {
		dominated := false
		for _, a := range rows {
			dominated = dominated || dominatesVals(a.area, a.idx, a.lats, b.area, b.idx, b.lats)
		}
		if !dominated {
			out = append(out, b.row)
		}
	}
	slices.SortFunc(out, func(a, b row) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	return out
}

// shadowDiff describes the first difference between a frontier and its
// shadow — the lead, the held count and the frontier skyline returns — or
// returns "". On one model it also checks the staircase: rows in strictly
// increasing (area, index) order with strictly falling latencies, equal to
// the frontier itself, and the rows' and band's latencies together equal to
// the shadow's.
func shadowDiff(f *frontier, shadow []shadowRow) string {
	if f.held() != len(shadow) {
		return fmt.Sprintf("holds %d rows, shadow %d", f.held(), len(shadow))
	}
	if len(shadow) > 0 {
		lead := shadow[0].row
		for _, r := range shadow {
			if r.before(lead) {
				lead = r.row
			}
		}
		if len(f.rows) == 0 || f.rows[f.lead] != lead {
			return fmt.Sprintf("lead at %d of %v, want %v", f.lead, f.rows, lead)
		}
	}
	front, err := f.skyline(context.Background())
	if want := shadowSkyline(shadow); err != nil || !slices.Equal(front, want) {
		return fmt.Sprintf("frontier %v (%v), want %v", front, err, want)
	}
	if f.stride > 1 {
		return ""
	}
	for i := 1; i < len(f.rows); i++ {
		if !f.rows[i-1].before(f.rows[i]) || f.lats[i-1] <= f.lats[i] {
			return fmt.Sprintf("staircase breaks at %d: %v %v then %v %v", i, f.rows[i-1], f.lats[i-1], f.rows[i], f.lats[i])
		}
	}
	if !slices.Equal(f.rows, front) {
		return fmt.Sprintf("staircase %v, frontier %v", f.rows, front)
	}
	held, want := slices.Concat(f.lats, f.band), make([]float64, len(shadow))
	for i, r := range shadow {
		want[i] = r.lats[0]
	}
	slices.Sort(held)
	slices.Sort(want)
	if !slices.Equal(held, want) {
		return fmt.Sprintf("staircase and band hold latencies %v, shadow %v", held, want)
	}
	return ""
}

// TestFrontierMatchesShadow is the differential test of the frontier's one
// row layout on one, two and three models: random streams go through add,
// filterSlack and absorb (of a second frontier fed the same way), each step
// mirrored on a brute-force shadow that holds every row in a plain list.
// Areas and latencies are quantized to a few values and point indices
// arrive in random order, so the streams hold area ties, latency ties and
// equal rows at different indices. After every step the lead, the held
// count and the frontier must match the shadow's, and on one model the
// staircase must hold (shadowDiff).
func TestFrontierMatchesShadow(t *testing.T) {
	var tieRejects, runEvicts int
	for _, models := range []int{1, 2, 3} {
		for _, seed := range []int64{1, 7, 42, 20260806} {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 100; trial++ {
				levels := 2 + rng.Intn(8)
				quant := func() float64 { return float64(1 + rng.Intn(levels)) }
				quants := func() []float64 {
					v := make([]float64, models)
					for i := range v {
						v[i] = quant()
					}
					return v
				}
				perm := rng.Perm(400)
				next := 0
				// feed adds one random row to a frontier and its shadow.
				feed := func(f *frontier, shadow *[]shadowRow) {
					r, lats := row{idx: perm[next], area: quant()}, quants()
					next++
					if models == 1 {
						pos := sort.Search(len(f.rows), func(i int) bool { return r.before(f.rows[i]) })
						if pos > 0 && f.lats[pos-1] == lats[0] {
							tieRejects++
						}
					}
					band := len(f.band)
					f.add(r.idx, r.area, lats)
					if len(f.band) >= band+2 {
						runEvicts++
					}
					*shadow = append(*shadow, shadowRow{r, lats})
				}
				var f frontier
				var shadow []shadowRow
				f.init(models)
				for step := 0; step < 80; step++ {
					op := "add"
					switch r := rng.Intn(20); {
					case r < 16:
						feed(&f, &shadow)
					case r < 18:
						op = "filterSlack"
						ref, slack := quants(), []float64{0, 0.25, 1}[rng.Intn(3)]
						f.filterSlack(ref, slack)
						shadow = slices.DeleteFunc(shadow, func(r shadowRow) bool { return !slackOK(r.lats, ref, slack) })
					default:
						op = "absorb"
						var o frontier
						var oShadow []shadowRow
						o.init(models)
						for range rng.Intn(12) {
							feed(&o, &oShadow)
						}
						if d := shadowDiff(&o, oShadow); d != "" {
							t.Fatalf("%d models, seed %d trial %d step %d: absorbed frontier: %s", models, seed, trial, step, d)
						}
						f.absorb(&o)
						shadow = append(shadow, oShadow...)
					}
					if d := shadowDiff(&f, shadow); d != "" {
						t.Fatalf("%d models, seed %d trial %d step %d (%s): %s", models, seed, trial, step, op, d)
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
