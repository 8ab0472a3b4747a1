package dse

import (
	"fmt"
	"math"
	"math/rand"
)

// selCand is an in-memory candidate for the randomized selection self-check:
// the brute-force side keeps everything, the streaming side feeds these
// through the production frontier.
type selCand struct {
	idx  int
	area float64
	lats []float64
}

// SelectionSelfCheck exercises the streaming sweep's pruning primitives —
// dominatesVals, slackOK and the sorted dominance frontier — on randomized
// candidate sets and cross-checks the selected winner against a brute-force
// selection that keeps everything. Each trial draws a candidate set with
// deliberately quantized areas and latencies (so area ties and equal-latency
// edges are common), feeds it through a simulated sharded chunked sweep —
// randomized shard count, random chunk-to-shard interleaving, per-shard
// persistent frontiers with watermark snapshots, chunk-end watermark
// publication, and a randomized final merge order: the exact discipline
// ExploreSpaceCtx runs under — and verifies the merged frontier picks the same
// winner, or agrees that no candidate is slack-feasible. It returns one
// description per violation; an empty slice means the selection invariants
// held on every trial.
//
// This is the randomized soundness arm of the differential validation
// subsystem (internal/check): the dominance and watermark prunes are each
// justified by a monotonicity argument (see DESIGN.md §8), and this check
// keeps those arguments honest against the implementation as it evolves.
func SelectionSelfCheck(seed int64, trials int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for trial := 0; trial < trials; trial++ {
		nModels := 1 + rng.Intn(4)
		nCand := 1 + rng.Intn(60)
		slack := []float64{0, 0.25, 0.5, 1.0}[rng.Intn(4)]

		cands := make([]selCand, nCand)
		for i := range cands {
			lats := make([]float64, nModels)
			for j := range lats {
				// Quantized to multiples of 0.25 so exact ties and exact
				// slack-boundary hits occur often.
				lats[j] = 0.25 * float64(1+rng.Intn(8))
			}
			cands[i] = selCand{
				idx:  i,
				area: 0.5 * float64(1+rng.Intn(12)),
				lats: lats,
			}
		}

		// Brute force: final best-latency reference over every candidate,
		// then min (area, idx) among the slack-feasible.
		bestLat := make([]float64, nModels)
		for j := range bestLat {
			bestLat[j] = math.Inf(1)
		}
		for i := range cands {
			for j, v := range cands[i].lats {
				if v < bestLat[j] {
					bestLat[j] = v
				}
			}
		}
		wantIdx, wantFeasible := -1, 0
		for i := range cands {
			if !slackOK(cands[i].lats, bestLat, slack) {
				continue
			}
			wantFeasible++
			if wantIdx < 0 || cands[i].area < cands[wantIdx].area ||
				(cands[i].area == cands[wantIdx].area && cands[i].idx < cands[wantIdx].idx) {
				wantIdx = i
			}
		}

		gotIdx, gotFront := streamSelect(rng, cands, nModels, slack)
		if gotIdx != wantIdx {
			out = append(out, fmt.Sprintf(
				"trial %d (models=%d cands=%d slack=%.2f): streaming selected idx %d, brute force %d",
				trial, nModels, nCand, slack, gotIdx, wantIdx))
			continue
		}
		// The surviving frontier must stay in (area, idx) selection order and
		// must still contain the winner.
		for i := 1; i < len(gotFront); i++ {
			a, b := &gotFront[i-1], &gotFront[i]
			if a.area > b.area || (a.area == b.area && a.idx >= b.idx) {
				out = append(out, fmt.Sprintf(
					"trial %d: frontier out of selection order at %d: (%.2f,%d) before (%.2f,%d)",
					trial, i, a.area, a.idx, b.area, b.idx))
				break
			}
		}
		// Dominance spot-check on retained pairs: no retained candidate may
		// dominate another retained one (add should have evicted it).
		for i := range gotFront {
			for j := range gotFront {
				if i != j && dominatesVals(gotFront[i].area, gotFront[i].idx, gotFront[i].lats,
					gotFront[j].area, gotFront[j].idx, gotFront[j].lats) {
					out = append(out, fmt.Sprintf(
						"trial %d: retained candidate %d dominates retained %d",
						trial, gotFront[i].idx, gotFront[j].idx))
				}
			}
		}
	}
	return out
}

// selShard is the self-check replica of one reduction shard: the production
// frontier plus the persistent per-shard references ExploreSpaceCtx keeps.
type selShard struct {
	front     frontier
	localBest []float64
	wm        []float64
}

// streamSelect replays ExploreSpaceCtx's sharded merge discipline on an
// in-memory candidate set: random arrival order, random chunk boundaries,
// random chunk-to-shard assignment (modelling dynamic chunk claiming by
// concurrent workers), per-shard persistent frontiers with watermark
// snapshots refreshed at chunk start, chunk-end publication of the shard's
// running bests into the shared watermark, and a final shard merge in random
// order under the exact final references. Returns the selected candidate
// index (-1 when none is feasible) and the merged surviving frontier.
func streamSelect(rng *rand.Rand, cands []selCand, nModels int, slack float64) (int, []selCand) {
	order := rng.Perm(len(cands))
	chunk := 1 + rng.Intn(len(cands))
	nShards := 1 + rng.Intn(4)

	shards := make([]*selShard, nShards)
	for i := range shards {
		sh := &selShard{
			localBest: make([]float64, nModels),
			wm:        make([]float64, nModels),
		}
		sh.front.init(nModels)
		for j := 0; j < nModels; j++ {
			sh.localBest[j] = math.Inf(1)
			sh.wm[j] = math.Inf(1)
		}
		shards[i] = sh
	}
	// shared is the watermark array; sequential chunk processing with
	// chunk-end publication models the atomic min cells (every interleaving
	// of monotone min-updates is equivalent to some sequential order).
	shared := make([]float64, nModels)
	for j := range shared {
		shared[j] = math.Inf(1)
	}

	for lo := 0; lo < len(order); lo += chunk {
		hi := lo + chunk
		if hi > len(order) {
			hi = len(order)
		}
		sh := shards[rng.Intn(nShards)]
		// Chunk start: refresh the effective reference from the shared
		// watermark and the shard's own bests; re-filter on tightening.
		tightened := false
		for j := range sh.wm {
			r := shared[j]
			if sh.localBest[j] < r {
				r = sh.localBest[j]
			}
			if r < sh.wm[j] {
				sh.wm[j] = r
				tightened = true
			}
		}
		if tightened {
			sh.front.filterSlack(sh.wm, slack)
			tightened = false
		}
		for _, oi := range order[lo:hi] {
			c := &cands[oi]
			for j, v := range c.lats {
				if v < sh.localBest[j] {
					sh.localBest[j] = v
					if v < sh.wm[j] {
						sh.wm[j] = v
						tightened = true
					}
				}
			}
			if !slackOK(c.lats, sh.wm, slack) {
				continue
			}
			sh.front.add(c.idx, c.area, c.lats)
		}
		// Chunk end: re-filter when this chunk tightened the reference, then
		// publish the shard's mins.
		if tightened {
			sh.front.filterSlack(sh.wm, slack)
		}
		for j, v := range sh.localBest {
			if v < shared[j] {
				shared[j] = v
			}
		}
	}

	// Final references: exact min over every shard's running bests.
	bestLat := make([]float64, nModels)
	for j := range bestLat {
		bestLat[j] = math.Inf(1)
	}
	for _, sh := range shards {
		for j, v := range sh.localBest {
			if v < bestLat[j] {
				bestLat[j] = v
			}
		}
	}
	// Merge shards in random order — the merged result must not depend on it.
	var front frontier
	front.init(nModels)
	for _, si := range rng.Perm(nShards) {
		sh := shards[si]
		for i := range sh.front.cands {
			fc := &sh.front.cands[i]
			if slackOK(sh.front.latsOf(fc), bestLat, slack) {
				front.add(fc.idx, fc.area, sh.front.latsOf(fc))
			}
		}
	}
	merged := make([]selCand, len(front.cands))
	for i := range front.cands {
		fc := &front.cands[i]
		merged[i] = selCand{idx: fc.idx, area: fc.area,
			lats: append([]float64(nil), front.latsOf(fc)...)}
	}
	for _, c := range merged {
		if slackOK(c.lats, bestLat, slack) {
			return c.idx, merged
		}
	}
	return -1, merged
}
