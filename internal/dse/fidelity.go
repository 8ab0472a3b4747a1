package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// FidelityMode selects the evaluation pipeline of a design-space exploration.
type FidelityMode int

const (
	// FidelityAnalytical is the single-stage default: selection uses the
	// closed-form per-model summaries only. Byte-identical to the historical
	// behavior at any worker count.
	FidelityAnalytical FidelityMode = iota
	// FidelityStaged adds a second stage: the analytical sweep's surviving
	// dominance frontier is re-scored with placement-aware NoP hops, NoC/NoP
	// transfer latency and a compact-thermal junction-temperature check, and
	// the winner is chosen from the refined scores (DESIGN.md §10).
	FidelityStaged
)

// String renders the mode as its CLI flag value.
func (m FidelityMode) String() string {
	if m == FidelityStaged {
		return "staged"
	}
	return "analytical"
}

// ParseFidelityMode parses a -fidelity flag value.
func ParseFidelityMode(s string) (FidelityMode, error) {
	switch s {
	case "", "analytical":
		return FidelityAnalytical, nil
	case "staged":
		return FidelityStaged, nil
	default:
		return FidelityAnalytical, fmt.Errorf("dse: unknown fidelity mode %q (want analytical or staged)", s)
	}
}

// FidelityOptions couples the mode with the physical-model parameters stage 1
// refines against. A nil *FidelityOptions (or the Analytical mode) leaves the
// exploration single-stage.
type FidelityOptions struct {
	Mode   FidelityMode
	Params fidelity.Params
}

// Staged reports whether the options request the two-stage pipeline.
func (fo *FidelityOptions) Staged() bool {
	return fo != nil && fo.Mode == FidelityStaged
}

// RefineStats counts the work of one staged refinement and carries the
// winner's refined scores, so reports can print what selection actually
// compared instead of the analytical numbers (DESIGN.md §10).
type RefineStats struct {
	// Refined is the number of frontier candidates re-scored with the full
	// physical models — the "expensive evaluations" that
	// TestStagedRefinesFrontierOnly holds to ≤5% of a large space.
	Refined int
	// ThermalRejected is how many of them exceeded the junction limit and
	// were rejected (the frontier backfills from the next candidate).
	ThermalRejected int
	// WinnerLatencyS holds the winner's stage-1 refined per-model latencies
	// (analytical + NoC/NoP transfer costs), in model input order. Empty when
	// no winner was selected.
	WinnerLatencyS []float64
	// WinnerPeakTempC is the winner's peak junction temperature from the
	// compact thermal model, in degrees Celsius.
	WinnerPeakTempC float64
}

// stage1 is the candidate-invariant state of one staged refinement: the
// union-kind template configuration and the clustered topology every
// model's layer traffic shares. Only the point, and with it the bank sizes,
// the union area and the analytical totals, differ between candidates.
type stage1 struct {
	tmpl hw.Config
	cat  *hw.Catalogue // tmpl.Catalogue(), resolved once
	topo *fidelity.Topology
}

// newStage1 derives each model's traffic from its plan (batch 1 at the
// template's precision, as Evaluate prices it) and clusters the universal
// graph once.
func newStage1(params fidelity.Params, models []*workload.Model, space hw.DesignSpace, ev *eval.Evaluator) (*stage1, error) {
	st := &stage1{tmpl: hw.NewConfig(hw.Point{}, models)}
	st.tmpl.Cat = hw.CatalogueOf(space)
	st.cat = st.tmpl.Catalogue()
	traffic := make([][]ppa.LayerTraffic, len(models))
	for i, m := range models {
		traffic[i] = ev.Plan(m).Traffic(st.tmpl.Precision, 1)
	}
	topo, err := params.NewTopology("stage 1", []hw.Config{st.tmpl}, traffic)
	if err != nil {
		return nil, err
	}
	st.topo = topo
	return st, nil
}

// refine re-scores every model on one point's package into out (one Result
// per model, in model order) from sums, the models' summaries at the point
// as the sweep's Scorer reads them. A model's summary there prices only its
// own units, so refine first re-prices each one, in place, on the union
// configuration's area, computed once for the point. No engine entry is
// created.
func (st *stage1) refine(pt hw.Point, sums []ppa.Summary, out []fidelity.Result) error {
	cfg := st.tmpl
	cfg.Point = pt
	area := cfg.AreaMM2()
	for i := range sums {
		sums[i] = sums[i].OnArea(st.cat, area)
	}
	return st.topo.Rescore(cfg, sums, out)
}

// candBlock is all stage 1 reads of the sweep: each candidate's point and
// every model's analytical summary there, candidate-major, nm per candidate.
type candBlock struct {
	nm   int
	pts  []hw.Point
	sums []ppa.Summary
}

// refineAll refines every candidate of b on the engine's workers into
// index-addressed slots: b.nm results, in model order, and one error per
// candidate. Workers skip the candidates they claim once ctx is cancelled.
func (st *stage1) refineAll(ctx context.Context, b candBlock, ev *eval.Evaluator) ([]fidelity.Result, []error) {
	nm := b.nm
	results := make([]fidelity.Result, len(b.pts)*nm)
	errs := make([]error, len(b.pts))
	ev.ForEach(len(b.pts), func(j int) {
		if ctx.Err() != nil {
			return
		}
		errs[j] = st.refine(b.pts[j], b.sums[j*nm:(j+1)*nm], results[j*nm:(j+1)*nm])
	})
	return results, errs
}

// gatherCands reads the candidates' points and summaries from sc, in
// candidate order, and stops with ctx.Err() at the first candidate it finds
// ctx cancelled before.
func gatherCands(ctx context.Context, sc *Scorer, cands []int) (candBlock, error) {
	nm := len(sc.models)
	b := candBlock{nm: nm, pts: make([]hw.Point, len(cands)), sums: make([]ppa.Summary, len(cands)*nm)}
	for j, k := range cands {
		if err := ctx.Err(); err != nil {
			return candBlock{}, err
		}
		b.pts[j] = sc.space.At(k)
		for i := 0; i < nm; i++ {
			s, err := sc.Summary(i, k, b.pts[j])
			if err != nil {
				return candBlock{}, err
			}
			b.sums[j*nm+i] = s
		}
	}
	return b, nil
}

// RefineSelect runs stage 1 of the multi-fidelity pipeline over an ordered
// candidate list: the analytically slack-feasible dominance frontier of
// space, in the sweep's (area, index) selection order. It builds the
// sweep's Scorer of models on space, reads the candidates from it and
// refines them, as the sweep's and the search's ending (Selector.Conclude)
// does from theirs. An empty list fails with stage 1's empty-frontier
// error. ctx must be non-nil.
func (fo *FidelityOptions) RefineSelect(ctx context.Context, cands []int, models []*workload.Model, space hw.DesignSpace,
	cons Constraints, ev *eval.Evaluator) (int, RefineStats, error) {
	if len(cands) == 0 {
		return -1, RefineStats{}, errors.New("dse: staged selection over an empty frontier")
	}
	if err := ctx.Err(); err != nil {
		return -1, RefineStats{}, err
	}
	blk, err := gatherCands(ctx, NewScorer(ev, models, space, cons), cands)
	if err != nil {
		return -1, RefineStats{}, err
	}
	return fo.refineBlock(ctx, models, space, cons, cands, blk, ev)
}

// refineBlock is stage 1 over a non-empty candidate list of models on
// space, from blk, the candidates' points and per-model analytical
// summaries as the sweep's or the search's Scorer scored them
// (gatherCands); it reads no Scorer, so the caller can drop its cost tables
// before refinement starts. The universal graph's traffic and its
// clustering do not depend on the point, so they are built once for all
// candidates. Each candidate is then realized physically on its union-kind
// configuration (die split, floorplan) and every model re-scored from its
// summary, re-priced on that configuration's area, with NoC/NoP transfer
// costs (fidelity.Topology.Rescore, which realizes each package shape
// once); candidates whose peak junction temperature exceeds
// Params.JunctionLimitC (when positive) are rejected. The refined per-model
// reference is the minimum over the surviving candidates, and the winner is
// the first survivor in selection order whose refined latencies pass the
// latency-slack constraint against it — the same discipline the analytical
// stage applies, at higher fidelity. Candidates are refined on the engine's
// workers into index-addressed slots, and rejection and selection walk the
// slots in candidate order, so the result is the same at any worker count.
// A cancelled ctx aborts the refinement with ctx.Err().
func (fo *FidelityOptions) refineBlock(ctx context.Context, models []*workload.Model, space hw.DesignSpace,
	cons Constraints, cands []int, blk candBlock, ev *eval.Evaluator) (int, RefineStats, error) {
	var stats RefineStats
	st, err := newStage1(fo.Params, models, space, ev)
	if err != nil {
		return -1, stats, err
	}
	nm := len(models)
	results, errs := st.refineAll(ctx, blk, ev)
	if err := ctx.Err(); err != nil {
		return -1, stats, err
	}

	type scored struct {
		idx  int
		lats []float64
		peak float64
	}
	kept := make([]scored, 0, len(cands))
	lats := make([]float64, len(cands)*nm) // the refined latencies, candidate-major
	for j, idx := range cands {
		if errs[j] != nil {
			return -1, stats, errs[j]
		}
		stats.Refined++
		row := lats[j*nm : (j+1)*nm]
		peak := 0.0
		for i, r := range results[j*nm : (j+1)*nm] {
			row[i] = r.LatencyS
			if r.PeakTempC > peak {
				peak = r.PeakTempC
			}
		}
		if fo.Params.JunctionLimitC > 0 && peak > fo.Params.JunctionLimitC {
			stats.ThermalRejected++
			continue
		}
		kept = append(kept, scored{idx: idx, lats: row, peak: peak})
	}
	if len(kept) == 0 {
		return -1, stats, fmt.Errorf("dse: staged selection rejected all %d frontier candidates: peak junction temperature exceeds %.0f C",
			stats.Refined, fo.Params.JunctionLimitC)
	}
	ref := make([]float64, nm)
	for i := range ref {
		ref[i] = math.Inf(1)
	}
	for _, s := range kept {
		for i, l := range s.lats {
			if l < ref[i] {
				ref[i] = l
			}
		}
	}
	for _, s := range kept {
		if slackOK(s.lats, ref, cons.LatencySlack) {
			stats.WinnerLatencyS = slices.Clone(s.lats) // not a window that keeps the block alive
			stats.WinnerPeakTempC = s.peak
			return s.idx, stats, nil
		}
	}
	return -1, stats, fmt.Errorf("dse: no refined frontier candidate meets latency slack %.2f", cons.LatencySlack)
}
