package dse

import (
	"context"
	"fmt"
	"math"

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
// union-kind template configuration, every model's layer traffic on it, and
// the clustered topology they share. Only the point, and with it the bank
// sizes and the analytical totals, differ between candidates.
type stage1 struct {
	params  fidelity.Params
	models  []*workload.Model
	ev      *eval.Evaluator
	tmpl    hw.Config
	traffic [][]ppa.LayerTraffic
	topo    *fidelity.Topology
}

// newStage1 derives each model's traffic from its plan (batch 1 at the
// template's precision, as Evaluate prices it) and clusters the universal
// graph once.
func newStage1(params fidelity.Params, models []*workload.Model, space hw.DesignSpace, ev *eval.Evaluator) (*stage1, error) {
	st := &stage1{params: params, models: models, ev: ev, tmpl: hw.NewConfig(hw.Point{}, models)}
	st.tmpl.Cat = hw.CatalogueOf(space)
	st.traffic = make([][]ppa.LayerTraffic, len(models))
	for i, m := range models {
		st.traffic[i] = ev.Plan(m).Traffic(st.tmpl.Precision, 1)
	}
	topo, err := params.NewTopology("stage 1", []hw.Config{st.tmpl}, st.traffic)
	if err != nil {
		return nil, err
	}
	st.topo = topo
	return st, nil
}

// refine re-scores every model on one point's package into out (one Result
// per model, in model order). The totals come from plan summaries, so no
// engine entry is created.
func (st *stage1) refine(pt hw.Point, out []fidelity.Result) error {
	cfg := st.tmpl
	cfg.Point = pt
	sums := make([]ppa.Summary, len(st.models))
	for i, m := range st.models {
		s, err := st.ev.EvaluateSummary(m, cfg, 1)
		if err != nil {
			return err
		}
		sums[i] = s
	}
	pkg, err := st.params.Realize(st.topo, cfg)
	if err != nil {
		return err
	}
	for i, s := range sums {
		out[i] = st.params.Score(pkg, st.traffic[i], s)
	}
	return nil
}

// RefineSelect runs stage 1 of the multi-fidelity pipeline over an ordered
// candidate list: the analytically slack-feasible dominance frontier, in the
// sweep's (area, index) selection order. The universal graph's traffic and
// its clustering do not depend on the point, so they are built once for all
// candidates. Each candidate is then realized physically on its union-kind
// configuration (die split, floorplan) and every model re-scored from its
// analytical summary with NoC/NoP transfer costs; candidates whose peak
// junction temperature exceeds Params.JunctionLimitC (when positive) are
// rejected. The refined per-model reference is the minimum over the
// surviving candidates, and the winner is the first survivor in selection
// order whose refined latencies pass the latency-slack constraint against it
// — the same discipline the analytical stage applies, at higher fidelity.
// Candidates are refined on the engine's workers into index-addressed slots,
// and rejection and selection walk the slots in candidate order, so the
// result is the same at any worker count. A cancelled ctx aborts the
// refinement with ctx.Err().
func (fo *FidelityOptions) RefineSelect(ctx context.Context, cands []int, models []*workload.Model, space hw.DesignSpace,
	cons Constraints, ev *eval.Evaluator) (int, RefineStats, error) {
	var stats RefineStats
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cands) == 0 {
		return -1, stats, fmt.Errorf("dse: staged selection over an empty frontier")
	}
	if err := ctx.Err(); err != nil {
		return -1, stats, err
	}
	st, err := newStage1(fo.Params, models, space, ev)
	if err != nil {
		return -1, stats, err
	}
	nm := len(models)
	results := make([]fidelity.Result, len(cands)*nm)
	errs := make([]error, len(cands))
	ev.ForEach(len(cands), func(j int) {
		if ctx.Err() != nil {
			return
		}
		errs[j] = st.refine(space.At(cands[j]), results[j*nm:(j+1)*nm])
	})
	if err := ctx.Err(); err != nil {
		return -1, stats, err
	}

	type scored struct {
		idx  int
		lats []float64
		peak float64
	}
	kept := make([]scored, 0, len(cands))
	for j, idx := range cands {
		if errs[j] != nil {
			return -1, stats, errs[j]
		}
		stats.Refined++
		row := make([]float64, nm)
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
			stats.WinnerLatencyS = s.lats
			stats.WinnerPeakTempC = s.peak
			return s.idx, stats, nil
		}
	}
	return -1, stats, fmt.Errorf("dse: no refined frontier candidate meets latency slack %.2f", cons.LatencySlack)
}
