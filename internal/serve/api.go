// Package serve turns the CLAIRE library into long-running infrastructure:
// an HTTP/JSON job server (claired) exposing design-space exploration,
// train-phase sweeps and the differential self-check over the existing
// core/dse/search/fidelity layers (DESIGN.md §11).
//
// The package is split along its concerns:
//
//   - api.go: the wire types, request resolution (once, at admission), the
//     coalescing key derived from the resolved options, and the result
//     encodings pinned byte-identical to the equivalent CLI invocation.
//   - job.go: the job manager — bounded queue, worker pool, admission
//     control, request coalescing, refcounted waiter attachment and
//     context-based cancellation.
//   - exec.go: the mapping from an admitted job to the library call that
//     serves it, over one process-lifetime shared evaluation engine.
//   - server.go: the HTTP surface — endpoints, sync waits, NDJSON/SSE
//     progress streaming, /metrics and /healthz.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// Job kinds.
const (
	KindExplore   = "explore"
	KindSweep     = "sweep"
	KindSelfcheck = "selfcheck"
)

// ConstraintsSpec overrides Input #4 limits per request; nil fields keep the
// reproduction defaults.
type ConstraintsSpec struct {
	MaxChipAreaMM2         *float64 `json:"max_chip_area_mm2,omitempty"`
	MaxPowerDensityWPerMM2 *float64 `json:"max_power_density_w_mm2,omitempty"`
	LatencySlack           *float64 `json:"latency_slack,omitempty"`
}

// resolve applies the overrides to the defaults.
func (c *ConstraintsSpec) resolve() dse.Constraints {
	cons := dse.DefaultConstraints()
	if c == nil {
		return cons
	}
	if c.MaxChipAreaMM2 != nil {
		cons.MaxChipAreaMM2 = *c.MaxChipAreaMM2
	}
	if c.MaxPowerDensityWPerMM2 != nil {
		cons.MaxPowerDensityWPerMM2 = *c.MaxPowerDensityWPerMM2
	}
	if c.LatencySlack != nil {
		cons.LatencySlack = *c.LatencySlack
	}
	return cons
}

// ExploreRequest asks for one multi-model design-space optimization — the
// served equivalent of `claire`/`clairedse` exploration: exhaustive streaming
// sweep by default, budgeted metaheuristic search when Search is set, staged
// multi-fidelity selection when Fidelity is "staged".
type ExploreRequest struct {
	// Models names the workloads (workload.ByName); at least one.
	Models []string `json:"models"`
	// Space selects the design space: paper (default), fine, mix, mixfine,
	// or AxBxCxD axis cardinalities (hw.ParseSpaceWith, against the server's
	// catalogue).
	Space string `json:"space,omitempty"`
	// Constraints overrides Input #4 limits.
	Constraints *ConstraintsSpec `json:"constraints,omitempty"`
	// Search selects a budgeted strategy ("anneal", "genetic", with optional
	// :key=val params — search.ParseSpec). Empty: exhaustive sweep.
	Search string `json:"search,omitempty"`
	// Budget is the search evaluation budget (0: the layer's 5% default).
	Budget int `json:"budget,omitempty"`
	// Seed drives the search strategy's random stream.
	Seed int64 `json:"seed,omitempty"`
	// Fidelity is "analytical" (default) or "staged".
	Fidelity string `json:"fidelity,omitempty"`
	// Sync makes the POST wait for the result instead of returning a job id.
	Sync bool `json:"sync,omitempty"`
}

// SweepRequest asks for an ablation sweep: Kind "tau" retrains subset
// formation across similarity thresholds (core.SweepTau), Kind "slack"
// re-runs one model's custom DSE across latency-slack values
// (core.SweepSlack).
type SweepRequest struct {
	Kind string `json:"kind"`
	// Models names the training workloads for a tau sweep; Model names the
	// single algorithm for a slack sweep.
	Models []string `json:"models,omitempty"`
	Model  string   `json:"model,omitempty"`
	// Values are the sweep's tau or slack samples; at least one.
	Values []float64 `json:"values"`
	// Space, Fidelity and Sync behave as in ExploreRequest.
	Space    string `json:"space,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
	Sync     bool   `json:"sync,omitempty"`
}

// SelfcheckRequest runs the differential validation battery (internal/check)
// with the given seed against the server's catalogue.
type SelfcheckRequest struct {
	Seed int64 `json:"seed,omitempty"`
	Sync bool  `json:"sync,omitempty"`
}

// ModelPPA is one model's analytical evaluation on the selected winner.
type ModelPPA struct {
	Model           string  `json:"model"`
	LatencyS        float64 `json:"latency_s"`
	EnergyPJ        float64 `json:"energy_pj"`
	AreaMM2         float64 `json:"area_mm2"`
	PowerDensityWmm float64 `json:"power_density_w_mm2"`
}

// RefinedResult exposes staged fidelity's stage-1 scores (satellite of the
// same PR: the numbers selection actually compared).
type RefinedResult struct {
	Candidates      int       `json:"refined_candidates"`
	ThermalRejected int       `json:"thermal_rejected"`
	WinnerPeakTempC float64   `json:"winner_peak_temp_c"`
	WinnerLatencyS  []float64 `json:"winner_latency_s,omitempty"`
}

// SearchTrace digests the budgeted search accounting for served runs.
type SearchTrace struct {
	Strategy     string  `json:"strategy"`
	Budget       int     `json:"budget"`
	Evaluations  int     `json:"evaluations"`
	UniquePoints int     `json:"unique_points"`
	EvalsToWin   int     `json:"evals_to_win"`
	CacheHits    int     `json:"cache_hits"`
	BestAreaMM2  float64 `json:"best_area_mm2"`
	Fallback     bool    `json:"fallback,omitempty"`
}

// ExploreResult is the served exploration winner. It is built exclusively by
// ExploreResultOf so the server's JSON is byte-identical to what the same
// library call would produce anywhere else — the determinism contract the
// CLI-vs-server tests pin.
type ExploreResult struct {
	Point     string         `json:"point"`
	AreaMM2   float64        `json:"area_mm2"`
	Models    []ModelPPA     `json:"models"`
	Feasible  int            `json:"feasible"`
	Explored  int            `json:"explored"`
	SpaceDesc string         `json:"space_desc"`
	Refined   *RefinedResult `json:"staged_refinement,omitempty"`
	Search    *SearchTrace   `json:"search,omitempty"`
}

// ExploreResultOf projects a dse.Result (and optional search trace) onto the
// wire shape.
func ExploreResultOf(res dse.Result, tr *search.Trace) ExploreResult {
	out := ExploreResult{
		Point:     res.Config.Point.String(),
		AreaMM2:   res.Config.AreaMM2(),
		Feasible:  res.Feasible,
		Explored:  res.Explored,
		SpaceDesc: res.SpaceDesc,
	}
	for _, e := range res.Evals {
		out.Models = append(out.Models, ModelPPA{
			Model:           e.Model.Name,
			LatencyS:        e.LatencyS,
			EnergyPJ:        e.EnergyPJ(),
			AreaMM2:         e.AreaMM2,
			PowerDensityWmm: e.PowerDensity(),
		})
	}
	if r := res.Refined; r != nil {
		out.Refined = &RefinedResult{
			Candidates:      r.Refined,
			ThermalRejected: r.ThermalRejected,
			WinnerPeakTempC: r.WinnerPeakTempC,
			WinnerLatencyS:  r.WinnerLatencyS,
		}
	}
	if tr != nil {
		out.Search = &SearchTrace{
			Strategy:     tr.Strategy,
			Budget:       tr.Budget,
			Evaluations:  tr.Evaluations,
			UniquePoints: tr.UniquePoints,
			EvalsToWin:   tr.EvalsToWin,
			CacheHits:    tr.CacheHits,
			BestAreaMM2:  tr.BestAreaMM2,
			Fallback:     tr.Fallback,
		}
	}
	return out
}

// SweepResult is a served ablation sweep.
type SweepResult struct {
	Kind string `json:"kind"`
	// Tau is set for tau sweeps, Slack for slack sweeps.
	Tau   []TauPoint   `json:"tau,omitempty"`
	Slack []SlackPoint `json:"slack,omitempty"`
}

// TauPoint mirrors core.TauPoint with wire tags.
type TauPoint struct {
	Tau           float64 `json:"tau"`
	Subsets       int     `json:"subsets"`
	MeanBenefit   float64 `json:"mean_benefit"`
	MaxSubsetSize int     `json:"max_subset_size"`
}

// SlackPoint mirrors core.SlackPoint with wire tags.
type SlackPoint struct {
	Slack     float64 `json:"slack"`
	AreaMM2   float64 `json:"area_mm2"`
	LatencyMS float64 `json:"latency_ms"`
	Feasible  int     `json:"feasible"`
}

// SelfcheckResult digests a check.Report.
type SelfcheckResult struct {
	OK         bool     `json:"ok"`
	Checks     int      `json:"checks"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
}

// models resolves workload names to the manager's interned models, building
// each on first use. One *workload.Model per known name for the process
// lifetime matters because the shared evaluator memoizes fingerprints and
// plans by pointer: a fresh model per request would pin one more model, plan
// and winner entry every time. Sharing is safe because models are immutable
// after construction. Unknown names are never stored, so the table is
// bounded by the workload registry.
func (m *Manager) models(names []string) ([]*workload.Model, error) {
	out := make([]*workload.Model, len(names))
	for i, name := range names {
		if md, ok := m.interned.Load(name); ok {
			out[i] = md.(*workload.Model)
			continue
		}
		md, err := workload.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("serve: %w (known: %s)", err, strings.Join(workload.Names(), ", "))
		}
		actual, _ := m.interned.LoadOrStore(name, md)
		out[i] = actual.(*workload.Model)
	}
	return out, nil
}

// options returns the reproduction defaults on the server's catalogue and
// shared engine: the CLI defaults, so served results match the CLIs.
func (m *Manager) options() core.Options {
	o := core.DefaultOptions()
	o.Catalogue = m.cat
	o.Evaluator = m.ev
	return o
}

// resolveExplore resolves an explore request exactly once, at admission:
// model names through the manager's intern table, every string option through
// core.Options.Resolve against the server catalogue. The models and options
// it returns are all the job executes on. Errors are client errors (HTTP
// 400).
func (m *Manager) resolveExplore(req *ExploreRequest) ([]*workload.Model, core.Options, error) {
	if len(req.Models) == 0 {
		return nil, core.Options{}, fmt.Errorf("serve: explore request names no models (known: %s)", strings.Join(workload.Names(), ", "))
	}
	models, err := m.models(req.Models)
	if err != nil {
		return nil, core.Options{}, err
	}
	o := m.options()
	o.Constraints = req.Constraints.resolve()
	if err := o.Resolve(req.Space, req.Search, req.Budget, req.Seed, req.Fidelity); err != nil {
		return nil, core.Options{}, fmt.Errorf("serve: %w", err)
	}
	return models, o, nil
}

// resolveSweep resolves a sweep request exactly once, at admission; see
// resolveExplore.
func (m *Manager) resolveSweep(req *SweepRequest) ([]*workload.Model, core.Options, error) {
	names := req.Models
	switch req.Kind {
	case "tau":
		if len(names) == 0 {
			return nil, core.Options{}, fmt.Errorf("serve: tau sweep names no models")
		}
	case "slack":
		if req.Model == "" {
			return nil, core.Options{}, fmt.Errorf("serve: slack sweep names no model")
		}
		names = []string{req.Model}
	default:
		return nil, core.Options{}, fmt.Errorf("serve: unknown sweep kind %q (want tau or slack)", req.Kind)
	}
	models, err := m.models(names)
	if err != nil {
		return nil, core.Options{}, err
	}
	if len(req.Values) == 0 {
		return nil, core.Options{}, fmt.Errorf("serve: empty sweep values")
	}
	for _, v := range req.Values {
		if v < 0 {
			return nil, core.Options{}, fmt.Errorf("serve: negative sweep value %g", v)
		}
	}
	o := m.options()
	if err := o.Resolve(req.Space, "", 0, 0, req.Fidelity); err != nil {
		return nil, core.Options{}, fmt.Errorf("serve: %w", err)
	}
	return models, o, nil
}

// key builds the canonical identity of a resolved job: two requests with
// equal keys are the same computation and share one execution (DESIGN.md
// §11). It is derived from the resolved options, never the raw strings, so
// spellings that resolve alike coalesce ("Paper" and "paper", "" and
// "analytical", "anneal" and its canonical parameter form, a budget or seed
// on an exhaustive request). It folds in the model content fingerprints in
// input order (Evals follow input order; renames alias, content matters), the
// space description with the catalogue fingerprint, the constraints, the
// fidelity mode, the search spec with its budget and seed when a search
// runs, and any kind-specific extras. Sync does not participate: a
// fire-and-forget job and a waiting one coalesce.
func (m *Manager) key(kind string, models []*workload.Model, o core.Options, extra ...string) string {
	var sb strings.Builder
	sb.WriteString(kind)
	for i, md := range models {
		if i == 0 {
			sb.WriteByte('|')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(m.ev.Fingerprint(md))
	}
	c := o.Constraints
	fmt.Fprintf(&sb, "|space=%s|cat=%s|cons=%s/%s/%s|fidelity=%s",
		o.Space.Desc(), m.cat.Fingerprint(),
		exactFloat(c.MaxChipAreaMM2), exactFloat(c.MaxPowerDensityWPerMM2), exactFloat(c.LatencySlack), o.Fidelity)
	if s := o.Search; s != nil {
		fmt.Fprintf(&sb, "|search=%s|budget=%d|seed=%d", s.Spec, s.Budget, s.Seed)
	}
	for _, e := range extra {
		sb.WriteByte('|')
		sb.WriteString(e)
	}
	return sb.String()
}

// exactFloat renders v in the fewest digits that parse back to v exactly,
// so keys of distinct float values always differ.
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// selfcheckKey is the coalescing key of a selfcheck request.
func selfcheckKey(req *SelfcheckRequest, cat *hw.Catalogue) string {
	return fmt.Sprintf("%s|seed=%d|cat=%s", KindSelfcheck, req.Seed, cat.Fingerprint())
}
