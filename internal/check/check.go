// Package check is CLAIRE's differential-validation and invariant subsystem:
// tier-1 infrastructure that cross-checks the analytical PPA models
// (internal/ppa) against the cycle-level systolic oracle (internal/systolic)
// and enforces metamorphic invariants over the analytical equations and the
// DSE selection machinery (internal/dse).
//
// The paper's headline claim rests on the analytical models agreeing with
// cycle-level simulation (Section IV); as the reproduction grows
// perf-focused layers (memoized engines, precomputed plans, streaming
// sweeps), this package is the safety net that keeps the fast paths honest.
// Run executes nine check families and returns a Report:
//
//  1. Weight-stationary fold cross-validation: the analytical fold/stream
//     decomposition against an independently coded first-principles
//     reference (group enumeration + tile walking) and against the
//     group-decomposition metamorphic relation fold(l) = g x fold(l/g).
//  2. Analytical-vs-oracle timing differential: every compute layer's
//     ppa latency and execution count against systolic.Bank arithmetic on
//     the reference decomposition.
//  3. Output-stationary plan cross-validation: PlanLayerOS sanity, group
//     decomposition, and MAC capacity.
//  4. PE-exact tile sampling: randomly sampled weight/activation tiles run
//     through the cycle-accurate Array/OSArray simulators, checked for
//     functional exactness against a by-definition matmul and for cycle
//     agreement with the fold-timing formulas.
//  5. Metamorphic invariants over the analytical models: batch monotonicity
//     and weight-amortization direction, area additivity across banks,
//     latency non-increase under bank growth, leakage recomputation, and
//     summary/full bit-identity.
//  6. Selection soundness: quantized random candidate sets, with per-model
//     static infeasibility, fed through dse.Selector must reproduce the
//     brute-force selection oracle's (internal/check/oracle) winner,
//     slack-feasible frontier and feasible count.
//  7. Catalogue differentials: the config-loaded chiplet catalogue against
//     the legacy constant tables (literal copies), SAFor recomputation,
//     serialization round-trips, mix area/leakage additivity and latency
//     monotonicity, single-type-mix/homogeneous latency identity, and
//     cross-catalogue eval cache-key separation.
//  8. Budgeted search: the metaheuristic layer (internal/search) against the
//     selection oracle over each space's full observation matrix — seed
//     determinism across worker counts, budget-ledger exactness,
//     optimality-gap bounds against the oracle winner's area, and an
//     exhaustive fallback that returns the oracle's winner and feasible count
//     over the whole space.
//  9. Multi-fidelity selection: the staged pipeline (DESIGN.md §10) against
//     a full-fidelity re-derivation through the selection oracle on
//     sub-spaces, analytical byte-identity across worker counts,
//     junction-temperature rejection honesty, per-chiplet NoC hop charging,
//     and the analytical-vs-simulated NoC transfer differential under
//     contention.
//
// The oracles under test are injectable (Options.AnalyticalFolds, PlanOS,
// CompareDataflows) so the harness's own tests can re-introduce historical
// bugs — the grouped-Conv1d fold drop, the depthwise movement overcount —
// and prove the harness catches them.
package check

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// Violation is one failed cross-check, with enough context to reproduce it.
type Violation struct {
	Section string // check family that failed
	Model   string // model under check ("" for model-free checks)
	Layer   string // offending layer ("" for whole-model checks)
	Config  string // offending configuration ("SASize=32", a point string, ...)
	Detail  string // what disagreed, with both sides' values
}

// String renders the violation on one line.
func (v Violation) String() string {
	var sb strings.Builder
	sb.WriteString(v.Section)
	for _, part := range []string{v.Model, v.Layer, v.Config} {
		if part != "" {
			sb.WriteString(" | ")
			sb.WriteString(part)
		}
	}
	sb.WriteString(": ")
	sb.WriteString(v.Detail)
	return sb.String()
}

// maxStoredViolations caps the violations retained per section so a
// systematically broken kernel (every layer x every size) cannot balloon the
// report; Failed still counts every one.
const maxStoredViolations = 16

// Section is the outcome of one check family.
type Section struct {
	Name   string
	Checks int // individual comparisons performed
	Failed int // comparisons that disagreed
	// Violations holds the first maxStoredViolations failures in detail.
	Violations []Violation
}

// Report is the outcome of a full differential-validation run.
type Report struct {
	Sections []Section
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Failed() == 0 }

// Checks returns the total number of comparisons performed.
func (r *Report) Checks() int {
	n := 0
	for _, s := range r.Sections {
		n += s.Checks
	}
	return n
}

// Failed returns the total number of violations (including ones past the
// per-section storage cap).
func (r *Report) Failed() int {
	n := 0
	for _, s := range r.Sections {
		n += s.Failed
	}
	return n
}

// Violations returns every stored violation across sections.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, s := range r.Sections {
		out = append(out, s.Violations...)
	}
	return out
}

// String renders the report: one summary line per section, then the stored
// violations, then the verdict line `claire -selfcheck` prints.
func (r *Report) String() string {
	var sb strings.Builder
	for _, s := range r.Sections {
		fmt.Fprintf(&sb, "%-28s %6d checks, %d violations\n", s.Name, s.Checks, s.Failed)
	}
	for _, s := range r.Sections {
		for _, v := range s.Violations {
			fmt.Fprintf(&sb, "  VIOLATION %s\n", v)
		}
		if extra := s.Failed - len(s.Violations); extra > 0 {
			fmt.Fprintf(&sb, "  ... and %d more in %s\n", extra, s.Name)
		}
	}
	if r.OK() {
		fmt.Fprintf(&sb, "selfcheck OK: %d checks, 0 violations\n", r.Checks())
	} else {
		fmt.Fprintf(&sb, "selfcheck FAILED: %d of %d checks violated\n", r.Failed(), r.Checks())
	}
	return sb.String()
}

// collector accumulates one section's outcome.
type collector struct {
	s Section
}

func newCollector(name string) *collector { return &collector{s: Section{Name: name}} }

// check records one comparison; on failure the violation is stored (up to the
// cap) and counted. Returns ok for callers that want to skip dependent checks.
func (c *collector) check(ok bool, model, layer, config, format string, args ...any) bool {
	c.s.Checks++
	if !ok {
		c.s.Failed++
		if len(c.s.Violations) < maxStoredViolations {
			c.s.Violations = append(c.s.Violations, Violation{
				Section: c.s.Name, Model: model, Layer: layer, Config: config,
				Detail: fmt.Sprintf(format, args...),
			})
		}
	}
	return ok
}

// Options tunes a validation run. The zero value selects the full default
// sweep: all 19 paper networks plus the synthetic grouped-stress model, every
// SA size of the paper space, and the production fold planners.
type Options struct {
	// Models are the networks to validate; nil selects the paper's training
	// and test sets plus workload.NewGroupedStress().
	Models []*workload.Model
	// SASizes are the array dimensions to cross-validate; nil selects the
	// paper space's SASizes axis.
	SASizes []int
	// NSAs are the bank sizes the timing differential schedules folds onto;
	// nil selects the paper space's NSAs axis.
	NSAs []int
	// Seed drives tile sampling and the randomized selection trials.
	Seed int64
	// Tiles is the number of PE-exact tile samples (default 24).
	Tiles int
	// Trials is the number of randomized selection trials (default 128).
	Trials int
	// Batches are the batch sizes for the batch-monotonicity invariants
	// (default 1, 2, 3, 8).
	Batches []int
	// Catalogue is the chiplet catalogue the catalogue family validates
	// (nil: the built-in default). The legacy-constant differential only
	// runs against the default; everything else runs against this one.
	Catalogue *hw.Catalogue

	// AnalyticalFolds overrides the weight-stationary fold decomposition
	// under test (default ppa.Folds). Injectable so the harness's own tests
	// can re-introduce historical bugs and prove they are caught.
	AnalyticalFolds func(l workload.Layer, size int) (folds, streams int64)
	// PlanOS overrides the output-stationary planner under test (default
	// systolic.PlanLayerOS).
	PlanOS func(l workload.Layer, size int) systolic.FoldPlan
	// CompareDataflows overrides the WS/OS dataflow comparison under test
	// (default systolic.Compare).
	CompareDataflows func(l workload.Layer, size, n int) (ws, os systolic.DataflowCost)
}

// fill resolves defaults in place.
func (o *Options) fill() {
	if o.Models == nil {
		o.Models = append(workload.TrainingSet(), workload.TestSet()...)
		o.Models = append(o.Models, workload.NewGroupedStress())
	}
	if o.SASizes == nil {
		o.SASizes = hw.PaperSpace().SASizes
	}
	if o.NSAs == nil {
		o.NSAs = hw.PaperSpace().NSAs
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Tiles == 0 {
		o.Tiles = 24
	}
	if o.Trials == 0 {
		o.Trials = 128
	}
	if o.Batches == nil {
		o.Batches = []int{1, 2, 3, 8}
	}
	if o.AnalyticalFolds == nil {
		o.AnalyticalFolds = ppaFolds
	}
	if o.PlanOS == nil {
		o.PlanOS = systolic.PlanLayerOS
	}
	if o.CompareDataflows == nil {
		o.CompareDataflows = systolic.Compare
	}
}

// Run executes the full differential-validation sweep.
func Run(o Options) *Report {
	o.fill()
	r := &Report{}
	r.Sections = append(r.Sections,
		checkWSFolds(&o),
		checkTimingDifferential(&o),
		checkOSPlans(&o),
		checkPEExact(&o),
		checkInvariants(&o),
		checkSelection(&o),
		checkCatalogue(&o),
		checkSearch(&o),
		checkFidelity(&o),
	)
	return r
}
