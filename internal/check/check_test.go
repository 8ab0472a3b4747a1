package check

import (
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/ppa"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// TestSelfCheckCleanOnDefaults is the tier-1 acceptance gate: the full
// default sweep — all 19 paper networks plus the grouped-stress model, every
// SA size and bank count of the paper space — must report zero violations,
// and every family must run exactly its pinned number of checks, so a family
// that silently loses checks fails here.
func TestSelfCheckCleanOnDefaults(t *testing.T) {
	r := Run(Options{})
	if !r.OK() {
		t.Fatalf("selfcheck not clean:\n%s", r)
	}
	want := map[string]int{
		"ws-folds": 19935, "ppa-differential": 51606, "os-dataflow": 53103,
		"pe-exact": 218, "invariants": 800, "selection": 384,
		"catalogue": 572, "search": 64, "fidelity": 48,
	}
	if len(r.Sections) != len(want) {
		t.Errorf("got %d sections, want %d", len(r.Sections), len(want))
	}
	for _, s := range r.Sections {
		if s.Checks != want[s.Name] {
			t.Errorf("section %s ran %d checks, want %d", s.Name, s.Checks, want[s.Name])
		}
	}
	if r.Checks() != 126730 {
		t.Errorf("selfcheck ran %d checks, want 126730", r.Checks())
	}
}

// stressOnly keeps negative tests fast: the synthetic grouped model alone
// exercises every grouped code path the injected bugs break.
func stressOnly() []*workload.Model {
	return []*workload.Model{workload.NewGroupedStress()}
}

// sectionFailed returns the failure count of a named section.
func sectionFailed(t *testing.T, r *Report, name string) int {
	t.Helper()
	for _, s := range r.Sections {
		if s.Name == name {
			return s.Failed
		}
	}
	t.Fatalf("no section %q in report", name)
	return 0
}

func ceilDivT(a, b int64) int64 { return (a + b - 1) / b }

// TestCatchesConv1dGroupsBug re-introduces the historical PlanLayerOS bug —
// Conv1d planning that ignores l.Groups entirely, so a grouped layer's folds
// and reduction depth are computed as if the convolution were dense — and
// proves the harness flags it. This is the committed negative test required
// by the validation subsystem's acceptance criteria.
func TestCatchesConv1dGroupsBug(t *testing.T) {
	buggy := func(l workload.Layer, size int) systolic.FoldPlan {
		if l.Kind != workload.Conv1d || l.Groups <= 1 {
			return systolic.PlanLayerOS(l, size)
		}
		// The pre-fix code path: no per-group channel truncation, no group
		// fold multiplier.
		s := int64(size)
		folds := ceilDivT(int64(l.OFMX), s) * ceilDivT(int64(l.NOFM), s)
		if l.ActiveCopies > 1 {
			folds *= int64(l.ActiveCopies)
		}
		return systolic.FoldPlan{Folds: folds, Streams: int64(l.KX) * int64(l.NIFM), Size: size}
	}
	r := Run(Options{Models: stressOnly(), Tiles: 1, Trials: 1, PlanOS: buggy})
	if n := sectionFailed(t, r, "os-dataflow"); n == 0 {
		t.Fatalf("harness missed the Conv1d groups bug:\n%s", r)
	}
	if !strings.Contains(r.String(), "CONV1D") && !strings.Contains(r.String(), "g1d") {
		t.Errorf("violations do not name the grouped Conv1d layer:\n%s", r)
	}
}

// TestCatchesGroupedFoldDrop re-introduces a weight-stationary planner that
// treats every grouped convolution as dense (no per-group truncation) and
// proves the fold cross-validation flags it.
func TestCatchesGroupedFoldDrop(t *testing.T) {
	buggy := func(l workload.Layer, size int) (int64, int64) {
		if l.Groups > 1 {
			dense := l
			dense.Groups = 1
			return ppa.Folds(dense, size)
		}
		return ppa.Folds(l, size)
	}
	r := Run(Options{Models: stressOnly(), Tiles: 1, Trials: 1, AnalyticalFolds: buggy})
	if n := sectionFailed(t, r, "ws-folds"); n == 0 {
		t.Fatalf("harness missed the dense-grouped fold bug:\n%s", r)
	}
}

// TestCatchesMovementOvercount re-introduces the historical wsMoved bug —
// activation re-streaming tiled over the full NOFM instead of the per-group
// NOFM/g — and proves the dataflow movement differential flags it.
func TestCatchesMovementOvercount(t *testing.T) {
	buggy := func(l workload.Layer, size, n int) (ws, os systolic.DataflowCost) {
		ws, os = systolic.Compare(l, size, n)
		if l.Kind != workload.Linear && l.Groups > 1 {
			ct := ceilDivT(int64(l.NOFM), int64(size))
			if ct == 0 {
				ct = 1
			}
			ws.Moved = l.Params() + l.InputElems()*ct + l.OutputElems()
		}
		return ws, os
	}
	r := Run(Options{Models: stressOnly(), Tiles: 1, Trials: 1, CompareDataflows: buggy})
	if n := sectionFailed(t, r, "os-dataflow"); n == 0 {
		t.Fatalf("harness missed the depthwise movement overcount:\n%s", r)
	}
}

// staticBlind is a broken selector: it tells dse.Selector that every model is
// statically feasible, so infeasible latencies tighten the reference and
// infeasible points compete for selection.
type staticBlind struct{ *dse.Selector }

func (s staticBlind) Observe(idx int, area float64, lats []float64, statics []bool) {
	all := make([]bool, len(statics))
	for i := range all {
		all[i] = true
	}
	s.Selector.Observe(idx, area, lats, all)
}

// TestSelectionCatchesStaticBlindSelector proves family 6 catches a selector
// that ignores per-model static feasibility, and that its accounting never
// reports more failures than checks.
func TestSelectionCatchesStaticBlindSelector(t *testing.T) {
	col := newCollector("selection")
	selectionTrials(col, 1, 128, func(nModels int, cons dse.Constraints) selector {
		return staticBlind{dse.NewSelector(nModels, cons)}
	})
	if col.s.Failed == 0 {
		t.Fatalf("family 6 missed a static-blind selector in %d checks", col.s.Checks)
	}
	if col.s.Checks != 3*128 || col.s.Failed > col.s.Checks {
		t.Errorf("checks/failed = %d/%d, want 384 checks and no more failures than checks",
			col.s.Checks, col.s.Failed)
	}
}

// TestReportRendering pins the report format: per-section summary lines, the
// verdict line, stored violation detail, and the overflow marker past the
// per-section cap.
func TestReportRendering(t *testing.T) {
	clean := &Report{Sections: []Section{{Name: "ws-folds", Checks: 10}}}
	if got := clean.String(); !strings.Contains(got, "selfcheck OK: 10 checks, 0 violations") {
		t.Errorf("clean verdict missing:\n%s", got)
	}
	s := Section{Name: "ws-folds", Checks: 100, Failed: maxStoredViolations + 5}
	for i := 0; i < maxStoredViolations; i++ {
		s.Violations = append(s.Violations, Violation{
			Section: "ws-folds", Model: "M", Layer: "conv", Config: "SASize=16", Detail: "boom",
		})
	}
	bad := &Report{Sections: []Section{s}}
	out := bad.String()
	for _, want := range []string{
		"selfcheck FAILED: 21 of 100 checks violated",
		"VIOLATION ws-folds | M | conv | SASize=16: boom",
		"... and 5 more in ws-folds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if bad.OK() {
		t.Error("report with failures claims OK")
	}
	if got := len(bad.Violations()); got != maxStoredViolations {
		t.Errorf("stored violations = %d, want %d", got, maxStoredViolations)
	}
}

// TestCollectorCapsStorage verifies the collector counts every failure but
// stores only the first maxStoredViolations.
func TestCollectorCapsStorage(t *testing.T) {
	col := newCollector("x")
	for i := 0; i < maxStoredViolations+10; i++ {
		col.check(false, "m", "l", "c", "fail %d", i)
	}
	col.check(true, "m", "l", "c", "never")
	if col.s.Checks != maxStoredViolations+11 || col.s.Failed != maxStoredViolations+10 {
		t.Errorf("checks/failed = %d/%d", col.s.Checks, col.s.Failed)
	}
	if len(col.s.Violations) != maxStoredViolations {
		t.Errorf("stored = %d, want %d", len(col.s.Violations), maxStoredViolations)
	}
}
