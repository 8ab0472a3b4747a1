package check

// Metamorphic invariants over the analytical PPA model: properties that must
// hold for every model and configuration by construction of the equations —
// batch monotonicity and weight amortization, area additivity across banks,
// latency non-increase under bank growth, leakage recomputation, and
// bit-identity between the direct, precomputed-plan and summary evaluation
// paths.

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// relTol is the relative slack for comparisons between independently
// accumulated float totals; exact-arithmetic identities use equality.
const relTol = 1e-9

// leq reports a <= b up to relative tolerance.
func leq(a, b float64) bool { return a <= b*(1+relTol)+math.SmallestNonzeroFloat64 }

// computeTotals sums latency and dynamic energy over the compute layers only.
func computeTotals(e *ppa.Eval) (latS, dynPJ float64) {
	for _, le := range e.Layers {
		if le.Layer.Kind.IsCompute() {
			latS += le.LatencyS
			dynPJ += le.EnergyPJ
		}
	}
	return latS, dynPJ
}

// checkInvariants runs the per-model metamorphic invariants at a fixed base
// point, with one axis perturbed at a time.
func checkInvariants(o *Options) Section {
	col := newCollector("invariants")
	base := hw.Point{SASize: 32, NSA: 16, NAct: 16, NPool: 16}
	for _, m := range o.Models {
		models := []*workload.Model{m}
		c := hw.NewConfig(base, models)
		cfg := c.Point.String()
		plan := ppa.NewModelPlan(m)

		// Bit-identity across the three evaluation paths: the direct
		// per-layer evaluator, the precomputed-plan evaluator, and the
		// allocation-lean summary must agree exactly, not approximately.
		direct, err := ppa.Evaluate(m, c)
		if !col.check(err == nil, m.Name, "", cfg, "Evaluate: %v", err) {
			continue
		}
		planned, err := plan.EvaluateBatch(c, 1)
		if !col.check(err == nil, m.Name, "", cfg, "plan.EvaluateBatch: %v", err) {
			continue
		}
		sum, err := plan.Summary(c, 1)
		if !col.check(err == nil, m.Name, "", cfg, "plan.Summary: %v", err) {
			continue
		}
		col.check(direct.Summary == planned.Summary, m.Name, "", cfg,
			"direct and plan evaluation differ: %+v vs %+v", direct.Summary, planned.Summary)
		col.check(planned.Summary == sum, m.Name, "", cfg,
			"plan evaluation and summary differ: %+v vs %+v", planned.Summary, sum)

		// Leakage is a pure recomputation from area and latency.
		wantLeak := hw.LeakageMWPerMM2 * 1e-3 * sum.AreaMM2 * sum.LatencyS * 1e12
		col.check(math.Abs(sum.LeakagePJ-wantLeak) <= relTol*wantLeak, m.Name, "", cfg,
			"leakage %g pJ, recomputed %g pJ", sum.LeakagePJ, wantLeak)

		// Area is additive across the configuration's banks.
		var um2 float64
		for _, b := range c.Banks() {
			um2 += b.AreaUM2()
		}
		col.check(math.Abs(sum.AreaMM2-hw.UM2ToMM2(um2)) <= relTol*sum.AreaMM2, m.Name, "", cfg,
			"area %g mm2, bank sum %g mm2", sum.AreaMM2, hw.UM2ToMM2(um2))

		// Batch monotonicity and amortization. Batched execution streams the
		// whole batch per weight fold: total latency and dynamic energy grow
		// with the batch, but strictly sublinearly on the compute layers
		// (the weight load/drain and weight traffic are paid once).
		compLat1, compDyn1 := computeTotals(planned)
		prev := sum
		for _, b := range o.Batches {
			if b <= 1 {
				continue
			}
			cfgB := fmt.Sprintf("%s batch=%d", cfg, b)
			sb, err := plan.Summary(c, b)
			if !col.check(err == nil, m.Name, "", cfgB, "Summary: %v", err) {
				continue
			}
			col.check(sb.LatencyS > prev.LatencyS, m.Name, "", cfgB,
				"batch latency %g s not above batch %g s", sb.LatencyS, prev.LatencyS)
			col.check(sb.DynamicPJ > prev.DynamicPJ, m.Name, "", cfgB,
				"batch dynamic %g pJ not above %g pJ", sb.DynamicPJ, prev.DynamicPJ)
			col.check(leq(sb.LatencyS, float64(b)*sum.LatencyS), m.Name, "", cfgB,
				"batch latency %g s above %d x single %g s", sb.LatencyS, b, sum.LatencyS)
			col.check(leq(sb.DynamicPJ, float64(b)*sum.DynamicPJ), m.Name, "", cfgB,
				"batch dynamic %g pJ above %d x single %g pJ", sb.DynamicPJ, b, sum.DynamicPJ)
			eb, err := plan.EvaluateBatch(c, b)
			if !col.check(err == nil, m.Name, "", cfgB, "EvaluateBatch: %v", err) {
				continue
			}
			compLatB, compDynB := computeTotals(eb)
			col.check(compLatB < float64(b)*compLat1, m.Name, "", cfgB,
				"weight amortization inverted: compute latency %g s at batch %d, %d x single is %g s",
				compLatB, b, b, float64(b)*compLat1)
			col.check(compDynB < float64(b)*compDyn1, m.Name, "", cfgB,
				"weight traffic not amortized: compute dynamic %g pJ at batch %d, %d x single is %g pJ",
				compDynB, b, b, float64(b)*compDyn1)
			prev = sb
		}

		// Growing any bank count must not increase latency; growing the
		// systolic-array count strictly grows area (the other banks only if
		// the model provisions them).
		for _, ax := range []struct {
			name   string
			point  hw.Point
			strict bool
		}{
			{"NSA", hw.Point{SASize: base.SASize, NSA: 64, NAct: base.NAct, NPool: base.NPool}, true},
			{"NAct", hw.Point{SASize: base.SASize, NSA: base.NSA, NAct: 64, NPool: base.NPool}, false},
			{"NPool", hw.Point{SASize: base.SASize, NSA: base.NSA, NAct: base.NAct, NPool: 64}, false},
		} {
			cg := hw.NewConfig(ax.point, models)
			sg, err := plan.Summary(cg, 1)
			cfgA := fmt.Sprintf("%s -> %s=64", cfg, ax.name)
			if !col.check(err == nil, m.Name, "", cfgA, "Summary: %v", err) {
				continue
			}
			col.check(leq(sg.LatencyS, sum.LatencyS), m.Name, "", cfgA,
				"latency grew from %g s to %g s when %s grew", sum.LatencyS, sg.LatencyS, ax.name)
			if ax.strict {
				col.check(sg.AreaMM2 > sum.AreaMM2, m.Name, "", cfgA,
					"area %g mm2 not above %g mm2 with 4x the arrays", sg.AreaMM2, sum.AreaMM2)
			} else {
				col.check(sg.AreaMM2 >= sum.AreaMM2, m.Name, "", cfgA,
					"area shrank from %g mm2 to %g mm2 when %s grew", sum.AreaMM2, sg.AreaMM2, ax.name)
			}
		}
	}
	return col.s
}
