package core

import (
	"fmt"

	"repro/internal/workload"
)

// TauPoint is one subset-formation threshold sample (ablation D2).
type TauPoint struct {
	Tau     float64
	Subsets int
	// MeanBenefit averages the training NRE benefit over multi-member
	// subsets (1.0 when every subset is a singleton).
	MeanBenefit float64
	// MaxSubsetSize is the largest subset cardinality.
	MaxSubsetSize int
}

// SweepTau retrains subset formation and library synthesis across similarity
// thresholds, returning one point per tau. It reuses one set of custom
// configurations (they do not depend on tau).
func SweepTau(models []*workload.Model, o Options, taus []float64) ([]TauPoint, error) {
	if len(taus) == 0 {
		return nil, fmt.Errorf("core: empty tau sweep")
	}
	// One engine for the whole sweep: the custom configurations do not depend
	// on tau, so every retraining after the first finds their designs, and
	// the models' plans, in the engine's cache. The first tau runs alone to
	// warm the cache; the rest fan out over the engine's workers and
	// assemble in input order, so the output is identical to the serial
	// sweep at any worker count.
	o.Evaluator = o.Engine()
	out := make([]TauPoint, len(taus))
	errs := make([]error, len(taus))
	runTau := func(i int) {
		oo := o
		oo.Similarity.Tau = taus[i]
		tr, err := Train(models, oo)
		if err != nil {
			errs[i] = fmt.Errorf("core: tau %.2f: %w", taus[i], err)
			return
		}
		pt := TauPoint{Tau: taus[i], Subsets: len(tr.Subsets), MeanBenefit: 1}
		var sum float64
		var n, maxSize int
		for _, s := range tr.Subsets {
			if len(s.Members) > maxSize {
				maxSize = len(s.Members)
			}
			if len(s.Members) < 2 {
				continue
			}
			_, _, ben := s.NREBenefit(tr.Customs)
			sum += ben
			n++
		}
		if n > 0 {
			pt.MeanBenefit = sum / float64(n)
		}
		pt.MaxSubsetSize = maxSize
		out[i] = pt
	}
	runTau(0)
	if errs[0] != nil {
		return nil, errs[0]
	}
	o.Evaluator.ForEach(len(taus)-1, func(i int) { runTau(i + 1) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SlackPoint is one latency-constraint sample (ablation D4).
type SlackPoint struct {
	Slack     float64
	AreaMM2   float64
	LatencyMS float64
	Feasible  int
}

// SweepSlack re-runs the custom DSE for one algorithm across latency-slack
// values, exposing the area/latency knee the constraint trades along.
func SweepSlack(m *workload.Model, o Options, slacks []float64) ([]SlackPoint, error) {
	if len(slacks) == 0 {
		return nil, fmt.Errorf("core: empty slack sweep")
	}
	// One engine for the whole sweep: the slack constraint is applied after
	// scoring, so every re-sweep reads the same plan and a winner already
	// materialized hits the engine's cache. Warm the cache on the first
	// slack, then fan the rest out over the engine's workers, assembling in
	// input order.
	o.Evaluator = o.Engine()
	out := make([]SlackPoint, len(slacks))
	errs := make([]error, len(slacks))
	runSlack := func(i int) {
		oo := o
		oo.Constraints.LatencySlack = slacks[i]
		r, err := exploreOne(m, oo)
		if err != nil {
			errs[i] = fmt.Errorf("core: slack %.2f: %w", slacks[i], err)
			return
		}
		out[i] = SlackPoint{
			Slack:     slacks[i],
			AreaMM2:   r.Config.AreaMM2(),
			LatencyMS: r.Evals[0].LatencyS * 1e3,
			Feasible:  r.Feasible,
		}
	}
	runSlack(0)
	if errs[0] != nil {
		return nil, errs[0]
	}
	o.Evaluator.ForEach(len(slacks)-1, func(i int) { runSlack(i + 1) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
