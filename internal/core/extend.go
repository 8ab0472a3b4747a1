package core

import (
	"fmt"

	"repro/internal/jaccard"
	"repro/internal/workload"
)

// ExtendOutcome reports how a new algorithm was accommodated by an existing
// chiplet library — the time-to-market workflow the paper motivates: reuse a
// hardened configuration when one fits, synthesize a new library member only
// when none does.
type ExtendOutcome struct {
	Algorithm string
	// Reused is true when an existing library configuration covers the
	// algorithm and meets the latency constraint: zero new silicon NRE.
	Reused bool
	// SubsetIndex points at the serving subset (existing when reused, newly
	// appended otherwise).
	SubsetIndex int
	Similarity  float64
	// AddedNREUSD is the new configuration's absolute NRE (0 when reused);
	// AddedNRE is the same normalized to the generic configuration.
	AddedNREUSD float64
	AddedNRE    float64
	// PPA is the algorithm's evaluation on its serving configuration.
	PPA *ModelPPA
}

// Extend accommodates a new algorithm in a trained library. Candidate
// configurations must cover 100% of the algorithm's layers; among them the
// most profile-similar one is checked against the paper's latency constraint
// (L <= (1+slack) * L_custom, with L_custom from a fresh custom DSE). When
// it passes, the algorithm rides the existing hardened chiplets — the reuse
// path: pre-designed, pre-verified, immediate deployment. Otherwise a fresh
// library configuration is synthesized, appended to the training result, and
// its NRE reported as the cost of the library gap.
func (tr *TrainResult) Extend(m *workload.Model, o Options) (*ExtendOutcome, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if tr.SubsetOf(m.Name) >= 0 {
		return nil, fmt.Errorf("core: %s is already served by the library", m.Name)
	}
	// Reuse the training engine when available so evolution shares the
	// plans and designs cached while the library was trained.
	if o.Evaluator == nil {
		o.Evaluator = tr.Options.Evaluator
	}
	o.Evaluator = o.Engine()

	prof := jaccard.ProfileOfModel(m)
	best, bestSim := -1, -1.0
	for k, s := range tr.Subsets {
		if !s.Library.Config.Supports(m) {
			continue
		}
		if sim := o.Similarity.Similarity(prof, s.Rep); sim > bestSim {
			best, bestSim = k, sim
		}
	}
	if best >= 0 {
		mp, err := o.EvalModel(tr.Subsets[best].Library, m)
		if err != nil {
			return nil, err
		}
		// The paper's latency constraint, applied to the reuse decision:
		// the hardened configuration must stay within (1+slack) of a
		// bespoke design's latency.
		cust, err := exploreOne(m, o)
		if err != nil {
			return nil, err
		}
		if mp.Compute.LatencyS <= (1+o.Constraints.LatencySlack)*cust.Evals[0].LatencyS {
			tr.Subsets[best].Members = append(tr.Subsets[best].Members, m.Name)
			return &ExtendOutcome{
				Algorithm: m.Name, Reused: true,
				SubsetIndex: best, Similarity: bestSim, PPA: mp,
			}, nil
		}
	}

	// No fit: synthesize a new library configuration for the algorithm.
	r, err := exploreOne(m, o)
	if err != nil {
		return nil, fmt.Errorf("core: extending library for %s: %w", m.Name, err)
	}
	name := fmt.Sprintf("C%d", len(tr.Subsets)+1)
	d, err := o.BuildDesign(name, r)
	if err != nil {
		return nil, err
	}
	d.NRE = d.NREUSD / tr.Generic.NREUSD
	sub := Subset{
		Name:    name,
		Members: []string{m.Name},
		Library: d,
		Rep:     prof,
	}
	tr.Subsets = append(tr.Subsets, sub)
	return &ExtendOutcome{
		Algorithm: m.Name, Reused: false,
		SubsetIndex: len(tr.Subsets) - 1, Similarity: bestSim,
		AddedNREUSD: d.NREUSD, AddedNRE: d.NRE,
		PPA: d.PerModel[m.Name],
	}, nil
}
