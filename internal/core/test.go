package core

import (
	"fmt"

	"repro/internal/dse"
	"repro/internal/jaccard"
	"repro/internal/workload"
)

// Assignment is one test algorithm's Step #TT1 outcome and its metrics.
type Assignment struct {
	Algorithm string
	// SubsetIndex is the index of the assigned library configuration in
	// TrainResult.Subsets; -1 when no library configuration achieves 100%
	// coverage (the paper's "no test set algorithm assigned" situation,
	// mirrored from the configuration side).
	SubsetIndex int
	Similarity  float64
	// Custom is the test algorithm's own custom configuration Ct_i.
	Custom *DesignPoint
	// OnLibrary is the evaluation on the assigned C_k (nil when unassigned);
	// OnGeneric is the evaluation on C_g (for Table V).
	OnLibrary *ModelPPA
	OnGeneric *ModelPPA
}

// TestResult is the output of the test phase: Outputs #TT1-#TT3.
type TestResult struct {
	Models      []*workload.Model
	Assignments []Assignment
}

// Assigned groups assignment indices by subset index.
func (t *TestResult) Assigned() map[int][]int {
	out := make(map[int][]int)
	for i, a := range t.Assignments {
		if a.SubsetIndex >= 0 {
			out[a.SubsetIndex] = append(out[a.SubsetIndex], i)
		}
	}
	return out
}

// SubsetNREBenefit returns the Table VI quantities for one subset: the
// cumulative normalized NRE of the assigned test algorithms' custom
// configurations, the library NRE, and their ratio.
func (t *TestResult) SubsetNREBenefit(tr *TrainResult, subset int) (cumulative, lib, benefit float64) {
	for _, a := range t.Assignments {
		if a.SubsetIndex == subset {
			cumulative += a.Custom.NRE
		}
	}
	lib = tr.Subsets[subset].Library.NRE
	if lib > 0 && cumulative > 0 {
		benefit = cumulative / lib
	}
	return cumulative, lib, benefit
}

// Test runs the test phase against a completed training result: build custom
// configurations Ct_i for every test algorithm, assign each to the most
// similar library configuration that fully covers it, and evaluate the
// composable and performance metrics.
func Test(tr *TrainResult, models []*workload.Model, o Options) (*TestResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: empty test set")
	}
	// Reuse the training phase's engine when the caller doesn't supply one,
	// so the test phase shares its plans, its worker pool and the designs
	// the training phase materialized.
	if o.Evaluator == nil {
		o.Evaluator = tr.Options.Evaluator
	}
	o.Evaluator = o.Engine()
	// Output #TT1: every test algorithm's custom configuration, explored
	// together (one sweep without a search policy); then each algorithm's
	// design and assignment on the engine's workers, into its slot. The
	// first error in input order wins, each algorithm's in the serial
	// order — exploration, design, assignment — so the outcome is identical
	// to a serial loop at any worker count.
	targets := make([][]int, len(models))
	for i := range targets {
		targets[i] = []int{i}
	}
	results, errs := exploreTargets(models, targets, o)
	res := &TestResult{Models: models, Assignments: make([]Assignment, len(models))}
	o.Evaluator.ForEach(len(models), func(i int) {
		if errs[i] == nil {
			res.Assignments[i], errs[i] = o.assign(tr, models[i], results[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// assign builds a test algorithm's custom design from its exploration
// result cr, assigns the algorithm to the most similar library
// configuration that fully covers it (Step #TT1), and evaluates it there and
// on the generic configuration.
func (o Options) assign(tr *TrainResult, m *workload.Model, cr dse.Result) (Assignment, error) {
	a := Assignment{Algorithm: m.Name, SubsetIndex: -1}
	var err error
	a.Custom, err = o.BuildDesign("custom:"+m.Name, cr)
	if err != nil {
		return Assignment{}, err
	}
	a.Custom.NRE = a.Custom.NREUSD / tr.Generic.NREUSD

	// Step #TT1: most similar library configuration with full coverage
	// (the paper requires C_layer = 100%).
	prof := jaccard.ProfileOfModel(m)
	covered := make([]int, 0, len(tr.Subsets))
	reps := make([]jaccard.Profile, 0, len(tr.Subsets))
	for k, s := range tr.Subsets {
		if s.Library.Config.Supports(m) {
			covered = append(covered, k)
			reps = append(reps, s.Rep)
		}
	}
	if len(covered) > 0 {
		pick, sim := jaccard.Assign(prof, reps, o.Similarity)
		a.SubsetIndex = covered[pick]
		a.Similarity = sim
		a.OnLibrary, err = o.EvalModel(tr.Subsets[a.SubsetIndex].Library, m)
		if err != nil {
			return Assignment{}, err
		}
	}

	// Table V companion: utilization (and PPA) on the generic config.
	if tr.Generic.Config.Supports(m) {
		a.OnGeneric, err = o.EvalModel(tr.Generic, m)
		if err != nil {
			return Assignment{}, err
		}
	}
	return a, nil
}
