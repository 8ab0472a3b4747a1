package core

import (
	"fmt"
	"time"

	"repro/internal/jaccard"
	"repro/internal/workload"
)

// Subset is one training subset TR_k with its library configuration C_k.
type Subset struct {
	Name    string   // "C1", "C2", ...
	Members []string // training algorithm names
	Library *DesignPoint
	// Rep is the subset's similarity representative (centroid) used for
	// Step #TT1 assignment.
	Rep jaccard.Profile
}

// NREBenefit returns the Table IV quantities: the cumulative normalized NRE
// of the members' custom configurations, the subset library's normalized NRE
// and their ratio (the paper's "cost benefit").
func (s Subset) NREBenefit(customs map[string]*DesignPoint) (cumulative, lib, benefit float64) {
	for _, name := range s.Members {
		cumulative += customs[name].NRE
	}
	lib = s.Library.NRE
	if lib > 0 {
		benefit = cumulative / lib
	}
	return cumulative, lib, benefit
}

// TrainResult is the output of the training phase: Outputs #TR1-#TR3.
type TrainResult struct {
	Options Options
	// Models are the training algorithms in input order.
	Models []*workload.Model
	// Customs maps algorithm name to its custom configuration C_i.
	Customs map[string]*DesignPoint
	// Generic is the single configuration C_g serving the whole set.
	Generic *DesignPoint
	// Subsets are the library-synthesized configurations C_k in partition
	// order.
	Subsets []Subset
	// Elapsed is the end-to-end convergence time (the paper reports eight
	// minutes for its implementation; this one converges in well under a
	// second).
	Elapsed time.Duration
}

// Train runs the full training phase of Figure 1 over the given algorithms.
func Train(models []*workload.Model, o Options) (*TrainResult, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	// Pin one evaluation engine for the whole phase so every DSE sweep below
	// shares its worker pool and memoization cache.
	o.Evaluator = o.Engine()

	tr := &TrainResult{
		Options: o,
		Models:  models,
		Customs: make(map[string]*DesignPoint, len(models)),
	}

	// Output 1: custom design configurations C_i (Algorithm 1, lines 1-8).
	// Each model's DSE plus clustering/NRE build is independent, so they fan
	// out over the engine's workers; results land in index-addressed slots
	// and the first error in input order wins, so the outcome is identical to
	// the serial loop at any worker count.
	customs := make([]*DesignPoint, len(models))
	cerrs := make([]error, len(models))
	o.Evaluator.ForEach(len(models), func(i int) {
		m := models[i]
		r, err := exploreOne(m, o)
		if err != nil {
			cerrs[i] = err
			return
		}
		customs[i], cerrs[i] = o.BuildDesign("custom:"+m.Name, r)
	})
	for _, err := range cerrs {
		if err != nil {
			return nil, err
		}
	}
	for i, m := range models {
		tr.Customs[m.Name] = customs[i]
	}

	// Output 2: the generic configuration C_g (lines 9-13).
	gr, _, err := Explore(models, o, nil)
	if err != nil {
		return nil, fmt.Errorf("core: generic configuration: %w", err)
	}
	tr.Generic, err = o.BuildDesign("Cg", gr)
	if err != nil {
		return nil, err
	}

	// Output 3: subset formation by weighted Jaccard similarity (line 14)
	// and per-subset library configurations C_k (lines 15-17), one worker per
	// subset, assembled in partition order.
	profiles := make([]jaccard.Profile, len(models))
	for i, m := range models {
		profiles[i] = jaccard.ProfileOfModel(m)
	}
	parts := jaccard.Partition(profiles, o.Similarity)
	subs := make([]Subset, len(parts))
	serrs := make([]error, len(parts))
	o.Evaluator.ForEach(len(parts), func(k int) {
		part := parts[k]
		sub := Subset{Name: fmt.Sprintf("C%d", k+1), Rep: jaccard.Centroid(profiles, part)}
		subModels := make([]*workload.Model, 0, len(part))
		for _, idx := range part {
			sub.Members = append(sub.Members, models[idx].Name)
			subModels = append(subModels, models[idx])
		}
		lr, _, err := Explore(subModels, o, nil)
		if err != nil {
			serrs[k] = fmt.Errorf("core: library configuration %s: %w", sub.Name, err)
			return
		}
		sub.Library, serrs[k] = o.BuildDesign(sub.Name, lr)
		subs[k] = sub
	})
	for _, err := range serrs {
		if err != nil {
			return nil, err
		}
	}
	tr.Subsets = subs

	// Normalize every NRE to the generic configuration (Output #TR3).
	ref := tr.Generic.NREUSD
	if ref <= 0 {
		return nil, fmt.Errorf("core: generic NRE is non-positive")
	}
	tr.Generic.NRE = 1
	for _, d := range tr.Customs {
		d.NRE = d.NREUSD / ref
	}
	for i := range tr.Subsets {
		tr.Subsets[i].Library.NRE = tr.Subsets[i].Library.NREUSD / ref
	}

	tr.Elapsed = time.Since(start)
	return tr, nil
}

// SubsetOf returns the subset index containing the named training algorithm,
// or -1.
func (tr *TrainResult) SubsetOf(name string) int {
	for i, s := range tr.Subsets {
		for _, m := range s.Members {
			if m == name {
				return i
			}
		}
	}
	return -1
}
