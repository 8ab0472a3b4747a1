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
	// Pin one evaluation engine for the whole phase so its exploration and
	// every design build below share its worker pool and memoization cache.
	o.Evaluator = o.Engine()

	tr := &TrainResult{
		Options: o,
		Models:  models,
		Customs: make(map[string]*DesignPoint, len(models)),
	}

	// Subset formation by weighted Jaccard similarity (line 14) reads only
	// the networks, so the subsets are known before any exploration.
	profiles := make([]jaccard.Profile, len(models))
	for i, m := range models {
		profiles[i] = jaccard.ProfileOfModel(m)
	}
	parts := jaccard.Partition(profiles, o.Similarity)

	// Output 1: custom design configurations C_i (Algorithm 1, lines 1-8);
	// Output 2: the generic configuration C_g (lines 9-13); Output 3: the
	// per-subset library configurations C_k (lines 15-17). The selections
	// differ only in which networks they read, so they are explored together
	// (one sweep without a search policy), and each design is built on the
	// engine's workers into its target's slot. The first error in Algorithm
	// 1's order wins — the customs in input order, then the generic, then
	// the subsets in partition order — so the outcome is identical to the
	// serial phases at any worker count.
	nm := len(models)
	targets := make([][]int, 0, nm+1+len(parts))
	names := make([]string, 0, cap(targets))
	all := make([]int, nm)
	for i, m := range models {
		targets = append(targets, []int{i})
		names = append(names, "custom:"+m.Name)
		all[i] = i
	}
	targets = append(targets, all)
	names = append(names, "Cg")
	for k, part := range parts {
		targets = append(targets, part)
		names = append(names, fmt.Sprintf("C%d", k+1))
	}
	results, errs := exploreTargets(models, targets, o)
	for t := nm; t < len(errs); t++ {
		switch {
		case errs[t] == nil:
		case t == nm:
			errs[t] = fmt.Errorf("core: generic configuration: %w", errs[t])
		default:
			errs[t] = fmt.Errorf("core: library configuration %s: %w", names[t], errs[t])
		}
	}
	designs := make([]*DesignPoint, len(targets))
	o.Evaluator.ForEach(len(targets), func(t int) {
		if errs[t] == nil {
			designs[t], errs[t] = o.BuildDesign(names[t], results[t])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, m := range models {
		tr.Customs[m.Name] = designs[i]
	}
	tr.Generic = designs[nm]
	tr.Subsets = make([]Subset, len(parts))
	for k, part := range parts {
		sub := Subset{Name: names[nm+1+k], Library: designs[nm+1+k], Rep: jaccard.Centroid(profiles, part)}
		for _, idx := range part {
			sub.Members = append(sub.Members, models[idx].Name)
		}
		tr.Subsets[k] = sub
	}

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
