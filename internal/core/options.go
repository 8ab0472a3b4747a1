// Package core orchestrates the CLAIRE analytical framework end to end:
// the training phase (Algorithm 1 — custom, generic and library-synthesized
// configurations; clustering into chiplets; NRE, coverage and utilization
// metrics) and the test phase (configuration assignment and evaluation),
// reproducing the paper's Tables II-VI and Figures 2-4.
package core

import (
	"context"
	"fmt"

	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/jaccard"
	"repro/internal/louvain"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/thermal"
)

// ClusterFunc partitions a weighted graph (n nodes, undirected edges) into
// chiplet communities. The default is Louvain; a greedy bipartition is
// available as the D3 ablation baseline. It aliases the fidelity layer's
// type so Options.Cluster threads straight into fidelity.Params.
type ClusterFunc = fidelity.ClusterFunc

// LouvainCluster is the paper's clustering step.
func LouvainCluster(n int, edges []louvain.Edge) ([]int, error) {
	res, err := louvain.Cluster(n, edges)
	if err != nil {
		return nil, err
	}
	return res.Community, nil
}

// GreedyCluster is the min-cut-style ablation baseline.
func GreedyCluster(n int, edges []louvain.Edge) ([]int, error) {
	return louvain.GreedyBipartition(n, edges)
}

// Options carries every input of the framework (Figure 1's input boxes).
type Options struct {
	// Space is the tunable-hardware design space (Input #2): any lazily
	// indexable hw.DesignSpace — the paper's 81-point spec by default, the
	// fine preset or a custom hw.SpaceSpec for large-space exploration, an
	// explicit hw.PointList, or a heterogeneous hw.MixSpace.
	Space hw.DesignSpace
	// Catalogue is the chiplet catalogue Resolve parses the space against
	// (nil: the built-in 28 nm default, bit-identical to the pre-catalogue
	// constants). Unit PPA everywhere else, chipletization included, comes
	// from the catalogue the space carries (hw.CatalogueOf; none means the
	// default), so Validate rejects a non-nil Catalogue that differs from
	// the space's.
	Catalogue *hw.Catalogue
	// Constraints are the Input #4 limits.
	Constraints dse.Constraints
	// Similarity controls subset formation and test assignment.
	Similarity jaccard.Options
	// NoC and NoP are the Input #5 interconnect characteristics.
	NoC, NoP noc.Params
	// Cost is the Chiplet Actuary NRE model.
	Cost cost.Model
	// MaxChipletAreaMM2 bounds a single die after clustering; oversized
	// communities split their systolic-array bank across several chiplets.
	MaxChipletAreaMM2 float64
	// Cluster partitions design graphs into chiplets. It must be
	// deterministic in (n, edges): staged fidelity calls it once per
	// exploration and reuses the partition for every frontier candidate.
	Cluster ClusterFunc
	// Thermal is the compact package thermal model used to report peak
	// junction temperatures (the physical backing of PD_limit).
	Thermal thermal.Model
	// JunctionLimitC is the temperature budget reported against.
	JunctionLimitC float64
	// Workers caps the evaluation engine's parallelism: 0 means GOMAXPROCS,
	// 1 forces the legacy serial path. Results are identical at any setting
	// (the engine's determinism contract).
	Workers int
	// Evaluator is the shared parallel memoizing evaluation engine. Leave
	// nil to let each top-level entry point build one from Workers; inject
	// one (see Engine) to share the memoization cache across phases.
	Evaluator *eval.Evaluator
	// Search, when non-nil, routes every design-space exploration through
	// the budgeted metaheuristic layer instead of the exhaustive streaming
	// sweep (see explore.go).
	Search *SearchOptions
	// Fidelity selects the evaluation pipeline for every exploration
	// (DESIGN.md §10). The analytical default is byte-identical to the
	// historical single-stage behavior; the staged mode re-scores each
	// exploration's dominance frontier with placement-aware NoC/NoP transfer
	// costs and a junction-temperature check built from the physical options
	// above.
	Fidelity dse.FidelityMode
	// Ctx, when non-nil, bounds every exploration the pipeline runs:
	// cancellation propagates into the streaming sweep's chunk loop, the
	// metaheuristic strategies and staged refinement, so a long run aborts
	// promptly with the context's error. Nil means context.Background().
	// Cancellation never alters results — a run either completes
	// byte-identical to an unbounded one or returns ctx.Err().
	Ctx context.Context
}

// Engine returns the options' evaluation engine, building a fresh one from
// Workers when none was injected. Callers that run several phases (train,
// test, sweeps) should pin the result into Options.Evaluator so every phase
// shares one memoization cache.
func (o Options) Engine() *eval.Evaluator {
	if o.Evaluator != nil {
		return o.Evaluator
	}
	return eval.New(eval.Options{Workers: o.Workers})
}

// DefaultOptions returns the calibrated reproduction defaults.
func DefaultOptions() Options {
	return Options{
		Space:             hw.PaperSpace(),
		Constraints:       dse.DefaultConstraints(),
		Similarity:        jaccard.DefaultOptions(),
		NoC:               noc.DefaultNoC(),
		NoP:               noc.DefaultNoP(),
		Cost:              cost.Default(),
		MaxChipletAreaMM2: 50,
		Cluster:           LouvainCluster,
		Thermal:           thermal.Default(),
		JunctionLimitC:    105,
	}
}

// Resolve parses the exploration settings every front end accepts as
// strings (the claire and clairedse flags, a claired request) into o: the
// design space (hw.ParseSpaceWith against o.Catalogue; "" is the paper
// space), the search strategy with its budget and seed (search.ParseSpec;
// "" keeps the exhaustive sweep, and budget and seed then play no part), and
// the fidelity mode (dse.ParseFidelityMode). It also checks o.Constraints
// and rejects a negative o.Workers.
// This is the one place those strings are parsed: the options plus the model
// list are the resolved request, ready for Explore. On error o is unchanged.
func (o *Options) Resolve(space, searchSpec string, budget int, seed int64, fidelity string) error {
	sp, err := hw.ParseSpaceWith(space, o.Catalogue)
	if err != nil {
		return err
	}
	if budget < 0 {
		return fmt.Errorf("core: negative search budget %d", budget)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	var so *SearchOptions
	if searchSpec != "" {
		spec, err := search.ParseSpec(searchSpec)
		if err != nil {
			return err
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		so = &SearchOptions{Spec: spec, Budget: budget, Seed: seed}
	}
	mode, err := dse.ParseFidelityMode(fidelity)
	if err != nil {
		return err
	}
	if err := o.Constraints.Validate(); err != nil {
		return err
	}
	o.Space, o.Search, o.Fidelity = sp, so, mode
	return nil
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.Space == nil || o.Space.Len() == 0 {
		return fmt.Errorf("core: empty design space")
	}
	if o.Catalogue != nil {
		if err := o.Catalogue.Validate(); err != nil {
			return err
		}
		space := hw.CatalogueOf(o.Space)
		if space == nil {
			space = hw.Default()
		}
		if got, want := o.Catalogue.Fingerprint(), space.Fingerprint(); got != want {
			return fmt.Errorf("core: catalogue %q (%s) differs from the space's catalogue %q (%s); resolve the space against it (Options.Resolve)",
				o.Catalogue.Name, got, space.Name, want)
		}
	}
	if err := o.Constraints.Validate(); err != nil {
		return err
	}
	if err := o.NoC.Validate(); err != nil {
		return err
	}
	if err := o.NoP.Validate(); err != nil {
		return err
	}
	if err := o.Cost.Validate(); err != nil {
		return err
	}
	if o.MaxChipletAreaMM2 <= 0 {
		return fmt.Errorf("core: non-positive chiplet area limit")
	}
	if o.Cluster == nil {
		return fmt.Errorf("core: nil cluster function")
	}
	if err := o.Thermal.Validate(); err != nil {
		return err
	}
	if o.JunctionLimitC <= 0 {
		return fmt.Errorf("core: non-positive junction limit")
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	if o.Search != nil {
		if err := o.Search.Spec.Validate(); err != nil {
			return err
		}
		if o.Search.Budget < 0 {
			return fmt.Errorf("core: negative search budget %d", o.Search.Budget)
		}
	}
	return nil
}
