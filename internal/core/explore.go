package core

// The framework's one funnel for design-space optimization: every phase —
// per-model custom DSE, the generic configuration, per-subset library
// configurations, test-phase assignment and library extension — explores
// through Explore, so Options.Search switches the whole pipeline between
// the exhaustive streaming sweep and the budgeted metaheuristic layer.

import (
	"context"

	"repro/internal/dse"
	"repro/internal/search"
	"repro/internal/workload"
)

// SearchOptions routes every design-space exploration through the budgeted
// metaheuristic layer (internal/search) instead of the exhaustive streaming
// sweep. Results remain deterministic for a fixed seed at any worker count;
// a budget covering the whole space falls back to the exhaustive sweep, so
// the setting degrades gracefully on small spaces.
type SearchOptions struct {
	// Spec selects and parameterizes the strategy (see search.ParseSpec).
	Spec search.Spec
	// Budget is the evaluation budget in point x model summary-evaluation
	// units, per exploration (0: the search layer's default of 5% of the
	// space, floor 64 points).
	Budget int
	// Seed drives the strategy's random source.
	Seed int64
}

// Explore runs one multi-model design-space optimization (Algorithm 1:
// models x design space x Input #4 constraints -> the minimum-area feasible
// configuration) under the options' space, constraints, search policy,
// fidelity, evaluator and context. It is the single exploration call above
// dse: every pipeline phase and every front end (claire, clairedse, claired)
// explores through it. progress, when non-nil, receives the exhaustive
// sweep's cumulative scan counts (see dse.ExploreOptions.Progress); the
// budgeted search reports none. The search trace is nil for the exhaustive
// sweep.
func Explore(models []*workload.Model, o Options, progress func(done, total int)) (dse.Result, *search.Trace, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Analytical mode leaves the fidelity options nil: the sweep's
	// zero-overhead single-stage path.
	var fo *dse.FidelityOptions
	if o.Fidelity == dse.FidelityStaged {
		fo = &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: o.FidelityParams()}
	}
	if o.Search == nil {
		res, err := dse.ExploreSpaceCtx(ctx, models, o.Space, o.Constraints, o.Engine(),
			&dse.ExploreOptions{Fidelity: fo, Progress: progress})
		return res, nil, err
	}
	opt, err := search.New(o.Search.Spec, search.Options{Seed: o.Search.Seed, Evaluator: o.Engine(), Fidelity: fo})
	if err != nil {
		return dse.Result{}, nil, err
	}
	res, tr, err := opt.Run(ctx, models, o.Space, o.Constraints, o.Search.Budget)
	if err != nil {
		return dse.Result{}, nil, err
	}
	return res, &tr, nil
}

// exploreOne is Explore for a single model — the custom-configuration DSE.
func exploreOne(m *workload.Model, o Options) (dse.Result, error) {
	res, _, err := Explore([]*workload.Model{m}, o, nil)
	return res, err
}
