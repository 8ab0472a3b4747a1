package core

// The framework's one funnel for design-space optimization: every phase —
// per-model custom DSE, the generic configuration, per-subset library
// configurations, test-phase assignment and library extension — explores
// through Explore, or through exploreTargets when it makes several
// selections at once, so Options.Search switches the whole pipeline between
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
// dse for one selection: every front end (claire, clairedse, claired) and
// every phase that explores one selection at a time explores through it,
// and the training and test phases, which make several, explore through
// exploreTargets. progress, when non-nil, receives the exhaustive sweep's
// cumulative scan counts (see dse.ExploreOptions.Progress); the budgeted
// search reports none. The search trace is nil for the exhaustive sweep.
func Explore(models []*workload.Model, o Options, progress func(done, total int)) (dse.Result, *search.Trace, error) {
	if o.Search == nil {
		res, err := dse.ExploreSpaceCtx(o.exploreCtx(), models, o.Space, o.Constraints, o.Engine(),
			&dse.ExploreOptions{Fidelity: o.fidelityOptions(), Progress: progress})
		return res, nil, err
	}
	opt, err := search.New(o.Search.Spec, search.Options{Seed: o.Search.Seed, Evaluator: o.Engine(), Fidelity: o.fidelityOptions()})
	if err != nil {
		return dse.Result{}, nil, err
	}
	res, tr, err := opt.Run(o.exploreCtx(), models, o.Space, o.Constraints, o.Search.Budget)
	if err != nil {
		return dse.Result{}, nil, err
	}
	return res, &tr, nil
}

// exploreTargets runs one exploration per target, a target being a list of
// indices into models, into index-addressed slots: each target's Result and
// error are what Explore returns for the models it names, in its order.
// Without a search policy one sweep scores every model once per point and
// selects every target from the same scores (dse.ExploreTargetsCtx); with
// one, each target runs its own budgeted search, on the engine's workers.
func exploreTargets(models []*workload.Model, targets [][]int, o Options) ([]dse.Result, []error) {
	o.Evaluator = o.Engine()
	if o.Search == nil {
		return dse.ExploreTargetsCtx(o.exploreCtx(), models, targets, o.Space, o.Constraints, o.Evaluator,
			&dse.ExploreOptions{Fidelity: o.fidelityOptions()})
	}
	res, errs := make([]dse.Result, len(targets)), make([]error, len(targets))
	o.Evaluator.ForEach(len(targets), func(t int) {
		ms := make([]*workload.Model, len(targets[t]))
		for q, i := range targets[t] {
			ms[q] = models[i]
		}
		res[t], _, errs[t] = Explore(ms, o, nil)
	})
	return res, errs
}

// exploreCtx is the context every exploration runs under: Options.Ctx, or
// context.Background() when it is nil.
func (o Options) exploreCtx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// fidelityOptions projects the options onto an exploration's fidelity
// options. Analytical mode leaves them nil: the sweep's zero-overhead
// single-stage path.
func (o Options) fidelityOptions() *dse.FidelityOptions {
	if o.Fidelity != dse.FidelityStaged {
		return nil
	}
	return &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: o.FidelityParams()}
}

// exploreOne is Explore for a single model — the custom-configuration DSE.
func exploreOne(m *workload.Model, o Options) (dse.Result, error) {
	res, _, err := Explore([]*workload.Model{m}, o, nil)
	return res, err
}
