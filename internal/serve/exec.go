package serve

import (
	"context"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// Execution: the mapping from an admitted job to the library call serving
// it. Every path runs on the manager's process-lifetime evaluator, so
// repeated and overlapping requests share its plans and built designs; every
// path threads the job context so DELETE/disconnect/shutdown cancellation is
// prompt (chunk-granular inside the streaming sweep).

// exploreExec binds an explore job to its resolved models and options; the
// exec runs them through core's exploration funnel as resolved at admission.
func exploreExec(models []*workload.Model, o core.Options) func(ctx context.Context, j *Job) (any, error) {
	return func(ctx context.Context, j *Job) (any, error) {
		o.Ctx = ctx
		res, tr, err := core.Explore(models, o, j.publish)
		if err != nil {
			return nil, err
		}
		return ExploreResultOf(res, tr), nil
	}
}

// sweepExec binds a sweep job to its resolved models and options.
func sweepExec(kind string, values []float64, models []*workload.Model, o core.Options) func(ctx context.Context, _ *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		o.Ctx = ctx
		if kind == "tau" {
			pts, err := core.SweepTau(models, o, values)
			if err != nil {
				return nil, err
			}
			out := SweepResult{Kind: "tau"}
			for _, p := range pts {
				out.Tau = append(out.Tau, TauPoint{
					Tau: p.Tau, Subsets: p.Subsets,
					MeanBenefit: p.MeanBenefit, MaxSubsetSize: p.MaxSubsetSize,
				})
			}
			return out, nil
		}
		pts, err := core.SweepSlack(models[0], o, values)
		if err != nil {
			return nil, err
		}
		out := SweepResult{Kind: "slack"}
		for _, p := range pts {
			out.Slack = append(out.Slack, SlackPoint{
				Slack: p.Slack, AreaMM2: p.AreaMM2,
				LatencyMS: p.LatencyMS, Feasible: p.Feasible,
			})
		}
		return out, nil
	}
}

// selfcheckExec builds the exec closure for a selfcheck request. The check
// battery has no internal cancellation points; it is bounded (~seconds) and
// runs on its own engines by design, so a cancelled job simply discards the
// report on return.
func (m *Manager) selfcheckExec(req *SelfcheckRequest) func(ctx context.Context, _ *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		rep := check.Run(check.Options{Seed: req.Seed, Catalogue: m.catalogueOption()})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := SelfcheckResult{OK: rep.OK(), Checks: rep.Checks(), Failed: rep.Failed()}
		for _, v := range rep.Violations() {
			out.Violations = append(out.Violations, v.String())
			if len(out.Violations) >= 32 {
				break
			}
		}
		return out, nil
	}
}

// catalogueOption returns the catalogue to hand to check.Run: nil when the
// server runs the built-in default (check treats nil as default and also
// exercises the legacy-constant differential).
func (m *Manager) catalogueOption() *hw.Catalogue {
	if m.cat == hw.Default() {
		return nil
	}
	return m.cat
}

// SubmitExplore resolves, keys and submits an explore job.
func (m *Manager) SubmitExplore(req *ExploreRequest, detached bool) (*Job, bool, error) {
	models, o, err := m.resolveExplore(req)
	if err != nil {
		return nil, false, err
	}
	return m.Submit(KindExplore, m.key(KindExplore, models, o), detached, exploreExec(models, o))
}

// SubmitSweep resolves, keys and submits a sweep job.
func (m *Manager) SubmitSweep(req *SweepRequest, detached bool) (*Job, bool, error) {
	models, o, err := m.resolveSweep(req)
	if err != nil {
		return nil, false, err
	}
	return m.Submit(KindSweep, m.sweepKey(req, models, o), detached, sweepExec(req.Kind, req.Values, models, o))
}

// sweepKey is the coalescing key of a resolved sweep request: its resolved
// options, its kind and its values, each value rendered exactly.
func (m *Manager) sweepKey(req *SweepRequest, models []*workload.Model, o core.Options) string {
	vals := make([]string, len(req.Values))
	for i, v := range req.Values {
		vals[i] = exactFloat(v)
	}
	return m.key(KindSweep, models, o, "kind="+req.Kind, "values="+strings.Join(vals, ","))
}

// SubmitSelfcheck submits a selfcheck job.
func (m *Manager) SubmitSelfcheck(req *SelfcheckRequest, detached bool) (*Job, bool, error) {
	return m.Submit(KindSelfcheck, selfcheckKey(req, m.cat), detached, m.selfcheckExec(req))
}
