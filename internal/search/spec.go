// Package search is the budgeted metaheuristic layer over hw.DesignSpace:
// when a space is too large to sweep exhaustively (ROADMAP item 2), an
// Optimizer finds a near-optimal configuration with a bounded number of
// evaluations. Two strategies ship — simulated annealing with
// coordinate-neighborhood moves and a steady-state genetic algorithm with
// crossover over axis/mix coordinate vectors — as functions that one
// Optimizer's Run calls by Spec.Kind, moving over the space's own
// coordinates (hw.CoordSpace). Candidates are scored through the sweep's
// dse.Scorer, whose tables the eval.Evaluator worker pool builds;
// selection runs through the streaming sweep's own reduction
// (dse.Selector), so the returned Result is bit-compatible with
// dse.ExploreSpaceCtx restricted to the visited set, and a budget covering
// the space returns the sweep's Result itself; and every run is
// deterministic for a fixed seed at any worker count, because every random
// decision, every score and every observation happens on the coordinator
// goroutine in slot order.
package search

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AnnealParams tunes the simulated-annealing strategy.
type AnnealParams struct {
	// Restarts splits the budget into phases; each later phase restarts
	// from the best (even phases) or a fresh random (odd phases) point.
	Restarts int
	// Batch is the number of neighbor proposals scored per Metropolis
	// round.
	Batch int
	// T0 and T1 are the initial and final temperatures as fractions of the
	// fitness at the walk's starting point; cooling is geometric in budget
	// progress.
	T0, T1 float64
}

// GeneticParams tunes the steady-state genetic strategy.
type GeneticParams struct {
	// Pop is the population size.
	Pop int
	// Batch is the number of offspring scored per generation.
	Batch int
	// Tourn is the tournament size for parent selection.
	Tourn int
	// Mut is the per-axis ±1-step mutation probability.
	Mut float64
	// Cross is the probability an offspring crosses two parents (uniform
	// per-axis) instead of cloning one.
	Cross float64
}

// Spec names a search strategy plus its parameters — the parsed form of the
// -search flag grammar `kind[:key=val,...]`, e.g. "anneal" or
// "genetic:pop=64,mut=0.1". Parameters not given take defaults.
type Spec struct {
	// Kind is "anneal" or "genetic".
	Kind    string
	Anneal  AnnealParams
	Genetic GeneticParams
}

// DefaultAnnealParams returns the annealing defaults, tuned on the fine
// (12,288-point, 13-model) and mixfine (≈110k-point, 3-model) benchmark
// cases: the smaller batch spends more rounds of sequential Metropolis
// acceptance per budget, and the extra restarts with a cooler schedule keep
// the worst-case optimality gap across seeds within a few hundredths of a
// percent on both spaces.
func DefaultAnnealParams() AnnealParams {
	return AnnealParams{Restarts: 8, Batch: 8, T0: 0.05, T1: 0.001}
}

// DefaultGeneticParams returns the genetic defaults, tuned on the same
// benchmark cases as DefaultAnnealParams: the larger population with a
// higher mutation rate holds composition diversity on mix spaces, where the
// area optimum sits on a narrow slice of the count simplex.
func DefaultGeneticParams() GeneticParams {
	return GeneticParams{Pop: 96, Batch: 12, Tourn: 3, Mut: 0.5, Cross: 0.8}
}

// ParseSpec parses a -search flag value. The grammar is
// `kind[:key=val[,key=val...]]` with kind one of "anneal" (keys restarts,
// batch, t0, t1) and "genetic" (keys pop, batch, tourn, mut, cx);
// unspecified keys take defaults. Case-insensitive, whitespace-tolerant.
func ParseSpec(s string) (Spec, error) {
	head, params, hasParams := strings.Cut(s, ":")
	kind := strings.ToLower(strings.TrimSpace(head))
	spec := Spec{Kind: kind, Anneal: DefaultAnnealParams(), Genetic: DefaultGeneticParams()}
	switch kind {
	case "anneal", "genetic":
	default:
		return Spec{}, fmt.Errorf("search: spec %q: kind %q: want anneal or genetic", s, kind)
	}
	if !hasParams {
		return spec, nil
	}
	if strings.TrimSpace(params) == "" {
		return Spec{}, fmt.Errorf("search: spec %q: empty parameter list", s)
	}
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("search: spec %q: parameter %q: want key=value", s, kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		var err error
		if kind == "anneal" {
			err = spec.Anneal.set(k, v)
		} else {
			err = spec.Genetic.set(k, v)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("search: spec %q: %v", s, err)
		}
	}
	return spec, nil
}

// String renders the spec canonically, with every parameter of the active
// kind explicit: ParseSpec(s.String()) round-trips to an equal Spec.
func (s Spec) String() string {
	switch s.Kind {
	case "anneal":
		p := s.Anneal
		return fmt.Sprintf("anneal:restarts=%d,batch=%d,t0=%g,t1=%g", p.Restarts, p.Batch, p.T0, p.T1)
	case "genetic":
		p := s.Genetic
		return fmt.Sprintf("genetic:pop=%d,batch=%d,tourn=%d,mut=%g,cx=%g", p.Pop, p.Batch, p.Tourn, p.Mut, p.Cross)
	default:
		return s.Kind
	}
}

// Validate checks the active kind's parameters.
func (s Spec) Validate() error {
	switch s.Kind {
	case "anneal":
		return s.Anneal.validate()
	case "genetic":
		return s.Genetic.validate()
	default:
		return fmt.Errorf("search: kind %q: want anneal or genetic", s.Kind)
	}
}

func parseIntIn(key, v string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("%s %q must be an integer in [%d, %d]", key, v, lo, hi)
	}
	return n, nil
}

func parseFloatIn(key, v string, lo, hi float64) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || f < lo || f > hi {
		return 0, fmt.Errorf("%s %q must be a number in [%g, %g]", key, v, lo, hi)
	}
	return f, nil
}

func (p *AnnealParams) set(k, v string) error {
	var err error
	switch k {
	case "restarts":
		p.Restarts, err = parseIntIn(k, v, 1, 64)
	case "batch":
		p.Batch, err = parseIntIn(k, v, 1, 1024)
	case "t0":
		p.T0, err = parseFloatIn(k, v, 1e-9, 100)
	case "t1":
		p.T1, err = parseFloatIn(k, v, 1e-12, 100)
	default:
		err = fmt.Errorf("unknown anneal key %q (want restarts, batch, t0, t1)", k)
	}
	return err
}

func (p AnnealParams) validate() error {
	if p.Restarts < 1 || p.Restarts > 64 || p.Batch < 1 || p.Batch > 1024 {
		return fmt.Errorf("search: anneal: restarts/batch out of range: %+v", p)
	}
	if !(p.T0 > 0) || !(p.T1 > 0) || p.T1 > p.T0 {
		return fmt.Errorf("search: anneal: want 0 < t1 <= t0, got t0=%g t1=%g", p.T0, p.T1)
	}
	return nil
}

func (p *GeneticParams) set(k, v string) error {
	var err error
	switch k {
	case "pop":
		p.Pop, err = parseIntIn(k, v, 2, 4096)
	case "batch":
		p.Batch, err = parseIntIn(k, v, 1, 1024)
	case "tourn":
		p.Tourn, err = parseIntIn(k, v, 1, 64)
	case "mut":
		p.Mut, err = parseFloatIn(k, v, 0, 1)
	case "cx":
		p.Cross, err = parseFloatIn(k, v, 0, 1)
	default:
		err = fmt.Errorf("unknown genetic key %q (want pop, batch, tourn, mut, cx)", k)
	}
	return err
}

func (p GeneticParams) validate() error {
	if p.Pop < 2 || p.Pop > 4096 || p.Batch < 1 || p.Batch > 1024 || p.Tourn < 1 || p.Tourn > 64 {
		return fmt.Errorf("search: genetic: pop/batch/tourn out of range: %+v", p)
	}
	if p.Mut < 0 || p.Mut > 1 || p.Cross < 0 || p.Cross > 1 {
		return fmt.Errorf("search: genetic: want mut, cx in [0, 1], got mut=%g cx=%g", p.Mut, p.Cross)
	}
	return nil
}
