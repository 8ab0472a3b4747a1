// Package dse implements CLAIRE's design-space exploration (Algorithm 1):
// sweeping the 81-point tunable hardware parameter space, applying the
// power-density / chiplet-area / latency constraints (Input #4), and
// selecting the most compact feasible configuration for custom (C_i), generic
// (C_g) and library-synthesized (C_k) design flows.
//
// All exploration funnels through the shared parallel evaluation engine in
// internal/eval: point scoring fans out across the engine's workers from the
// models' cached plans, and only the selected designs' full evaluations
// enter its memoization cache. Selection is deterministic at
// any worker count — candidates are compared in ascending point-index order
// and area ties keep the lowest index, never goroutine arrival order.
package dse

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/ppa"
)

// PaperLatencySlack is the latency overhead the paper allows a shared
// configuration over a bespoke design for the same algorithm: "should not
// exceed 50% of the latency observed on a custom design solution".
const PaperLatencySlack = 0.5

// DefaultLatencySlack is the reproduction's calibrated default (100%). The
// looser bound reproduces the paper's Table II configuration shapes with this
// repository's 28 nm PPA catalogue; the paper's own 50% setting is available
// as PaperLatencySlack and exercised by the D4 slack ablation.
const DefaultLatencySlack = 1.0

// Constraints are the paper's Input #4.
type Constraints struct {
	// MaxChipAreaMM2 bounds the total logic area of a design configuration
	// (A_Chip_limit, from ASIC-Clouds-style datacenter die limits).
	MaxChipAreaMM2 float64
	// MaxPowerDensityWPerMM2 bounds average power density (PD_limit).
	MaxPowerDensityWPerMM2 float64
	// LatencySlack is the allowed latency overhead versus the fastest
	// feasible solution for the same algorithm: L <= (1+slack) * L_best.
	// The paper sets 50% (PaperLatencySlack); this reproduction defaults to
	// DefaultLatencySlack. Zero is valid and means the strictest setting:
	// only latency-optimal points survive.
	LatencySlack float64
}

// DefaultConstraints returns the values used throughout the reproduction.
func DefaultConstraints() Constraints {
	return Constraints{
		MaxChipAreaMM2:         100,
		MaxPowerDensityWPerMM2: 0.8,
		LatencySlack:           DefaultLatencySlack,
	}
}

// Validate checks constraint sanity. LatencySlack == 0 is accepted (no
// overhead allowed); negative slack is meaningless and rejected.
func (c Constraints) Validate() error {
	if c.MaxChipAreaMM2 <= 0 || c.MaxPowerDensityWPerMM2 <= 0 || c.LatencySlack < 0 {
		return fmt.Errorf("dse: invalid constraints %+v", c)
	}
	return nil
}

// meetsStatic checks the constraints that do not depend on the best-latency
// reference (area and power density).
func (c Constraints) meetsStatic(areaMM2, powerDensity float64) bool {
	return areaMM2 <= c.MaxChipAreaMM2 &&
		powerDensity <= c.MaxPowerDensityWPerMM2
}

// Result is one selected design configuration with its evaluations.
type Result struct {
	Config hw.Config
	// Evals holds the analytical evaluation of every served model on the
	// selected configuration, in input order. The evaluations may be shared
	// with the engine's cache and must be treated as immutable.
	Evals []*ppa.Eval
	// Feasible is the number of space points that met all constraints.
	Feasible int
	// Explored is the number of space points swept.
	Explored int
	// SpaceDesc is the human-readable provenance of the swept design space
	// ("paper space (81 points: ...)"), threaded into report output.
	SpaceDesc string
	// Refined is non-nil for staged multi-fidelity runs: the refinement work
	// counters plus the winner's stage-1 refined latencies and peak junction
	// temperature — the scores selection actually compared. Reports print
	// these alongside the analytical numbers.
	Refined *RefineStats
}

// TotalAreaMM2 returns the selected configuration's logic area.
func (r Result) TotalAreaMM2() float64 { return r.Config.AreaMM2() }
