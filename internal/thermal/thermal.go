// Package thermal estimates steady-state junction temperatures for a 2.5-D
// chiplet package. The paper's Input #4 imposes a power-density limit "to
// manage chip temperature"; this package closes that loop with a compact
// physical model so the limit can be checked against an actual temperature
// budget instead of a proxy.
//
// Model: each chiplet is a uniform heat source dissipating through its own
// junction-to-ambient resistance (scaling inversely with die area — bigger
// dies spread heat over more heatsink) plus a lateral coupling term from
// every other chiplet that decays exponentially with the separation of their
// package slots. This superposition-of-sources form is the standard compact
// model for multi-die packages and is deliberately conservative.
package thermal

import (
	"fmt"
	"math"
)

// Model holds the package thermal parameters.
type Model struct {
	// AmbientC is the ambient (or cold-plate) temperature.
	AmbientC float64
	// RthCPerWCM2 is the junction-to-ambient resistance of 1 cm^2 of die
	// under the package's cooling solution; a chiplet of area A gets
	// RthCPerWCM2 / (A in cm^2).
	RthCPerWCM2 float64
	// CouplingCPerW is the lateral heating contributed per watt of a
	// neighboring chiplet at zero separation.
	CouplingCPerW float64
	// CouplingDecayPerHop attenuates the coupling per package-grid hop.
	CouplingDecayPerHop float64
}

// Default returns a forced-air datacenter cooling calibration: a 1 cm^2 die
// dissipating 50 W rises ~40 C above ambient, and adjacent chiplets couple
// at a few degrees per watt with fast decay.
func Default() Model {
	return Model{
		AmbientC:            45,
		RthCPerWCM2:         0.8,
		CouplingCPerW:       0.12,
		CouplingDecayPerHop: 0.5,
	}
}

// Validate checks parameter sanity.
func (m Model) Validate() error {
	if m.RthCPerWCM2 <= 0 {
		return fmt.Errorf("thermal: non-positive thermal resistance")
	}
	if m.CouplingCPerW < 0 || m.CouplingDecayPerHop <= 0 || m.CouplingDecayPerHop > 1 {
		return fmt.Errorf("thermal: invalid coupling parameters")
	}
	return nil
}

// Source is one chiplet as a heat source.
type Source struct {
	PowerW  float64
	AreaMM2 float64
	Slot    int // package-grid slot (Manhattan distance defines separation)
}

// manhattan computes slot distance on a near-square grid of the given width.
func manhattan(a, b, w int) int {
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Temperatures returns the steady-state junction temperature of each chiplet
// given the package-grid width used for slot coordinates.
func (m Model) Temperatures(sources []Source, gridW int) ([]float64, error) {
	if err := m.check(sources, gridW); err != nil {
		return nil, err
	}
	out := make([]float64, len(sources))
	for i := range sources {
		out[i] = m.temperature(sources, i, gridW)
	}
	return out, nil
}

// Peak returns the hottest junction temperature in the package: the
// maximum of AmbientC and every Temperatures entry, computed in the same
// loop without building the slice, with the same errors.
func (m Model) Peak(sources []Source, gridW int) (float64, error) {
	if err := m.check(sources, gridW); err != nil {
		return 0, err
	}
	peak := m.AmbientC
	for i := range sources {
		if t := m.temperature(sources, i, gridW); t > peak {
			peak = t
		}
	}
	return peak, nil
}

// check validates the model, the grid width and the sources in order; the
// first failing source's area is reported before its power.
func (m Model) check(sources []Source, gridW int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if gridW < 1 {
		return fmt.Errorf("thermal: grid width %d", gridW)
	}
	for i, s := range sources {
		if s.AreaMM2 <= 0 {
			return fmt.Errorf("thermal: source %d has area %v", i, s.AreaMM2)
		}
		if s.PowerW < 0 {
			return fmt.Errorf("thermal: source %d has power %v", i, s.PowerW)
		}
	}
	return nil
}

// temperature returns source i's steady-state junction temperature: its own
// rise over ambient plus the coupling from every other powered source.
func (m Model) temperature(sources []Source, i, gridW int) float64 {
	s := &sources[i]
	rth := m.RthCPerWCM2 / (s.AreaMM2 / 100)
	t := m.AmbientC + s.PowerW*rth
	for j := range sources {
		o := &sources[j]
		if i == j || o.PowerW <= 0 {
			continue
		}
		d := manhattan(s.Slot, o.Slot, gridW)
		t += o.PowerW * m.CouplingCPerW * math.Pow(m.CouplingDecayPerHop, float64(d))
	}
	return t
}
