// Package cost implements the quantitative chiplet cost model CLAIRE uses to
// report non-recurring engineering (NRE) benefits, following the structure of
// Chiplet Actuary (Feng & Ma, DAC 2022): negative-binomial die yield, wafer-
// derived recurring die cost, per-chiplet-type NRE (architecture/design/
// verification effort scaling with area, mask set, IP licensing) and package-
// level NRE. Everything the paper reports is normalized to the generic
// configuration C_g, which cancels absolute-dollar calibration (DESIGN.md,
// substitution 4).
package cost

import (
	"fmt"
	"math"
)

// Model holds the cost-model parameters for one process node and packaging
// flow. The defaults approximate a mature TSMC 28 nm flow with organic-
// substrate 2.5-D packaging.
type Model struct {
	// --- Recurring (RE) die-cost parameters ---
	WaferDiameterMM float64 // physical wafer diameter
	WaferCostUSD    float64 // processed wafer cost
	DefectD0PerCM2  float64 // defect density
	ClusterAlpha    float64 // defect clustering parameter (negative binomial)
	ScribeMM        float64 // scribe-line overhead added to each die edge

	// --- Non-recurring (NRE) parameters, in USD ---
	MaskSetUSD float64 // one full mask set per distinct chiplet type
	// DesignUSDPer100MM2 is the architecture + implementation + verification
	// effort for a 100 mm^2 die; effort scales as (area/100)^DesignExponent.
	DesignUSDPer100MM2 float64
	DesignExponent     float64
	// IPUSDPerUnitKind is the licensing / hardening cost per distinct unit
	// kind integrated on a chiplet (systolic IP, GELU macro, ...).
	IPUSDPerUnitKind float64
	// PackageBaseUSD is the substrate/interposer design cost for any 2.5-D
	// package; PackagePerChipletUSD adds integration effort per placed die.
	PackageBaseUSD       float64
	PackagePerChipletUSD float64
}

// Default returns the calibrated 28 nm model. The calibration makes the
// per-chiplet-type cost (mask set + design/verification program) the dominant
// NRE term with a weak area dependence — which is what the paper's normalized
// numbers imply: NRE tracks the count of distinct chiplet tape-outs (C_g with
// its four diverse chiplets at 1.0, a one-chiplet transformer configuration
// near 0.25).
func Default() Model {
	return Model{
		WaferDiameterMM:      300,
		WaferCostUSD:         3000,
		DefectD0PerCM2:       0.09,
		ClusterAlpha:         3,
		ScribeMM:             0.1,
		MaskSetUSD:           4.0e6,
		DesignUSDPer100MM2:   1.2e7,
		DesignExponent:       0.35,
		IPUSDPerUnitKind:     2.0e5,
		PackageBaseUSD:       1.0e6,
		PackagePerChipletUSD: 2.5e5,
	}
}

// Validate checks model sanity.
func (m Model) Validate() error {
	if m.WaferDiameterMM <= 0 || m.WaferCostUSD <= 0 {
		return fmt.Errorf("cost: non-positive wafer parameters")
	}
	if m.DefectD0PerCM2 < 0 || m.ClusterAlpha <= 0 {
		return fmt.Errorf("cost: invalid defect parameters")
	}
	if m.MaskSetUSD < 0 || m.DesignUSDPer100MM2 <= 0 || m.DesignExponent <= 0 {
		return fmt.Errorf("cost: invalid NRE parameters")
	}
	return nil
}

// DieYield returns the negative-binomial yield for a die of the given area:
// Y = (1 + A*D0/alpha)^-alpha.
func (m Model) DieYield(areaMM2 float64) float64 {
	if areaMM2 <= 0 {
		return 1
	}
	aCM2 := areaMM2 / 100
	return math.Pow(1+aCM2*m.DefectD0PerCM2/m.ClusterAlpha, -m.ClusterAlpha)
}

// DiesPerWafer returns the gross die count for square dies of the given area
// using the standard circular-wafer estimate.
func (m Model) DiesPerWafer(areaMM2 float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	edge := math.Sqrt(areaMM2) + m.ScribeMM
	a := edge * edge
	d := m.WaferDiameterMM
	n := math.Pi*d*d/(4*a) - math.Pi*d/math.Sqrt(2*a)
	if n < 0 {
		return 0
	}
	return n
}

// DieREUSD returns the recurring cost of one known-good die.
func (m Model) DieREUSD(areaMM2 float64) float64 {
	n := m.DiesPerWafer(areaMM2)
	if n <= 0 {
		return math.Inf(1)
	}
	y := m.DieYield(areaMM2)
	if y <= 0 {
		return math.Inf(1)
	}
	return m.WaferCostUSD / (n * y)
}

// Chiplet describes one distinct chiplet type for costing purposes.
type Chiplet struct {
	AreaMM2   float64
	UnitKinds int // distinct hardware unit kinds hardened on the die
}

// ChipletNREUSD returns the one-time cost of bringing up one chiplet type:
// design/verification effort, a mask set, and IP hardening.
func (m Model) ChipletNREUSD(c Chiplet) float64 {
	design := m.DesignUSDPer100MM2 * math.Pow(c.AreaMM2/100, m.DesignExponent)
	return design + m.MaskSetUSD + float64(c.UnitKinds)*m.IPUSDPerUnitKind
}

// Config describes a complete design configuration for costing: its distinct
// chiplet types and how many chiplet instances the package places. Reused
// types pay NRE once; instances only add package integration effort.
type Config struct {
	Types     []Chiplet
	Instances int
}

// ConfigNREUSD returns the total NRE of a configuration.
func (m Model) ConfigNREUSD(c Config) float64 {
	var nre float64
	for _, t := range c.Types {
		nre += m.ChipletNREUSD(t)
	}
	inst := c.Instances
	if inst < len(c.Types) {
		inst = len(c.Types)
	}
	return nre + m.PackageBaseUSD + float64(inst)*m.PackagePerChipletUSD
}

// SystemREUSD returns the recurring silicon cost of one packaged system:
// known-good-die costs for every instance. `areas` holds the die area of
// each placed chiplet instance.
func (m Model) SystemREUSD(areas []float64) float64 {
	var re float64
	for _, a := range areas {
		re += m.DieREUSD(a)
	}
	return re
}
