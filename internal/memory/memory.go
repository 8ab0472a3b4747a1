// Package memory analyzes weight and activation residency for chiplet
// packages. The paper's analytical framework implicitly assumes operands are
// available on chip; that holds for the CNN-class workloads but not for the
// multi-billion-parameter LLMs in its training set (Mixtral's weights alone
// are tens of gigabytes). This package quantifies the gap: per-package SRAM
// capacity versus a model's weight/activation footprint, and the DRAM
// streaming latency/energy floor when weights cannot be resident — an
// advisory check this reproduction adds on top of the paper's models
// (documented as a beyond-paper extension in DESIGN.md).
package memory

import (
	"fmt"

	"repro/internal/workload"
)

// System describes the memory resources of a chiplet package.
type System struct {
	// SRAMBytesPerChiplet is the weight/activation buffer per die. At 28 nm
	// roughly 1.2 mm^2/MB, an accelerator die dedicates a fraction of its
	// area to a buffer of this size.
	SRAMBytesPerChiplet int64
	// DRAMBandwidthBps is the package's aggregate external memory bandwidth.
	DRAMBandwidthBps float64
	// DRAMEnergyPJPerByte is the energy of one byte from external DRAM.
	DRAMEnergyPJPerByte float64
}

// Default returns a 2.5-D package with 8 MiB of buffer per chiplet and two
// channels of DDR4-class bandwidth.
func Default() System {
	return System{
		SRAMBytesPerChiplet: 8 << 20,
		DRAMBandwidthBps:    51.2e9,
		DRAMEnergyPJPerByte: 20,
	}
}

// Validate checks parameter sanity.
func (s System) Validate() error {
	if s.SRAMBytesPerChiplet <= 0 || s.DRAMBandwidthBps <= 0 || s.DRAMEnergyPJPerByte < 0 {
		return fmt.Errorf("memory: invalid system %+v", s)
	}
	return nil
}

// Footprint is a model's memory demand at 8-bit precision.
type Footprint struct {
	WeightBytes int64
	// PeakActivationBytes is the largest single-layer input+output working
	// set — what the buffers must hold while a layer streams.
	PeakActivationBytes int64
}

// FootprintOf computes a model's footprint (one byte per weight/activation,
// matching the framework's 8-bit datapath). Embedding tables and other
// unmapped parameters (Model.ExtraParams) count toward the weight footprint:
// they may not execute on the units, but they must live somewhere.
func FootprintOf(m *workload.Model) Footprint {
	f := Footprint{WeightBytes: m.ExtraParams}
	for _, l := range m.Layers {
		f.WeightBytes += l.Params()
		if ws := l.InputElems() + l.OutputElems(); ws > f.PeakActivationBytes {
			f.PeakActivationBytes = ws
		}
	}
	return f
}

// Analysis reports residency for one model on one package.
type Analysis struct {
	// WeightsResident is true when all weights fit in on-package SRAM
	// alongside the peak activation working set.
	WeightsResident bool
	// ActivationsFit is true when the peak working set alone fits.
	ActivationsFit bool
	// CapacityBytes is the package's total SRAM.
	CapacityBytes int64
	// StreamBytes is the weight traffic from DRAM per inference when weights
	// are not resident (every weight crosses once per inference).
	StreamBytes int64
	// StreamLatencyS and StreamEnergyPJ are the DRAM floor costs.
	StreamLatencyS float64
	StreamEnergyPJ float64
}

// Analyze checks a footprint against a package of the given chiplet count.
func Analyze(f Footprint, chiplets int, sys System) (Analysis, error) {
	if err := sys.Validate(); err != nil {
		return Analysis{}, err
	}
	if chiplets <= 0 {
		return Analysis{}, fmt.Errorf("memory: need at least one chiplet")
	}
	cap := sys.SRAMBytesPerChiplet * int64(chiplets)
	a := Analysis{CapacityBytes: cap}
	a.ActivationsFit = f.PeakActivationBytes <= cap
	a.WeightsResident = f.WeightBytes+f.PeakActivationBytes <= cap
	if !a.WeightsResident {
		a.StreamBytes = f.WeightBytes
		a.StreamLatencyS = float64(f.WeightBytes) / sys.DRAMBandwidthBps
		a.StreamEnergyPJ = float64(f.WeightBytes) * sys.DRAMEnergyPJPerByte
	}
	return a, nil
}
