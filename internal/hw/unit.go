// Package hw defines the hardware building blocks of the CLAIRE framework
// (Input #2): the unit catalogue with per-unit PPA characteristics at a TSMC
// 28 nm-class node, and the tunable hardware parameter file that spans the
// design space explored by DSE.
package hw

import (
	"fmt"
	"math/bits"

	"repro/internal/workload"
)

// Unit enumerates the hardware building blocks. Each torch.nn module class in
// the algorithm sets corresponds to one unit kind; Conv2d, Conv1d and Linear
// all execute on the systolic array with a weight-stationary dataflow.
type Unit int

// Hardware unit kinds.
const (
	// SystolicArray executes all MAC-bearing layers.
	SystolicArray Unit = iota
	ActReLU
	ActReLU6
	ActGELU
	ActSiLU
	ActTanh
	PoolMax
	PoolAvg
	PoolAdaptiveAvg
	PoolLastLevelMax
	PoolROIAlign
	EngFlatten
	EngPermute

	numUnits
)

// NumUnits is the number of distinct hardware unit kinds.
const NumUnits = int(numUnits)

var unitNames = [...]string{
	SystolicArray:    "SA",
	ActReLU:          "RELU",
	ActReLU6:         "RELU6",
	ActGELU:          "GELU",
	ActSiLU:          "SILU",
	ActTanh:          "TANH",
	PoolMax:          "MAXPOOL",
	PoolAvg:          "AVGPOOL",
	PoolAdaptiveAvg:  "ADAPTIVEAVGPOOL",
	PoolLastLevelMax: "LASTLEVELMAXPOOL",
	PoolROIAlign:     "ROIALIGN",
	EngFlatten:       "FLATTEN",
	EngPermute:       "PERMUTE",
}

// String returns the unit name in the paper's Table II style.
func (u Unit) String() string {
	if u < 0 || int(u) >= len(unitNames) {
		return fmt.Sprintf("Unit(%d)", int(u))
	}
	return unitNames[u]
}

// IsActivation reports whether the unit is an activation-function unit.
func (u Unit) IsActivation() bool { return u >= ActReLU && u <= ActTanh }

// IsPooling reports whether the unit is a pooling-class unit.
func (u Unit) IsPooling() bool { return u >= PoolMax && u <= PoolROIAlign }

// IsEngine reports whether the unit is a data-movement engine.
func (u Unit) IsEngine() bool { return u == EngFlatten || u == EngPermute }

// UnitFor maps a layer kind to the hardware unit that executes it.
func UnitFor(k workload.OpKind) Unit {
	switch k {
	case workload.Conv2d, workload.Conv1d, workload.Linear:
		return SystolicArray
	case workload.ReLU:
		return ActReLU
	case workload.ReLU6:
		return ActReLU6
	case workload.GELU:
		return ActGELU
	case workload.SiLU:
		return ActSiLU
	case workload.Tanh:
		return ActTanh
	case workload.MaxPool:
		return PoolMax
	case workload.AvgPool:
		return PoolAvg
	case workload.AdaptiveAvgPool:
		return PoolAdaptiveAvg
	case workload.LastLevelMaxPool:
		return PoolLastLevelMax
	case workload.ROIAlign:
		return PoolROIAlign
	case workload.Flatten:
		return EngFlatten
	case workload.Permute:
		return EngPermute
	default:
		panic(fmt.Sprintf("hw: unmapped op kind %v", k))
	}
}

// UnitsFor returns the set of hardware units a model requires, i.e. the unit
// image of its layer kinds.
func UnitsFor(m *workload.Model) UnitSet {
	var s UnitSet
	for i := range m.Layers {
		s = s.With(UnitFor(m.Layers[i].Kind))
	}
	return s
}

// UnitSet is a set of unit kinds, one bit per kind. Every walk over a set
// (First, then Rest until empty) visits its kinds in ascending unit order,
// which is the order of a configuration's banks, its area sum and its String.
type UnitSet uint16

// UnitSet must have a bit for every kind: this fails to compile once
// NumUnits exceeds 16.
var _ [16 - NumUnits]struct{}

// The element-wise unit classes as sets.
const (
	activations UnitSet = 1<<(ActTanh+1) - 1<<ActReLU
	poolings    UnitSet = 1<<(PoolROIAlign+1) - 1<<PoolMax
)

// SetOf returns the set holding the given kinds.
func SetOf(us ...Unit) UnitSet {
	var s UnitSet
	for _, u := range us {
		s = s.With(u)
	}
	return s
}

// With returns the set plus kind u.
func (s UnitSet) With(u Unit) UnitSet { return s | 1<<u }

// Has reports whether kind u is in the set.
func (s UnitSet) Has(u Unit) bool { return s&(1<<u) != 0 }

// Contains reports whether every kind of o is in the set.
func (s UnitSet) Contains(o UnitSet) bool { return o&^s == 0 }

// First returns the set's smallest kind; the set must not be empty.
func (s UnitSet) First() Unit { return Unit(bits.TrailingZeros16(uint16(s))) }

// Rest returns the set without its smallest kind.
func (s UnitSet) Rest() UnitSet { return s & (s - 1) }
