// Package ppa implements the analytical performance/power/area models of the
// CLAIRE framework (Input #3): parameterizable equations that take a hardware
// configuration and an algorithm and produce per-layer and whole-algorithm
// energy, latency, area and power density.
//
// Compute layers use a weight-stationary mapping onto the systolic-array
// bank: the weight matrix is tiled into SASize x SASize folds; each fold
// streams its activations through the array; folds execute across the
// available arrays with intra-layer parallelism, and layers execute
// sequentially (Section III-C, Step #TR1).
package ppa

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/workload"
)

// BytesPerElement is the default datapath word width (8-bit inference);
// evaluation uses the configuration's Precision when set.
const BytesPerElement = 1

// LayerEval is the evaluated cost of one layer on a configuration.
type LayerEval struct {
	Index int // position in the model
	Layer workload.Layer
	Unit  hw.Unit

	Executions int64   // node weight w_N: times the unit bank runs (folds)
	LatencyS   float64 // wall-clock seconds for the layer
	EnergyPJ   float64 // dynamic energy
	OutBytes   int64   // edge weight w_E to the next layer
}

// Eval is the evaluated cost of a whole algorithm on a configuration.
type Eval struct {
	Model  *workload.Model
	Config hw.Config
	Layers []LayerEval

	LatencyS  float64 // sum of per-layer latencies (sequential execution)
	DynamicPJ float64 // total dynamic energy
	LeakagePJ float64 // leakage energy over the run (no power gating)
	AreaMM2   float64
}

// EnergyPJ returns total energy including leakage.
func (e *Eval) EnergyPJ() float64 { return e.DynamicPJ + e.LeakagePJ }

// EnergyJ returns total energy in joules.
func (e *Eval) EnergyJ() float64 { return e.EnergyPJ() * 1e-12 }

// PowerW returns average power over the run.
func (e *Eval) PowerW() float64 {
	if e.LatencyS <= 0 {
		return 0
	}
	return e.EnergyJ() / e.LatencyS
}

// PowerDensity returns average power density in W/mm^2, the quantity bounded
// by the paper's PD_limit constraint.
func (e *Eval) PowerDensity() float64 {
	if e.AreaMM2 <= 0 {
		return 0
	}
	return e.PowerW() / e.AreaMM2
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("ppa: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// Folds returns the weight-stationary fold decomposition of a compute layer
// on size x size arrays: the number of weight tiles and the activation
// streams per tile. It is exported for the cycle-level validation substrate
// (internal/systolic).
func Folds(l workload.Layer, size int) (folds, streams int64) {
	return computeFolds(l, size)
}

// computeFolds returns the weight-stationary fold decomposition of a compute
// layer on size x size arrays: the number of weight tiles and the activation
// streams per tile.
func computeFolds(l workload.Layer, size int) (folds, streams int64) {
	s := int64(size)
	g := int64(1)
	if l.Groups > 1 {
		g = int64(l.Groups)
	}
	switch l.Kind {
	case workload.Conv2d:
		// Grouped convolution with NIFM < Groups (or NOFM < Groups) yields a
		// degenerate zero-row (zero-column) tile; clamp both to one so every
		// group still contributes a fold.
		rows := int64(l.KX) * int64(l.KY) * int64(l.NIFM) / g
		if rows == 0 {
			rows = 1
		}
		cols := int64(l.NOFM) / g
		if cols == 0 {
			cols = 1
		}
		folds = g * ceilDiv(rows, s) * ceilDiv(cols, s)
		streams = int64(l.OFMX) * int64(l.OFMY)
		if streams == 0 {
			streams = 1
		}
	case workload.Conv1d:
		rows := int64(l.KX) * int64(l.NIFM) / g
		if rows == 0 {
			rows = 1
		}
		cols := int64(l.NOFM) / g
		if cols == 0 {
			cols = 1
		}
		folds = g * ceilDiv(rows, s) * ceilDiv(cols, s)
		streams = int64(l.OFMX)
		if streams == 0 {
			streams = 1
		}
	case workload.Linear:
		rows := int64(l.NIFM)
		cols := int64(l.NOFM)
		folds = ceilDiv(rows, s) * ceilDiv(cols, s)
		streams = int64(l.IFMX)
		if streams == 0 {
			streams = 1
		}
	default:
		panic(fmt.Sprintf("ppa: computeFolds on non-compute layer %v", l.Kind))
	}
	if l.ActiveCopies > 1 {
		folds *= int64(l.ActiveCopies)
	}
	if folds == 0 {
		folds = 1
	}
	return folds, streams
}

// evalCompute evaluates a MAC-bearing layer on the systolic-array bank for
// a batch of inferences; the cost arithmetic lives in computeKernel, shared
// with the precomputed-plan paths (see plan.go).
func evalCompute(l workload.Layer, c hw.Config, batch int) LayerEval {
	lp := layerPlanOf(l)
	var out kernelOut
	if c.Mix.IsZero() {
		out = computeKernel(&lp, foldPlanOf(l, c.SASize), &c, batch)
	} else {
		out = mixComputeKernel(&lp, mixFoldSource{l: &l}, &c, c.Catalogue(), batch)
	}
	return LayerEval{
		Layer:      l,
		Unit:       lp.unit,
		Executions: out.executions,
		LatencyS:   out.latencyS,
		EnergyPJ:   out.energyPJ,
		OutBytes:   out.outBytes,
	}
}

// evalElementwise evaluates an activation, pooling or engine layer on its
// unit bank; the cost arithmetic lives in elementKernel, shared with the
// precomputed-plan paths (see plan.go).
func evalElementwise(l workload.Layer, c hw.Config, batch int) LayerEval {
	lp := layerPlanOf(l)
	out := elementKernel(&lp, &c, c.Catalogue(), batch)
	return LayerEval{
		Layer:      l,
		Unit:       lp.unit,
		Executions: out.executions,
		LatencyS:   out.latencyS,
		EnergyPJ:   out.energyPJ,
		OutBytes:   out.outBytes,
	}
}

// Evaluate runs the analytical PPA model for one algorithm on one
// configuration (batch size 1). It returns an error when the configuration
// lacks a unit for any layer kind (coverage below 100%).
func Evaluate(m *workload.Model, c hw.Config) (*Eval, error) {
	return EvaluateBatch(m, c, 1)
}

// EvaluateBatch evaluates a batched inference: every weight-stationary fold
// streams `batch` inferences' activations before the next weight tile loads,
// amortizing the load and drain overhead — the classic throughput lever of
// the dataflow. Element-wise work and data movement scale linearly with the
// batch; weight traffic does not. The reported latency covers the whole
// batch (divide by batch for per-inference throughput).
func EvaluateBatch(m *workload.Model, c hw.Config, batch int) (*Eval, error) {
	if batch < 1 {
		return nil, fmt.Errorf("ppa: batch %d", batch)
	}
	if err := c.CheckMix(); err != nil {
		return nil, err
	}
	if !c.Supports(m) {
		return nil, fmt.Errorf("ppa: config %v does not cover %s (coverage %.0f%%)",
			c.Point, m.Name, 100*c.Coverage(m))
	}
	e := &Eval{Model: m, Config: c, AreaMM2: c.AreaMM2()}
	e.Layers = make([]LayerEval, 0, len(m.Layers))
	for i, l := range m.Layers {
		var le LayerEval
		if l.Kind.IsCompute() {
			le = evalCompute(l, c, batch)
		} else {
			le = evalElementwise(l, c, batch)
		}
		le.Index = i
		e.Layers = append(e.Layers, le)
		e.LatencyS += le.LatencyS
		e.DynamicPJ += le.EnergyPJ
	}
	// Leakage across the whole chip for the whole run; the paper applies no
	// power gating, so idle units leak too.
	leakW := c.Catalogue().LeakageMWPerMM2 * 1e-3 * e.AreaMM2
	e.LeakagePJ = leakW * e.LatencyS * 1e12
	return e, nil
}
