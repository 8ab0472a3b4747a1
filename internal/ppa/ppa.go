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

// Summary is the scalar result of an evaluation: the whole-algorithm totals,
// without the per-layer breakdown.
type Summary struct {
	LatencyS  float64 // sum of per-layer latencies (sequential execution)
	DynamicPJ float64 // total dynamic energy
	LeakagePJ float64 // leakage energy over the run (no power gating)
	AreaMM2   float64
}

// EnergyPJ returns total energy including leakage.
func (s Summary) EnergyPJ() float64 { return s.DynamicPJ + s.LeakagePJ }

// EnergyJ returns total energy in joules.
func (s Summary) EnergyJ() float64 { return s.EnergyPJ() * 1e-12 }

// PowerW returns average power over the run.
func (s Summary) PowerW() float64 {
	if s.LatencyS <= 0 {
		return 0
	}
	return s.EnergyJ() / s.LatencyS
}

// PowerDensity returns average power density in W/mm^2, the quantity bounded
// by the paper's PD_limit constraint.
func (s Summary) PowerDensity() float64 {
	if s.AreaMM2 <= 0 {
		return 0
	}
	return s.PowerW() / s.AreaMM2
}

// OnArea returns s re-priced on a configuration of areaMM2 mm^2 under
// catalogue cat: the same latency and dynamic energy, with that area and the
// leakage it draws over the run (idle units leak too). A model's summary on
// a configuration that also holds other models' units is its summary on its
// own units re-priced on the larger configuration's area, bit for bit: the
// units it does not use change only the area.
func (s Summary) OnArea(cat *hw.Catalogue, areaMM2 float64) Summary {
	s.AreaMM2 = areaMM2
	s.LeakagePJ = leakagePJ(cat, areaMM2, s.LatencyS)
	return s
}

// leakagePJ prices leakage across the whole chip for the whole run; the paper
// applies no power gating, so idle units leak too.
func leakagePJ(cat *hw.Catalogue, areaMM2, latencyS float64) float64 {
	leakW := cat.LeakageMWPerMM2 * 1e-3 * areaMM2
	return leakW * latencyS * 1e12
}

// Eval is the evaluated cost of a whole algorithm on a configuration: its
// Summary plus the per-layer breakdown.
type Eval struct {
	Summary
	Model  *workload.Model
	Config hw.Config
	Layers []LayerEval
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
// streams per tile. The cycle-level validation substrate (internal/systolic)
// shares it.
func Folds(l workload.Layer, size int) (folds, streams int64) {
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
		panic(fmt.Sprintf("ppa: Folds on non-compute layer %v", l.Kind))
	}
	if l.ActiveCopies > 1 {
		folds *= int64(l.ActiveCopies)
	}
	if folds == 0 {
		folds = 1
	}
	return folds, streams
}

// colTiles returns the output-column tiles of a compute layer with nofm
// output channels on size x size arrays: how many times its inputs are
// re-streamed.
func colTiles(nofm, size int) int64 {
	t := ceilDiv(int64(nofm), int64(size))
	if t == 0 {
		t = 1
	}
	return t
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
//
// It is the reference evaluation: it walks the model's layer shapes directly
// and shares only the fold decomposition (Folds, colTiles) and the two
// scalar kernels with ModelPlan and Table, so comparing them with it is a
// real differential.
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
	cat := c.Catalogue()
	bytesPer, b := int64(c.Precision.Bytes()), int64(batch)
	e := &Eval{Summary: Summary{AreaMM2: c.AreaMM2()}, Model: m, Config: c,
		Layers: make([]LayerEval, len(m.Layers))}
	for i := range m.Layers {
		l := &m.Layers[i]
		u := hw.SystolicArray
		var out kernelOut
		switch {
		case !l.Kind.IsCompute():
			u = hw.UnitFor(l.Kind)
			out = elementKernelVals(u, l.ElementOps(), l.OutputElems(), c.BankCount(u), cat, bytesPer, b)
		case c.Mix.IsZero():
			out = arraysCost(l, c.SASize, c.NSA, cat.SAFor(c.SASize, c.Precision).MacPJ, cat, bytesPer, b)
		default:
			// On a mix the layer runs on the active chiplet type that
			// finishes it first, ties to the lowest type index.
			first := true
			for ti := range cat.Chiplets {
				if n := int(c.Mix.Counts[ti]); n > 0 {
					spec := &cat.Chiplets[ti]
					o := arraysCost(l, spec.SASize, n, spec.EnergyPerMACPJ, cat, bytesPer, b)
					if first || o.latencyS < out.latencyS {
						out, first = o, false
					}
				}
			}
		}
		e.Layers[i] = LayerEval{Index: i, Layer: *l, Unit: u, Executions: out.executions,
			LatencyS: out.latencyS, EnergyPJ: out.energyPJ, OutBytes: out.outBytes}
		e.LatencyS += out.latencyS
		e.DynamicPJ += out.energyPJ
	}
	e.LeakagePJ = leakagePJ(cat, e.AreaMM2, e.LatencyS)
	return e, nil
}

// arraysCost is the reference cost of compute layer l on count size x size
// arrays at macPJ per MAC: its fold decomposition fed to computeKernelVals.
func arraysCost(l *workload.Layer, size, count int, macPJ float64, cat *hw.Catalogue, bytesPer, b int64) kernelOut {
	folds, streams := Folds(*l, size)
	return computeKernelVals(l.MACs(), l.Params(), l.InputElems(), l.OutputElems(),
		folds, streams, colTiles(l.NOFM, size), size, count, macPJ, cat.ClockGHz, cat.SRAMBytePJ, bytesPer, b)
}
