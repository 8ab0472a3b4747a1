// Layer-granular cost kernels and precomputed model plans.
//
// The analytical model factors cleanly by layer, and each layer's cost
// depends only on a small sub-parameterization of the configuration: a
// compute layer's fold/stream decomposition depends only on (layer, SASize)
// — 3 distinct values across the whole 81-point space, not 81 — and an
// element-wise layer depends only on (layer, bank count, precision). A
// ModelPlan precomputes everything that is configuration-independent
// (MAC/param/element counts) once per model and caches the per-SASize fold
// decompositions, so evaluating one space point collapses to closed-form
// arithmetic over cached integers with near-zero allocation.
//
// Summary and EvaluateBatch run the same pass over the layers; Summary skips
// the per-layer breakdown and allocates nothing. Sweeps filter on summaries
// and materialize a full Eval only for the points they end up reporting (see
// internal/eval and internal/dse).
package ppa

import (
	"fmt"
	"sync"

	"repro/internal/hw"
	"repro/internal/workload"
)

// kernelOut is the raw cost of one layer — the handful of scalars both
// result forms are assembled from. Kernels return it instead of a LayerEval
// so the summary path never copies the ~150-byte embedded workload.Layer.
type kernelOut struct {
	executions int64
	latencyS   float64
	energyPJ   float64
	outBytes   int64
}

// computeKernelVals is the compute kernel over raw scalars: one layer's cost
// on a bank of count size x size arrays with the given per-MAC energy and
// process constants. The plan's pass, the cost tables and the reference
// evaluation all price compute layers through this one function, so they
// share one floating-point operation order. It touches only its arguments
// and performs no allocation.
func computeKernelVals(macs, params, inElems, outElems, folds, streams, colTiles int64,
	size, count int, macPJ, clockGHz, sramBytePJ float64, bytesPer, b int64) kernelOut {
	// Folds execute across the count arrays in waves; each fold loads its
	// weight tile (size cycles), streams the whole batch's activations,
	// and drains the pipeline (2*size - 2 cycles of skew) — for batch 1,
	// exactly the cycle count of the PE-level simulator in internal/systolic.
	waves := ceilDiv(folds, int64(count))
	cyclesPerFold := b*streams + 3*int64(size) - 2
	cycles := waves * cyclesPerFold

	// Dynamic energy: real MACs plus activation/weight movement through the
	// local SRAM. Inputs are re-streamed once per output-column tile; the
	// weight tile is read once per fold regardless of batch.
	macE := float64(b*macs) * macPJ
	moveBytes := float64(b * (inElems*colTiles + outElems) * bytesPer)
	weightBytes := float64(params * bytesPer)

	return kernelOut{
		executions: folds,
		latencyS:   float64(cycles) / (clockGHz * 1e9),
		energyPJ:   macE + (moveBytes+weightBytes)*sramBytePJ,
		outBytes:   b * outElems * bytesPer,
	}
}

// elementKernelVals evaluates an activation, pooling or engine layer over
// raw scalars; element-wise work scales linearly with the batch. A
// degenerate bank (zero instances, or a throughput product below one op per
// cycle) is clamped to the slowest physical rate instead of dividing by
// zero. Like computeKernelVals, it is shared by every evaluation path and
// performs no allocation.
func elementKernelVals(u hw.Unit, elemOps, outElems int64, bank int, cat *hw.Catalogue, bytesPer, b int64) kernelOut {
	p := cat.PPA(u)
	count := int64(bank)
	if count < 1 {
		count = 1
	}
	ops := b * elemOps
	perCycle := int64(float64(count) * p.ThroughputE)
	if perCycle < 1 {
		perCycle = 1
	}
	return kernelOut{
		executions: ceilDiv(ops, count),
		latencyS:   float64(ceilDiv(ops, perCycle)) / (cat.ClockGHz * 1e9),
		energyPJ:   float64(ops) * p.EnergyPJ,
		outBytes:   b * outElems * bytesPer,
	}
}

// planSoA is a model's per-layer counts as dense columns indexed by layer,
// so the plan's pass and the cost-table builds walk contiguous slices.
// Compute layers fill macs, params and inElems, element-wise layers elemOps;
// every layer fills unit and outElems.
type planSoA struct {
	compute  []bool
	unit     []hw.Unit
	macs     []int64
	params   []int64
	inElems  []int64
	elemOps  []int64
	outElems []int64
}

// grow sizes every column for n layers. All five int64 columns share one
// backing array (three-index sliced so appends cannot bleed across), so a
// cold plan build costs three allocations here instead of seven.
func (s *planSoA) grow(n int) {
	ints := make([]int64, 5*n)
	s.macs = ints[0*n : 1*n : 1*n]
	s.params = ints[1*n : 2*n : 2*n]
	s.inElems = ints[2*n : 3*n : 3*n]
	s.elemOps = ints[3*n : 4*n : 4*n]
	s.outElems = ints[4*n:]
	s.compute = make([]bool, n)
	s.unit = make([]hw.Unit, n)
}

// foldTable caches every layer's fold decomposition for one array dimension
// as dense columns over one shared backing array: the weight-stationary
// fold and stream counts, and the output-column tiles that govern
// activation re-streaming.
type foldTable struct {
	folds, streams, colTiles []int64
}

// newFoldTable builds a model's decompositions for one array dimension
// (non-compute layers keep zero rows).
func newFoldTable(layers []workload.Layer, size int) *foldTable {
	n := len(layers)
	cols := make([]int64, 3*n) // one backing array for all three columns
	ft := &foldTable{
		folds:    cols[:n:n],
		streams:  cols[n : 2*n : 2*n],
		colTiles: cols[2*n:],
	}
	for i := range layers {
		if l := &layers[i]; l.Kind.IsCompute() {
			ft.folds[i], ft.streams[i] = Folds(*l, size)
			ft.colTiles[i] = colTiles(l.NOFM, size)
		}
	}
	return ft
}

// ModelPlan is the precomputed cost plan of one model: per-layer counts
// computed once as dense columns, plus a lazily grown cache of per-SASize
// fold tables. A ModelPlan is safe for concurrent use; the underlying model
// must not be structurally mutated after the plan is built.
type ModelPlan struct {
	model *workload.Model
	soa   planSoA
	units hw.UnitSet // required units, for allocation-free coverage checks

	mu    sync.RWMutex
	folds map[int]*foldTable // SASize -> decomposition table (zero rows for non-compute)
}

// NewModelPlan builds the plan for a model, precomputing every
// configuration-independent per-layer quantity.
func NewModelPlan(m *workload.Model) *ModelPlan {
	p := &ModelPlan{model: m, folds: make(map[int]*foldTable, 8)}
	s := &p.soa
	s.grow(len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		s.outElems[i] = l.OutputElems()
		if l.Kind.IsCompute() {
			s.compute[i], s.unit[i] = true, hw.SystolicArray
			s.macs[i], s.params[i], s.inElems[i] = l.MACs(), l.Params(), l.InputElems()
		} else {
			s.unit[i] = hw.UnitFor(l.Kind)
			s.elemOps[i] = l.ElementOps()
		}
		p.units = p.units.With(s.unit[i])
	}
	return p
}

// Model returns the model the plan was built for.
func (p *ModelPlan) Model() *workload.Model { return p.model }

// LayerTraffic is one layer's hosting unit kind and output volume: the
// (Unit, OutBytes) columns of a LayerEval, which the universal graph's edge
// weights and the fidelity layer's NoC/NoP transfers read.
type LayerTraffic struct {
	Unit     hw.Unit
	OutBytes int64
}

// Traffic returns every layer's unit and output bytes at one precision and
// batch size, in layer order. Neither depends on the rest of the
// configuration, so the result equals the (Unit, OutBytes) of EvaluateBatch's
// per-layer breakdown on any configuration of that precision that covers the
// model.
func (p *ModelPlan) Traffic(prec hw.Precision, batch int) []LayerTraffic {
	bytesPer := int64(prec.Bytes())
	b := int64(batch)
	out := make([]LayerTraffic, len(p.soa.unit))
	for i, u := range p.soa.unit {
		out[i] = LayerTraffic{Unit: u, OutBytes: b * p.soa.outElems[i] * bytesPer}
	}
	return out
}

// foldsFor returns the fold table for one array dimension, computing and
// caching it on first use. Across the 81-point space only the distinct
// SASize values (3) ever trigger a computation.
func (p *ModelPlan) foldsFor(size int) *foldTable {
	p.mu.RLock()
	ft, ok := p.folds[size]
	p.mu.RUnlock()
	if ok {
		return ft
	}
	ft = newFoldTable(p.model.Layers, size)
	p.mu.Lock()
	if prior, ok := p.folds[size]; ok {
		ft = prior
	} else {
		p.folds[size] = ft
	}
	p.mu.Unlock()
	return ft
}

// check validates the batch size, mix sanity and unit coverage, mirroring
// EvaluateBatch's error contract.
func (p *ModelPlan) check(c hw.Config, batch int) error {
	if batch < 1 {
		return fmt.Errorf("ppa: batch %d", batch)
	}
	if err := c.CheckMix(); err != nil {
		return err
	}
	if !c.Units.Contains(p.units) {
		return fmt.Errorf("ppa: config %v does not cover %s (coverage %.0f%%)",
			c.Point, p.model.Name, 100*c.Coverage(p.model))
	}
	return nil
}

// Summary evaluates the scalar totals of the model on one configuration
// with zero allocation: the plan's pass without the per-layer breakdown, so
// the result is bit-identical to EvaluateBatch's totals.
func (p *ModelPlan) Summary(c hw.Config, batch int) (Summary, error) {
	if err := p.check(c, batch); err != nil {
		return Summary{}, err
	}
	return cost(p, &c, batch, [0]LayerEval{}), nil
}

// EvaluateBatch materializes the full per-layer evaluation from the cached
// plans; identical to ppa.EvaluateBatch on the same inputs.
func (p *ModelPlan) EvaluateBatch(c hw.Config, batch int) (*Eval, error) {
	if err := p.check(c, batch); err != nil {
		return nil, err
	}
	e := &Eval{Model: p.model, Config: c, Layers: make([]LayerEval, len(p.soa.unit))}
	e.Summary = cost(p, &c, batch, e.Layers)
	return e, nil
}

// chipletArrays is one active chiplet type's arrays on a mix: the plan's
// fold table for the type's array size, the type's instance count and its
// energy per MAC.
type chipletArrays struct {
	ft          *foldTable
	size, count int
	macPJ       float64
}

// cost is the plan's one pass over the model's layers on c, which has passed
// check. Each layer is priced once: an element-wise layer on its unit's
// bank, a compute layer on the configuration's arrays or, on a mix, on the
// active chiplet type that finishes it first, ties to the lowest type index.
// Latencies and dynamic energies add up in layer order, and each layer's
// cost is written to layers[i] while i < len(layers): EvaluateBatch passes
// one entry per layer, Summary a [0]LayerEval. That instantiation's length
// is the constant 0, so the compiler drops the writes and the check before
// them, which cost the summary pass about 6% as a run-time branch; it
// allocates nothing.
func cost[L []LayerEval | [0]LayerEval](p *ModelPlan, c *hw.Config, batch int, layers L) Summary {
	cat := c.Catalogue()
	mix := !c.Mix.IsZero()
	var types [hw.MaxMixTypes]chipletArrays
	nt := 0
	// A homogeneous configuration's array scalars, hoisted out of the loop.
	var ft *foldTable
	var macPJ float64
	size, count := c.SASize, c.NSA
	if mix {
		for ti := range cat.Chiplets {
			if n := int(c.Mix.Counts[ti]); n > 0 {
				spec := &cat.Chiplets[ti]
				types[nt] = chipletArrays{p.foldsFor(spec.SASize), spec.SASize, n, spec.EnergyPerMACPJ}
				nt++
			}
		}
	} else {
		ft, macPJ = p.foldsFor(size), cat.SAFor(size, c.Precision).MacPJ
	}
	bytesPer, b := int64(c.Precision.Bytes()), int64(batch)
	clockGHz, sramBytePJ := cat.ClockGHz, cat.SRAMBytePJ
	soa := &p.soa
	s := Summary{AreaMM2: c.AreaMM2()}
	for i := range soa.compute {
		var out kernelOut
		switch {
		case !soa.compute[i]:
			out = elementKernelVals(soa.unit[i], soa.elemOps[i], soa.outElems[i],
				c.BankCount(soa.unit[i]), cat, bytesPer, b)
		case !mix:
			out = computeKernelVals(soa.macs[i], soa.params[i], soa.inElems[i], soa.outElems[i],
				ft.folds[i], ft.streams[i], ft.colTiles[i], size, count,
				macPJ, clockGHz, sramBytePJ, bytesPer, b)
		default:
			for x := range types[:nt] {
				t := &types[x]
				o := computeKernelVals(soa.macs[i], soa.params[i], soa.inElems[i], soa.outElems[i],
					t.ft.folds[i], t.ft.streams[i], t.ft.colTiles[i], t.size, t.count,
					t.macPJ, clockGHz, sramBytePJ, bytesPer, b)
				if x == 0 || o.latencyS < out.latencyS {
					out = o
				}
			}
		}
		s.LatencyS += out.latencyS
		s.DynamicPJ += out.energyPJ
		if i >= len(layers) {
			continue
		}
		layers[i] = LayerEval{Index: i, Layer: p.model.Layers[i], Unit: soa.unit[i],
			Executions: out.executions, LatencyS: out.latencyS, EnergyPJ: out.energyPJ, OutBytes: out.outBytes}
	}
	s.LeakagePJ = leakagePJ(cat, s.AreaMM2, s.LatencyS)
	return s
}
