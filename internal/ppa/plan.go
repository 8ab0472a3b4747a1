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
// Summary is the allocation-lean result form: exactly the whole-algorithm
// totals of Eval without the per-layer []LayerEval breakdown. Sweeps filter
// on summaries and materialize a full Eval lazily, only for the points they
// end up reporting (see internal/eval and internal/dse).
package ppa

import (
	"fmt"
	"sync"

	"repro/internal/hw"
	"repro/internal/workload"
)

// layerPlan carries the configuration-independent cost inputs of one layer.
type layerPlan struct {
	unit    hw.Unit
	compute bool

	// Compute layers (systolic array).
	macs, params, inElems int64
	// Element-wise layers.
	elementOps int64
	// Both.
	outElems int64
}

// layerPlanOf precomputes the configuration-independent counts of one layer.
func layerPlanOf(l workload.Layer) layerPlan {
	lp := layerPlan{outElems: l.OutputElems()}
	if l.Kind.IsCompute() {
		lp.unit = hw.SystolicArray
		lp.compute = true
		lp.macs = l.MACs()
		lp.params = l.Params()
		lp.inElems = l.InputElems()
	} else {
		lp.unit = hw.UnitFor(l.Kind)
		lp.elementOps = l.ElementOps()
	}
	return lp
}

// planSoA is the structure-of-arrays view of a model's per-layer plans:
// dense columns indexed by layer, so the hot homogeneous summary loop walks
// contiguous int64 slices instead of chasing per-layer structs. Values are
// identical to the layerPlan AoS view; only the layout differs.
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

// set writes one layer's plan into every column.
func (s *planSoA) set(i int, lp layerPlan) {
	s.compute[i] = lp.compute
	s.unit[i] = lp.unit
	s.macs[i] = lp.macs
	s.params[i] = lp.params
	s.inElems[i] = lp.inElems
	s.elemOps[i] = lp.elementOps
	s.outElems[i] = lp.outElems
}

// foldPlan is the SASize-dependent decomposition of one compute layer: the
// weight-stationary fold/stream counts plus the output-column tiling that
// governs activation re-streaming.
type foldPlan struct {
	folds, streams, colTiles int64
}

// foldTable caches every layer's fold decomposition for one array dimension
// as dense SoA columns over one shared backing array: the hot homogeneous
// summary loop walks the columns directly, and the mix kernel and
// materialization paths reassemble a foldPlan value through at.
type foldTable struct {
	folds, streams, colTiles []int64
}

// newFoldTable builds a model's decompositions for one array dimension
// (non-compute layers keep zero rows, as before).
func newFoldTable(layers []workload.Layer, size int) *foldTable {
	n := len(layers)
	cols := make([]int64, 3*n) // one backing array for all three columns
	ft := &foldTable{
		folds:    cols[:n:n],
		streams:  cols[n : 2*n : 2*n],
		colTiles: cols[2*n:],
	}
	for i := range layers {
		if layers[i].Kind.IsCompute() {
			fp := foldPlanOf(layers[i], size)
			ft.folds[i], ft.streams[i], ft.colTiles[i] = fp.folds, fp.streams, fp.colTiles
		}
	}
	return ft
}

// at reassembles the foldPlan of one layer from the columns.
func (ft *foldTable) at(i int) foldPlan {
	return foldPlan{folds: ft.folds[i], streams: ft.streams[i], colTiles: ft.colTiles[i]}
}

// foldPlanOf computes the decomposition of one compute layer for one array
// dimension.
func foldPlanOf(l workload.Layer, size int) foldPlan {
	folds, streams := computeFolds(l, size)
	colTiles := ceilDiv(int64(l.NOFM), int64(size))
	if colTiles == 0 {
		colTiles = 1
	}
	return foldPlan{folds: folds, streams: streams, colTiles: colTiles}
}

// kernelOut is the raw cost of one layer — the handful of scalars both
// result forms are assembled from. Kernels return it instead of a LayerEval
// so the summary path never copies the ~150-byte embedded workload.Layer.
type kernelOut struct {
	executions int64
	latencyS   float64
	energyPJ   float64
	outBytes   int64
}

// computeKernelVals is the sized inner compute kernel over raw scalars: one
// layer's cost on a bank of count size x size arrays with the given per-MAC
// energy and process constants. Every compute path — the SoA summary loop,
// the AoS materialization path and the heterogeneous mix dispatch — funnels
// through this one function, so they share one floating-point operation
// order. This is the innermost loop of every sweep; it touches only its
// arguments and performs no allocation.
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

// computeKernelOn is computeKernelVals over a layer plan and a fold plan —
// the pointer-fold-plan form the mix kernel and the materialization path use.
func computeKernelOn(lp *layerPlan, fp *foldPlan, size, count int, macPJ, clockGHz, sramBytePJ float64, bytesPer, b int64) kernelOut {
	return computeKernelVals(lp.macs, lp.params, lp.inElems, lp.outElems,
		fp.folds, fp.streams, fp.colTiles, size, count, macPJ, clockGHz, sramBytePJ, bytesPer, b)
}

// computeKernel evaluates a homogeneous compute layer from its precomputed
// plans — the single implementation behind both the full and the summary
// paths, so they are bit-identical by construction. Hot sweeps hoist the
// catalogue resolution out of the per-layer loop and call computeKernelOn
// directly; this wrapper serves the one-shot materialization path.
func computeKernel(lp *layerPlan, fp foldPlan, c *hw.Config, batch int) kernelOut {
	cat := c.Catalogue()
	sa := cat.SAFor(c.SASize, c.Precision)
	return computeKernelOn(lp, &fp, c.SASize, c.NSA, sa.MacPJ,
		cat.ClockGHz, cat.SRAMBytePJ, int64(c.Precision.Bytes()), int64(batch))
}

// mixFoldSource resolves per-type fold decompositions for the mix kernel:
// from a plan's cached per-size tables (plan path) or recomputed per layer
// (direct path). A value type so the hot mix sweep allocates nothing.
type mixFoldSource struct {
	// Plan path: per-type fold tables plus the layer index.
	tables *[hw.MaxMixTypes]*foldTable
	layer  int
	// Direct path: the layer itself.
	l *workload.Layer
}

func (s mixFoldSource) at(ti, size int) foldPlan {
	if s.tables != nil {
		return s.tables[ti].at(s.layer)
	}
	return foldPlanOf(*s.l, size)
}

// mixComputeKernel evaluates a compute layer on a heterogeneous mix: the
// layer runs on whichever active chiplet type minimizes its latency, ties
// broken toward the lowest type index — a per-layer greedy dispatch that
// keeps the analytical model layer-separable. Config.CheckMix guarantees at
// least one active type. The catalogue is passed in so sweeps resolve it once
// per configuration, not once per layer.
func mixComputeKernel(lp *layerPlan, src mixFoldSource, c *hw.Config, cat *hw.Catalogue, batch int) kernelOut {
	bytesPer := int64(c.Precision.Bytes())
	b := int64(batch)
	var best kernelOut
	first := true
	for ti := range cat.Chiplets {
		n := int(c.Mix.Counts[ti])
		if n == 0 {
			continue
		}
		spec := &cat.Chiplets[ti]
		fp := src.at(ti, spec.SASize)
		out := computeKernelOn(lp, &fp, spec.SASize, n, spec.EnergyPerMACPJ,
			cat.ClockGHz, cat.SRAMBytePJ, bytesPer, b)
		if first || out.latencyS < best.latencyS {
			best, first = out, false
		}
	}
	return best
}

// elementKernelVals evaluates an activation, pooling or engine layer over
// raw scalars; element-wise work scales linearly with the batch. A
// degenerate bank (zero instances, or a throughput product below one op per
// cycle) is clamped to the slowest physical rate instead of dividing by
// zero. Like computeKernelVals, it is shared by the SoA summary loop and the
// materialization path and performs no allocation.
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

// elementKernel is elementKernelVals over a layer plan — the form the
// materialization path uses.
func elementKernel(lp *layerPlan, c *hw.Config, cat *hw.Catalogue, batch int) kernelOut {
	return elementKernelVals(lp.unit, lp.elementOps, lp.outElems,
		c.BankCount(lp.unit), cat, int64(c.Precision.Bytes()), int64(batch))
}

// Summary is the scalar result of an evaluation: exactly the whole-algorithm
// totals of Eval, bit-identical to a full evaluation of the same (model,
// configuration, batch), without the per-layer breakdown.
type Summary struct {
	LatencyS  float64
	DynamicPJ float64
	LeakagePJ float64
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

// PowerDensity returns average power density in W/mm^2.
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

// Summary extracts the scalar totals of a full evaluation.
func (e *Eval) Summary() Summary {
	return Summary{
		LatencyS:  e.LatencyS,
		DynamicPJ: e.DynamicPJ,
		LeakagePJ: e.LeakagePJ,
		AreaMM2:   e.AreaMM2,
	}
}

// ModelPlan is the precomputed cost plan of one model: per-layer counts
// computed once — held both as per-layer structs (the materialization and
// mix paths) and as dense structure-of-arrays columns (the hot summary loop)
// — plus a lazily grown cache of per-SASize fold tables. A ModelPlan is safe
// for concurrent use; the underlying model must not be structurally mutated
// after the plan is built.
type ModelPlan struct {
	model  *workload.Model
	layers []layerPlan
	soa    planSoA
	units  hw.UnitSet // required units, for allocation-free coverage checks

	mu    sync.RWMutex
	folds map[int]*foldTable // SASize -> decomposition table (zero rows for non-compute)
}

// NewModelPlan builds the plan for a model, precomputing every
// configuration-independent per-layer quantity.
func NewModelPlan(m *workload.Model) *ModelPlan {
	p := &ModelPlan{
		model:  m,
		layers: make([]layerPlan, len(m.Layers)),
		folds:  make(map[int]*foldTable, 8),
	}
	p.soa.grow(len(m.Layers))
	for i, l := range m.Layers {
		p.layers[i] = layerPlanOf(l)
		p.soa.set(i, p.layers[i])
		p.units = p.units.With(p.layers[i].unit)
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
	out := make([]LayerTraffic, len(p.layers))
	for i := range p.layers {
		out[i] = LayerTraffic{Unit: p.layers[i].unit, OutBytes: b * p.layers[i].outElems * bytesPer}
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

// mixFolds fills the per-type fold tables one heterogeneous evaluation needs:
// one cached per-size table per active mix type.
func (p *ModelPlan) mixFolds(c *hw.Config, cat *hw.Catalogue, out *[hw.MaxMixTypes]*foldTable) {
	for ti := range cat.Chiplets {
		if c.Mix.Counts[ti] > 0 {
			out[ti] = p.foldsFor(cat.Chiplets[ti].SASize)
		}
	}
}

// Summary evaluates the scalar totals of the model on one configuration with
// zero steady-state allocation: cheap closed-form arithmetic over the cached
// plans, accumulated in layer order so the result is bit-identical to
// EvaluateBatch's totals. The homogeneous path — the innermost loop of every
// sweep — walks the plan's dense SoA columns and the per-SASize fold table as
// tight loops over cached integers; the heterogeneous path keeps the
// pointer-fold-plan dispatch.
func (p *ModelPlan) Summary(c hw.Config, batch int) (Summary, error) {
	if err := p.check(c, batch); err != nil {
		return Summary{}, err
	}
	cat := c.Catalogue()
	bytesPer := int64(c.Precision.Bytes())
	b := int64(batch)
	s := Summary{AreaMM2: c.AreaMM2()}
	if mix := !c.Mix.IsZero(); mix {
		var mixFts [hw.MaxMixTypes]*foldTable
		p.mixFolds(&c, cat, &mixFts)
		for i := range p.layers {
			var out kernelOut
			if !p.layers[i].compute {
				out = elementKernel(&p.layers[i], &c, cat, batch)
			} else {
				out = mixComputeKernel(&p.layers[i], mixFoldSource{tables: &mixFts, layer: i}, &c, cat, batch)
			}
			s.LatencyS += out.latencyS
			s.DynamicPJ += out.energyPJ
		}
	} else {
		ft := p.foldsFor(c.SASize)
		macPJ := cat.SAFor(c.SASize, c.Precision).MacPJ
		clockGHz, sramBytePJ := cat.ClockGHz, cat.SRAMBytePJ
		size, count := c.SASize, c.NSA
		soa := &p.soa
		for i := range soa.compute {
			var out kernelOut
			if soa.compute[i] {
				out = computeKernelVals(soa.macs[i], soa.params[i], soa.inElems[i], soa.outElems[i],
					ft.folds[i], ft.streams[i], ft.colTiles[i], size, count,
					macPJ, clockGHz, sramBytePJ, bytesPer, b)
			} else {
				out = elementKernelVals(soa.unit[i], soa.elemOps[i], soa.outElems[i],
					c.BankCount(soa.unit[i]), cat, bytesPer, b)
			}
			s.LatencyS += out.latencyS
			s.DynamicPJ += out.energyPJ
		}
	}
	s.LeakagePJ = leakagePJ(cat, s.AreaMM2, s.LatencyS)
	return s, nil
}

// leakagePJ prices leakage across the whole chip for the whole run; the paper
// applies no power gating, so idle units leak too.
func leakagePJ(cat *hw.Catalogue, areaMM2, latencyS float64) float64 {
	leakW := cat.LeakageMWPerMM2 * 1e-3 * areaMM2
	return leakW * latencyS * 1e12
}

// Evaluate materializes the full per-layer evaluation at batch size 1.
func (p *ModelPlan) Evaluate(c hw.Config) (*Eval, error) {
	return p.EvaluateBatch(c, 1)
}

// EvaluateBatch materializes the full per-layer evaluation from the cached
// plans; identical to ppa.EvaluateBatch on the same inputs.
func (p *ModelPlan) EvaluateBatch(c hw.Config, batch int) (*Eval, error) {
	if err := p.check(c, batch); err != nil {
		return nil, err
	}
	cat := c.Catalogue()
	mix := !c.Mix.IsZero()
	var ft *foldTable
	var mixFts [hw.MaxMixTypes]*foldTable
	var macPJ float64
	if mix {
		p.mixFolds(&c, cat, &mixFts)
	} else {
		ft = p.foldsFor(c.SASize)
		macPJ = cat.SAFor(c.SASize, c.Precision).MacPJ
	}
	bytesPer := int64(c.Precision.Bytes())
	b := int64(batch)
	e := &Eval{Model: p.model, Config: c, AreaMM2: c.AreaMM2()}
	e.Layers = make([]LayerEval, len(p.layers))
	for i := range p.layers {
		var out kernelOut
		switch {
		case !p.layers[i].compute:
			out = elementKernel(&p.layers[i], &c, cat, batch)
		case mix:
			out = mixComputeKernel(&p.layers[i], mixFoldSource{tables: &mixFts, layer: i}, &c, cat, batch)
		default:
			fp := ft.at(i)
			out = computeKernelOn(&p.layers[i], &fp, c.SASize, c.NSA, macPJ,
				cat.ClockGHz, cat.SRAMBytePJ, bytesPer, b)
		}
		e.Layers[i] = LayerEval{
			Layer:      p.model.Layers[i],
			Index:      i,
			Unit:       p.layers[i].unit,
			Executions: out.executions,
			LatencyS:   out.latencyS,
			EnergyPJ:   out.energyPJ,
			OutBytes:   out.outBytes,
		}
		e.LatencyS += out.latencyS
		e.DynamicPJ += out.energyPJ
	}
	// Leakage across the whole chip for the whole run; the paper applies no
	// power gating, so idle units leak too.
	leakW := cat.LeakageMWPerMM2 * 1e-3 * e.AreaMM2
	e.LeakagePJ = leakW * e.LatencyS * 1e12
	return e, nil
}
