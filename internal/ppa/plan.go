// Layer-granular cost kernels and precomputed model plans.
//
// The analytical model factors cleanly by layer, and each layer's cost
// depends only on a small sub-parameterization of the configuration: a
// compute layer's fold/stream decomposition depends only on (layer, SASize)
// — 3 distinct values across the whole 81-point space, not 81 — and an
// element-wise layer depends only on (layer, bank count, precision). A
// ModelPlan numbers the model's distinct layer shapes (transformers repeat
// a few shapes hundreds of times), precomputes everything that is
// configuration-independent (MAC/param/element counts) once per shape and
// caches the per-SASize fold decompositions, so evaluating one space point
// collapses to closed-form arithmetic over cached integers with near-zero
// allocation.
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
// evaluation all price compute layers through this one function or its two
// halves, computeLatencyS and computeEnergyPJ, so they share one
// floating-point operation order. It touches only its arguments and
// performs no allocation.
func computeKernelVals(macs, params, inElems, outElems, folds, streams, colTiles int64,
	size, count int, macPJ, clockGHz, sramBytePJ float64, bytesPer, b int64) kernelOut {
	return kernelOut{
		executions: folds,
		latencyS:   computeLatencyS(folds, streams, size, count, clockGHz, b),
		energyPJ:   computeEnergyPJ(macs, params, inElems, outElems, colTiles, macPJ, sramBytePJ, bytesPer, b),
		outBytes:   b * outElems * bytesPer,
	}
}

// computeLatencyS is the compute kernel's latency: folds execute across the
// count arrays in waves; each fold loads its weight tile (size cycles),
// streams the whole batch's activations, and drains the pipeline (2*size - 2
// cycles of skew) — for batch 1, exactly the cycle count of the PE-level
// simulator in internal/systolic.
func computeLatencyS(folds, streams int64, size, count int, clockGHz float64, b int64) float64 {
	waves := ceilDiv(folds, int64(count))
	cyclesPerFold := b*streams + 3*int64(size) - 2
	cycles := waves * cyclesPerFold
	return float64(cycles) / (clockGHz * 1e9)
}

// computeEnergyPJ is the compute kernel's dynamic energy: real MACs plus
// activation/weight movement through the local SRAM. Inputs are re-streamed
// once per output-column tile; the weight tile is read once per fold
// regardless of batch. It does not depend on the array count.
func computeEnergyPJ(macs, params, inElems, outElems, colTiles int64, macPJ, sramBytePJ float64, bytesPer, b int64) float64 {
	macE := float64(b*macs) * macPJ
	moveBytes := float64(b * (inElems*colTiles + outElems) * bytesPer)
	weightBytes := float64(params * bytesPer)
	return macE + (moveBytes+weightBytes)*sramBytePJ
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

// planSoA is a model's per-shape counts as dense columns indexed by shape
// id, so the plan's pass and the cost-table builds walk contiguous slices.
// Compute shapes fill macs, params and inElems, element-wise shapes
// elemOps; every shape fills unit and outElems.
type planSoA struct {
	unit     []hw.Unit
	macs     []int64
	params   []int64
	inElems  []int64
	elemOps  []int64
	outElems []int64
}

// grow sizes every column for n shapes. All five int64 columns share one
// backing array (three-index sliced so appends cannot bleed across), so a
// cold plan build costs two allocations here instead of six.
func (s *planSoA) grow(n int) {
	ints := make([]int64, 5*n)
	s.macs = ints[0*n : 1*n : 1*n]
	s.params = ints[1*n : 2*n : 2*n]
	s.inElems = ints[2*n : 3*n : 3*n]
	s.elemOps = ints[3*n : 4*n : 4*n]
	s.outElems = ints[4*n:]
	s.unit = make([]hw.Unit, n)
}

// foldTable caches every compute shape's fold decomposition for one array
// dimension as dense columns over one shared backing array: the
// weight-stationary fold and stream counts, and the output-column tiles
// that govern activation re-streaming.
type foldTable struct {
	folds, streams, colTiles []int64
}

// newFoldTable builds the plan's decompositions for one array dimension.
func newFoldTable(p *ModelPlan, size int) *foldTable {
	n := p.elemLo
	cols := make([]int64, 3*n) // one backing array for all three columns
	ft := &foldTable{
		folds:    cols[:n:n],
		streams:  cols[n : 2*n : 2*n],
		colTiles: cols[2*n:],
	}
	for s, i := range p.first[:n] {
		l := &p.model.Layers[i]
		ft.folds[s], ft.streams[s] = Folds(*l, size)
		ft.colTiles[s] = colTiles(l.NOFM, size)
	}
	return ft
}

// ModelPlan is the precomputed cost plan of one model. Every layer has a
// shape id: layers equal in every field but their names share one, so they
// have equal kernel inputs and equal costs on every configuration. The
// plan holds each layer's id and, per shape, its counts as dense columns
// and a lazily grown cache of per-SASize fold tables; the cost tables price
// each shape once. A ModelPlan is safe for concurrent use; the underlying
// model must not be structurally mutated after the plan is built.
type ModelPlan struct {
	model *workload.Model
	// shape holds each layer's shape id, first each shape's first layer.
	// Ids come in three groups, which the cost tables lay out differently:
	// the compute shapes below elemLo, the pooling shapes from poolLo on,
	// and the other element-wise shapes (activations and engines) between.
	// Within a group ids follow first appearance.
	shape, first   []uint32
	elemLo, poolLo int
	// firstPool is the index of the first pooling layer, or the layer count
	// when the model has none: a cost table's points that differ only in
	// NPool share every latency term before it.
	firstPool int
	soa       planSoA    // per shape
	units     hw.UnitSet // required units, for allocation-free coverage checks

	mu    sync.RWMutex
	folds map[int]*foldTable // SASize -> decomposition table of the compute shapes
}

// NewModelPlan builds the plan for a model, numbering its layer shapes and
// precomputing every configuration-independent per-shape quantity.
func NewModelPlan(m *workload.Model) *ModelPlan {
	p := &ModelPlan{model: m, folds: make(map[int]*foldTable, 8), firstPool: len(m.Layers)}
	p.shape, p.first, p.elemLo, p.poolLo = numberShapes(m.Layers)
	s := &p.soa
	s.grow(len(p.first))
	for id, i := range p.first {
		l := &m.Layers[i]
		s.outElems[id], s.unit[id] = l.OutputElems(), hw.UnitFor(l.Kind)
		if id < p.elemLo {
			s.macs[id], s.params[id], s.inElems[id] = l.MACs(), l.Params(), l.InputElems()
		} else {
			s.elemOps[id] = l.ElementOps()
		}
		p.units = p.units.With(s.unit[id])
	}
	for i, id := range p.shape {
		if int(id) >= p.poolLo {
			p.firstPool = i
			break
		}
	}
	return p
}

// shapeGroup returns the group of ModelPlan's shape ids a layer kind falls
// in: 0 compute, 1 another element-wise kind, 2 pooling.
func shapeGroup(k workload.OpKind) int {
	switch {
	case k.IsCompute():
		return 0
	case hw.UnitFor(k).IsPooling():
		return 2
	}
	return 1
}

// numberShapes returns each layer's shape id, each shape's first layer and
// the ids where the element-wise and the pooling shapes start (ModelPlan's
// grouping). It hashes each layer into an open-addressed table of
// first-layer indices, numbering shapes in order of first appearance, then
// regroups them, so numbering costs two allocations at any layer count.
func numberShapes(layers []workload.Layer) (ids, first []uint32, elemLo, poolLo int) {
	n := len(layers)
	buf := make([]uint32, 2*n)
	ids, first = buf[:n:n], buf[n:n]
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	mask := 1<<bits - 1
	slots := make([]uint32, 1<<bits) // first layer's index + 1, 0 when empty
	for i := range layers {
		l := &layers[i]
		for h := int(shapeHash(l) >> (64 - bits)); ; h = (h + 1) & mask {
			if slots[h] == 0 {
				slots[h], ids[i] = uint32(i+1), uint32(len(first))
				first = append(first, uint32(i))
				break
			}
			if j := slots[h] - 1; sameShape(l, &layers[j]) {
				ids[i] = ids[j]
				break
			}
		}
	}
	// Regroup, stably within each group, in the table's space, which holds
	// at least two entries per shape.
	var next [3]int // each group's next id
	for _, i := range first {
		next[shapeGroup(layers[i].Kind)]++
	}
	next[0], next[1], next[2] = 0, next[0], next[0]+next[1]
	elemLo, poolLo = next[1], next[2]
	remap, moved := slots[:len(first)], slots[len(first):2*len(first)]
	for s, i := range first {
		g := shapeGroup(layers[i].Kind)
		remap[s] = uint32(next[g])
		moved[next[g]] = i
		next[g]++
	}
	copy(first, moved)
	for i, id := range ids {
		ids[i] = remap[id]
	}
	return ids, first, elemLo, poolLo
}

// shapeHash mixes a layer's shape fields, multiplicatively, so the hash's
// high bits spread. Equal shapes hash equal; sameShape decides equality.
func shapeHash(l *workload.Layer) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]int{int(l.Kind), l.IFMX, l.IFMY, l.NIFM, l.OFMX, l.OFMY, l.NOFM,
		l.KX, l.KY, l.Stride, l.Pad, l.Groups, l.Copies, l.ActiveCopies} {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// sameShape reports whether two layers agree in every field but their
// names, all the kernels read.
func sameShape(a, b *workload.Layer) bool {
	x, y := *a, *b
	x.Name, y.Name = "", ""
	return x == y
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
	out := make([]LayerTraffic, len(p.shape))
	for i, s := range p.shape {
		out[i] = LayerTraffic{Unit: p.soa.unit[s], OutBytes: b * p.soa.outElems[s] * bytesPer}
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
	ft = newFoldTable(p, size)
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
	e := &Eval{Model: p.model, Config: c, Layers: make([]LayerEval, len(p.shape))}
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
// check. Each layer is priced once, from its shape's columns: an
// element-wise layer on its unit's bank, a compute layer on the
// configuration's arrays or, on a mix, on the active chiplet type that
// finishes it first, ties to the lowest type index.
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
	for i, id := range p.shape {
		var out kernelOut
		switch {
		case int(id) >= p.elemLo:
			out = elementKernelVals(soa.unit[id], soa.elemOps[id], soa.outElems[id],
				c.BankCount(soa.unit[id]), cat, bytesPer, b)
		case !mix:
			out = computeKernelVals(soa.macs[id], soa.params[id], soa.inElems[id], soa.outElems[id],
				ft.folds[id], ft.streams[id], ft.colTiles[id], size, count,
				macPJ, clockGHz, sramBytePJ, bytesPer, b)
		default:
			for x := range types[:nt] {
				t := &types[x]
				o := computeKernelVals(soa.macs[id], soa.params[id], soa.inElems[id], soa.outElems[id],
					t.ft.folds[id], t.ft.streams[id], t.ft.colTiles[id], t.size, t.count,
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
		layers[i] = LayerEval{Index: i, Layer: p.model.Layers[i], Unit: soa.unit[id],
			Executions: out.executions, LatencyS: out.latencyS, EnergyPJ: out.energyPJ, OutBytes: out.outBytes}
	}
	s.LeakagePJ = leakagePJ(cat, s.AreaMM2, s.LatencyS)
	return s
}
