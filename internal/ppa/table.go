// Axis-factored cost tables: ModelPlan.Summary tabulated over a whole design
// space.
//
// On a Cartesian or mix space each layer's cost depends on one or two axes
// only. A compute layer's latency depends on (SASize, NSA), or on one chiplet
// type's count, and its dynamic energy on SASize or on the type. An
// activation or pooling layer's latency depends on its bank size alone, an
// engine's on nothing, and no element-wise energy on any axis. And layers of
// one shape (ModelPlan's shape ids) cost the same everywhere. A Table
// evaluates each shape's entries once, through the same kernels
// ModelPlan.Summary calls per point, so scoring a point reduces to adding
// cached entries in layer order: the same floats added in the same order,
// hence bit-identical to ModelPlan.Summary.
package ppa

import (
	"repro/internal/hw"
)

// Table is the cost table of one model over one hw.SpaceSpec or hw.MixSpace
// at batch 1, for one configuration template (the model's unit set,
// catalogue and precision). Its memory is O(shapes x rows): per
// non-pooling shape one entry per (SASize, NSA) pair or per (chiplet type,
// count) and per NAct value, and per pooling shape one per NPool value. A
// Table is immutable once built and safe for concurrent use.
type Table struct {
	plan *ModelPlan
	tmpl hw.Config
	cat  *hw.Catalogue // tmpl.Catalogue(), resolved once
	tail hw.AreaTail   // tmpl's pooling and engine unit areas, resolved once

	// Axis values. Points enumerate as block x NAct x NPool, NPool fastest,
	// where a block is one (SASize, NSA) pair, SASize outer, or one mix. A
	// run is one block and NAct value: len(pools) consecutive points that
	// differ only in NPool.
	sas, nsas   []int
	mixes       []hw.Mix
	acts, pools []int

	// Latency entries per shape, indexed by ModelPlan's shape ids. comp
	// holds one row per (SASize, NSA) pair, or per (chiplet type, count) on
	// a mix space, of one entry per non-pooling shape: the compute shapes'
	// latencies, zero at the others. actT holds one row per NAct value of
	// the same width: the other non-pooling shapes' latencies at that value
	// (an engine's are equal at every value), zero at the compute shapes.
	// So a non-pooling layer adds its comp entry plus its actT entry, one of
	// which is zero, and a chain walks the layers branching only at pooling
	// ones. act holds the actT entries of the non-compute shapes again,
	// shape-major, and pool the pooling shapes' entries per NPool value,
	// shape-major too: per shape, one entry per value, zero-padded to
	// actStride (poolStride), a multiple of lanes, so a lane group reads
	// each shape's entries from one contiguous span.
	comp, actT, act, pool []float64
	actStride, poolStride int

	// dyn is the model's whole dynamic energy per block, summed in layer
	// order: it depends on neither NAct nor NPool, nor on a homogeneous
	// block's NSA.
	dyn []float64

	// mixRow holds, per mix and chiplet type, the index of the type's comp
	// row, or -1 when the mix leaves the type out: nTypes entries per mix.
	mixRow []int32
	nTypes int
}

// NewTable tabulates the plan's costs over space for the configuration
// template tmpl, whose point is ignored. Rows are evaluated with the
// template's catalogue and precision, as ModelPlan.Summary evaluates a point.
// It returns nil unless space is a non-empty hw.SpaceSpec or hw.MixSpace,
// and nil when the template fails the plan's mix or coverage check at some
// point of the space: ModelPlan.Summary reports those points' errors.
func NewTable(p *ModelPlan, tmpl hw.Config, space hw.DesignSpace) *Table {
	if space == nil || space.Len() == 0 {
		return nil
	}
	t := &Table{plan: p, tmpl: tmpl, cat: tmpl.Catalogue(), tail: tmpl.AreaTail()}
	switch s := space.(type) {
	case hw.SpaceSpec:
		t.sas, t.nsas, t.acts, t.pools = s.SASizes, s.NSAs, s.NActs, s.NPools
		// Coverage is the template's and a homogeneous point has no mix, so
		// one point answers the check for all.
		c := tmpl
		c.Point = s.At(0)
		if p.check(c, 1) != nil {
			return nil
		}
	case hw.MixSpace:
		spec := s.Spec()
		t.mixes, t.acts, t.pools = s.Mixes(), spec.NActs, spec.NPools
		c := tmpl
		for _, m := range t.mixes {
			c.Point = hw.Point{Mix: m}
			if p.check(c, 1) != nil {
				return nil
			}
		}
	default:
		return nil
	}
	energy := t.elementRows()
	if t.mixes == nil {
		t.homogeneousRows(energy)
	} else {
		t.mixRows(energy)
	}
	return t
}

// Bytes returns the table's storage in bytes: its latency entries, its
// per-block energies and its mix row index.
func (t *Table) Bytes() int64 {
	return 8*int64(len(t.comp)+len(t.actT)+len(t.act)+len(t.pool)+len(t.dyn)) + 4*int64(len(t.mixRow))
}

// elementRows fills the element-wise shapes' latency entries. It returns
// each shape's dynamic energy where the energy does not depend on the
// block, the element-wise shapes': the compute shapes' entries are zero,
// for the caller to fill per block.
func (t *Table) elementRows() (energy []float64) {
	p := t.plan
	soa := &p.soa
	n := len(p.first)
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	t.actStride = (len(t.acts) + lanes - 1) / lanes * lanes
	t.poolStride = (len(t.pools) + lanes - 1) / lanes * lanes
	t.act = make([]float64, t.actStride*(p.poolLo-p.elemLo))
	t.actT = make([]float64, len(t.acts)*p.poolLo)
	t.pool = make([]float64, t.poolStride*(n-p.poolLo))
	energy = make([]float64, n)
	c := t.tmpl
	for s := p.elemLo; s < n; s++ {
		u := soa.unit[s]
		// Value j of the shape's axis lands at row[j].
		var row []float64
		var values []int
		if s < p.poolLo {
			row, values = t.act[(s-p.elemLo)*t.actStride:], t.acts
		} else {
			row, values = t.pool[(s-p.poolLo)*t.poolStride:], t.pools
		}
		for j, v := range values {
			c.NAct, c.NPool = v, v
			out := elementKernelVals(u, soa.elemOps[s], soa.outElems[s], c.BankCount(u), cat, bytesPer, 1)
			// An element layer's energy does not depend on the bank size.
			row[j], energy[s] = out.latencyS, out.energyPJ
			if s < p.poolLo {
				t.actT[j*p.poolLo+s] = out.latencyS
			}
		}
	}
	return energy
}

// layerSum returns the sum of each layer's shape entry of v, in layer
// order: a model's dynamic energy from its shapes' energies, added as
// ModelPlan.Summary adds its layers'.
func (p *ModelPlan) layerSum(v []float64) float64 {
	sum := 0.0
	for _, s := range p.shape {
		sum += v[s]
	}
	return sum
}

// homogeneousRows fills the compute row of every (SASize, NSA) pair and the
// dynamic energy of every block. A compute shape's energy does not depend
// on the count, so it is computed once per SASize.
func (t *Table) homogeneousRows(energy []float64) {
	p := t.plan
	soa := &p.soa
	nc := p.elemLo
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	w := p.poolLo
	t.comp = make([]float64, len(t.sas)*len(t.nsas)*w)
	t.dyn = make([]float64, len(t.sas)*len(t.nsas))
	for si, size := range t.sas {
		ft := p.foldsFor(size)
		macPJ := cat.SAFor(size, t.tmpl.Precision).MacPJ
		for s := range nc {
			energy[s] = computeEnergyPJ(soa.macs[s], soa.params[s], soa.inElems[s], soa.outElems[s],
				ft.colTiles[s], macPJ, cat.SRAMBytePJ, bytesPer, 1)
		}
		dyn := p.layerSum(energy)
		for ni, count := range t.nsas {
			b := si*len(t.nsas) + ni
			row := t.comp[b*w : b*w+nc]
			for s := range row {
				row[s] = computeLatencyS(ft.folds[s], ft.streams[s], size, count, cat.ClockGHz, 1)
			}
			t.dyn[b] = dyn
		}
	}
}

// mixRows fills the compute row of every (chiplet type, count) the space's
// mixes instantiate, each mix's row per type, and each mix's dynamic
// energy: per layer in layer order, the element-wise energy or the energy
// on the type the layer runs on, the fastest the mix instantiates.
func (t *Table) mixRows(energy []float64) {
	p := t.plan
	soa := &p.soa
	nc := p.elemLo
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	t.nTypes = len(cat.Chiplets)
	// One row per distinct (type, count) pair, numbered in first-use order.
	rowOf := make(map[[2]int]int32)
	t.mixRow = make([]int32, len(t.mixes)*t.nTypes)
	for j, m := range t.mixes {
		for ti := 0; ti < t.nTypes; ti++ {
			count := int(m.Counts[ti])
			if count == 0 {
				t.mixRow[j*t.nTypes+ti] = -1
				continue
			}
			r, ok := rowOf[[2]int{ti, count}]
			if !ok {
				r = int32(len(rowOf))
				rowOf[[2]int{ti, count}] = r
			}
			t.mixRow[j*t.nTypes+ti] = r
		}
	}
	w := p.poolLo
	t.comp = make([]float64, len(rowOf)*w)
	for key, r := range rowOf {
		spec := &cat.Chiplets[key[0]]
		ft := p.foldsFor(spec.SASize)
		row := t.comp[int(r)*w : int(r)*w+nc]
		for s := range row {
			row[s] = computeLatencyS(ft.folds[s], ft.streams[s], spec.SASize, key[1], cat.ClockGHz, 1)
		}
	}
	// The compute shapes' energies per type: they do not depend on the count.
	typeDyn := make([]float64, t.nTypes*nc)
	for ti := range cat.Chiplets {
		spec := &cat.Chiplets[ti]
		ft := p.foldsFor(spec.SASize)
		for s := range nc {
			typeDyn[ti*nc+s] = computeEnergyPJ(soa.macs[s], soa.params[s], soa.inElems[s], soa.outElems[s],
				ft.colTiles[s], spec.EnergyPerMACPJ, cat.SRAMBytePJ, bytesPer, 1)
		}
	}
	t.dyn = make([]float64, len(t.mixes))
	var rows blockRows
	for b := range t.mixes {
		t.blockRows(b, &rows)
		for s := range nc {
			x, _ := rows.fastest(s)
			energy[s] = typeDyn[int(rows.types[x])*nc+s]
		}
		t.dyn[b] = p.layerSum(energy)
	}
}

// blockRows is one block's compute rows: a homogeneous block's one row, or
// the rows of the nt chiplet types a mix instantiates, in type order, with
// those types' indices.
type blockRows struct {
	r     [hw.MaxMixTypes][]float64
	types [hw.MaxMixTypes]uint8
	nt    int
}

// blockRows sets rows to block b's compute rows.
func (t *Table) blockRows(b int, rows *blockRows) {
	w := t.plan.poolLo
	if t.mixes == nil {
		rows.r[0], rows.nt = t.comp[b*w:(b+1)*w], 1
		return
	}
	rows.nt = 0
	for ti, r := range t.mixRow[b*t.nTypes : (b+1)*t.nTypes] {
		if r >= 0 {
			rows.r[rows.nt], rows.types[rows.nt] = t.comp[int(r)*w:int(r+1)*w], uint8(ti)
			rows.nt++
		}
	}
}

// fastest returns which of the rows holds the least entry at non-pooling
// shape s, ties toward the first (the lowest type index, as ModelPlan's
// pass breaks them), and that entry: a compute shape's latency on the type
// that runs it, the one row's entry on a homogeneous block, and zero at
// the other shapes.
func (rows *blockRows) fastest(s int) (int, float64) {
	best, v := 0, rows.r[0][s]
	for x := 1; x < rows.nt; x++ {
		if l := rows.r[x][s]; l < v {
			best, v = x, l
		}
	}
	return best, v
}

// Summary returns the model's totals at point k of the table's space:
// bit-identical to ModelPlan.Summary(c, 1) where c is the template with
// space.At(k) stamped in. It is the one-point case of SummaryRange and
// performs no allocation.
func (t *Table) Summary(k int) Summary {
	var out [1]Summary
	t.SummaryRange(k, out[:])
	return out[0]
}

// lanes is the number of latency chains a gather sums at once, one register
// accumulator each: a lane group is lanes consecutive NAct (or NPool)
// indices, starting at a multiple of lanes.
const lanes = 8

// fewLanes is the most chains of one lane group a gather sums one at a time
// (chain) rather than all lanes at once (actLanes, poolLanes): a one-point
// gather then walks the layers once for its one point.
const fewLanes = 2

// SummaryRange writes the model's totals at the len(out) points from lo on
// into out: out[j] is what Summary(lo+j) returns. The range is gathered one
// block at a time. A block's points share their compute rows, a run's
// points their NAct entries too, and every point's latency chain agrees
// with its run's up to the model's first pooling layer: a block sums that
// prefix once per run, with lanes across NAct values, then fans each run
// out into lanes across NPool values for the layers from there on. Each
// point still adds its layers in layer order, the same floats in the same
// order as ModelPlan.Summary. It performs no allocation.
func (t *Table) SummaryRange(lo int, out []Summary) {
	per := len(t.acts) * len(t.pools)
	for j := 0; j < len(out); {
		k := lo + j
		m := min(per-k%per, len(out)-j)
		t.gatherBlock(k/per, k%per, out[j:j+m])
		j += m
	}
}

// gatherBlock writes the totals of block b's points from offset off (NAct
// index times len(pools) plus NPool index) on into out.
func (t *Table) gatherBlock(b, off int, out []Summary) {
	np := len(t.pools)
	end := off + len(out)
	c := t.tmpl
	if t.mixes != nil {
		c.Point = hw.Point{Mix: t.mixes[b]}
	} else {
		c.Point = hw.Point{SASize: t.sas[b/len(t.nsas)], NSA: t.nsas[b%len(t.nsas)]}
	}
	for a := off / np; a*np < end; a++ {
		// The compute and activation area terms are shared by the run.
		c.NAct = t.acts[a]
		prefix := c.AreaPrefixUM2()
		for k := max(off, a*np); k < min(end, (a+1)*np); k++ {
			out[k-off] = Summary{AreaMM2: t.tail.MM2(prefix, t.pools[k-a*np]), DynamicPJ: t.dyn[b]}
		}
	}
	var rows blockRows
	t.blockRows(b, &rows)
	shape, f := t.plan.shape, t.plan.firstPool
	for g := off / np / lanes * lanes; g*np < end; g += lanes {
		// The group's runs, g to g+lanes-1, hold the block's points
		// [g*np, (g+lanes)*np).
		lo, hi := max(off, g*np), min(end, (g+lanes)*np)
		if hi-lo <= fewLanes {
			// A group the range barely covers is summed one point at a time.
			for k := lo; k < hi; k++ {
				out[k-off].LatencyS = t.chain(&rows, k/np, k%np, 0, shape)
			}
			continue
		}
		// The runs' chains up to the first pooling layer. Lanes of the
		// group that fall outside the range are summed and dropped.
		a0, a1 := lo/np, (hi-1)/np+1
		var pre [lanes]float64
		switch {
		case f == 0:
		case a1-a0 <= fewLanes:
			for a := a0; a < a1; a++ {
				pre[a-g] = t.chain(&rows, a, 0, 0, shape[:f])
			}
		default:
			pre = t.actLanes(&rows, g, shape[:f])
		}
		for a := a0; a < a1; a++ {
			p0, p1 := max(lo, a*np)-a*np, min(hi, (a+1)*np)-a*np
			t.fanOut(&rows, a, pre[a-g], p0, out[a*np+p0-off:a*np+p1-off])
		}
	}
	for j := range out {
		s := &out[j]
		s.LeakagePJ = leakagePJ(t.cat, s.AreaMM2, s.LatencyS)
	}
}

// fanOut writes into out the latencies of run a's points from NPool index
// p0 on, whose chains all equal pre up to the first pooling layer.
func (t *Table) fanOut(rows *blockRows, a int, pre float64, p0 int, out []Summary) {
	shape := t.plan.shape[t.plan.firstPool:]
	if len(shape) == 0 {
		// Without a pooling layer every point of the run adds the same chain.
		for j := range out {
			out[j].LatencyS = pre
		}
		return
	}
	p1 := p0 + len(out)
	for q := p0 / lanes * lanes; q < p1; q += lanes {
		lo, hi := max(q, p0), min(q+lanes, p1)
		if hi-lo <= fewLanes {
			for x := lo; x < hi; x++ {
				out[x-p0].LatencyS = t.chain(rows, a, x, pre, shape)
			}
			continue
		}
		acc := t.poolLanes(rows, a, q, pre, shape)
		for x := lo; x < hi; x++ {
			out[x-p0].LatencyS = acc[x-q]
		}
	}
}

// chain returns acc plus the latencies, in order, of the layers whose shape
// ids shape lists, at NAct index a and NPool index x of a block with
// compute rows rows. A pooling layer adds its NPool entry and any other
// layer its compute row entry (on a mix, the fastest type's) plus its NAct
// entry, one of which is zero: exactly the per-layer term
// ModelPlan.Summary adds.
func (t *Table) chain(rows *blockRows, a, x int, acc float64, shape []uint32) float64 {
	pl := t.plan.poolLo
	act, pool, ps := t.actT[a*pl:(a+1)*pl], t.pool, t.poolStride
	// A homogeneous block's one row is read directly: through fastest, a
	// one-point gather costs about a third more.
	if rows.nt == 1 {
		row := rows.r[0][:pl]
		for _, id := range shape {
			s := int(id)
			if s >= pl {
				acc += pool[(s-pl)*ps+x]
				continue
			}
			acc += row[s] + act[s]
		}
		return acc
	}
	for _, id := range shape {
		s := int(id)
		if s >= pl {
			acc += pool[(s-pl)*ps+x]
			continue
		}
		_, v := rows.fastest(s)
		acc += v + act[s]
	}
	return acc
}

// actLanes returns the chains of the lane group at NAct index g, each from
// zero, over the layers whose shape ids shape lists, none of them pooling:
// a compute layer adds the same entry to every lane, any other layer each
// lane's own NAct entry. Lane j equals chain at NAct index g+j.
func (t *Table) actLanes(rows *blockRows, g int, shape []uint32) [lanes]float64 {
	nc := t.plan.elemLo
	act, as := t.act, t.actStride
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for _, id := range shape {
		s := int(id)
		if s < nc {
			_, v := rows.fastest(s)
			a0 += v
			a1 += v
			a2 += v
			a3 += v
			a4 += v
			a5 += v
			a6 += v
			a7 += v
			continue
		}
		e := act[(s-nc)*as+g:][:lanes]
		a0 += e[0]
		a1 += e[1]
		a2 += e[2]
		a3 += e[3]
		a4 += e[4]
		a5 += e[5]
		a6 += e[6]
		a7 += e[7]
	}
	return [lanes]float64{a0, a1, a2, a3, a4, a5, a6, a7}
}

// poolLanes returns the chains of the lane group at NPool index q of run a,
// each from pre, over the layers whose shape ids shape lists: a pooling
// layer adds each lane's own NPool entry, any other layer the same entry to
// every lane. Lane j equals chain at NPool index q+j.
func (t *Table) poolLanes(rows *blockRows, a, q int, pre float64, shape []uint32) [lanes]float64 {
	pl := t.plan.poolLo
	act, pool, ps := t.actT[a*pl:(a+1)*pl], t.pool, t.poolStride
	a0, a1, a2, a3, a4, a5, a6, a7 := pre, pre, pre, pre, pre, pre, pre, pre
	for _, id := range shape {
		s := int(id)
		if s >= pl {
			e := pool[(s-pl)*ps+q:][:lanes]
			a0 += e[0]
			a1 += e[1]
			a2 += e[2]
			a3 += e[3]
			a4 += e[4]
			a5 += e[5]
			a6 += e[6]
			a7 += e[7]
			continue
		}
		_, v := rows.fastest(s)
		v += act[s]
		a0 += v
		a1 += v
		a2 += v
		a3 += v
		a4 += v
		a5 += v
		a6 += v
		a7 += v
	}
	return [lanes]float64{a0, a1, a2, a3, a4, a5, a6, a7}
}
