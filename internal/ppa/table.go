// Axis-factored cost tables: ModelPlan.Summary tabulated over a whole design
// space.
//
// On a Cartesian or mix space each layer's cost depends on one or two axes
// only. A compute layer's latency depends on (SASize, NSA), or on one chiplet
// type's count, and its dynamic energy on SASize or on the type. An
// activation or pooling layer's latency depends on its bank size alone, an
// engine's on nothing, and no element-wise energy on any axis. A Table
// evaluates each such row once, through the same computeKernelVals and
// elementKernelVals calls ModelPlan.Summary makes per point, so scoring a
// point reduces to adding cached rows in layer order: the same floats added
// in the same order, hence bit-identical to ModelPlan.Summary.
package ppa

import (
	"repro/internal/hw"
)

// Table is the cost table of one model over one hw.SpaceSpec or hw.MixSpace
// at batch 1, for one configuration template (the model's unit set,
// catalogue and precision). Its memory is O(layers x rows): one compute row
// per (SASize, NSA) pair or per (chiplet type, count), one row per NAct and
// per NPool value, and one engine row. A Table is immutable once built and
// safe for concurrent use.
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

	// Latency rows. A row is zero at every layer it does not price, so
	// exactly one of a layer's compute, act, pool and engine entries can be
	// non-zero and their sum is that entry exactly. A row holds one entry
	// per layer: comp one row per (SASize, NSA) pair, act one per NAct
	// value, and eng one row. pool is layer-major: per layer, one entry per
	// NPool value, zero-padded to poolStride, a multiple of lanes, so a lane
	// group reads each layer's entries from one contiguous span. isPool
	// marks the pooling layers, the only ones whose latency differs between
	// the points of a run.
	comp       []float64 // compute layers
	act        []float64 // activation layers
	pool       []float64 // pooling layers
	eng        []float64 // engine layers
	poolStride int
	isPool     []bool

	// dyn is the model's whole dynamic energy per SASize, summed in layer
	// order: on a homogeneous space no layer's energy depends on NSA, NAct
	// or NPool.
	dyn []float64

	// elemDyn holds the element layers' energies, zero at compute layers.
	elemDyn []float64

	// Mix spaces: compute latency rows per (type, count); per mix and type,
	// the index of that type's row (-1 when the mix leaves the type out);
	// and the compute layers' energies per type.
	typeLat []float64
	mixRow  []int32 // nTypes entries per mix
	typeDyn []float64
	nTypes  int
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
	t.elementRows()
	if t.mixes == nil {
		t.homogeneousRows()
	} else {
		t.mixRows()
	}
	return t
}

// elementRows fills the activation, pooling and engine latency rows and the
// element layers' energies.
func (t *Table) elementRows() {
	soa := &t.plan.soa
	n := len(soa.compute)
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	t.poolStride = (len(t.pools) + lanes - 1) / lanes * lanes
	t.act = make([]float64, len(t.acts)*n)
	t.pool = make([]float64, t.poolStride*n)
	t.eng = make([]float64, n)
	t.isPool = make([]bool, n)
	t.elemDyn = make([]float64, n)
	c := t.tmpl
	for i := range soa.compute {
		u := soa.unit[i]
		// Value j of the layer's axis lands at row[base+j*step].
		var row []float64
		var values []int
		var base, step int
		switch {
		case soa.compute[i]:
			continue
		case u.IsActivation():
			row, values, base, step = t.act, t.acts, i, n
		case u.IsPooling():
			row, values, base, step = t.pool, t.pools, i*t.poolStride, 1
			t.isPool[i] = true
		default:
			out := elementKernelVals(u, soa.elemOps[i], soa.outElems[i], c.BankCount(u), cat, bytesPer, 1)
			t.eng[i], t.elemDyn[i] = out.latencyS, out.energyPJ
			continue
		}
		for j, v := range values {
			c.NAct, c.NPool = v, v
			out := elementKernelVals(u, soa.elemOps[i], soa.outElems[i], c.BankCount(u), cat, bytesPer, 1)
			// An element layer's energy does not depend on the bank size.
			row[base+j*step], t.elemDyn[i] = out.latencyS, out.energyPJ
		}
	}
}

// homogeneousRows fills the compute latency row of every (SASize, NSA) pair
// and the dynamic energy of every SASize, accumulating energy in layer order
// exactly as ModelPlan.Summary does.
func (t *Table) homogeneousRows() {
	soa := &t.plan.soa
	n := len(soa.compute)
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	clockGHz, sramBytePJ := cat.ClockGHz, cat.SRAMBytePJ
	t.comp = make([]float64, len(t.sas)*len(t.nsas)*n)
	t.dyn = make([]float64, len(t.sas))
	for si, size := range t.sas {
		ft := t.plan.foldsFor(size)
		macPJ := cat.SAFor(size, t.tmpl.Precision).MacPJ
		dyn := 0.0
		for i := range soa.compute {
			if !soa.compute[i] {
				dyn += t.elemDyn[i]
				continue
			}
			for ni, count := range t.nsas {
				out := computeKernelVals(soa.macs[i], soa.params[i], soa.inElems[i], soa.outElems[i],
					ft.folds[i], ft.streams[i], ft.colTiles[i], size, count,
					macPJ, clockGHz, sramBytePJ, bytesPer, 1)
				t.comp[(si*len(t.nsas)+ni)*n+i] = out.latencyS
				if ni == 0 {
					// A compute layer's energy does not depend on the count.
					dyn += out.energyPJ
				}
			}
		}
		t.dyn[si] = dyn
	}
}

// mixRows fills the compute latency row of every (chiplet type, count) the
// space's mixes instantiate, each mix's row per type, and the per-type and
// element-layer energies.
func (t *Table) mixRows() {
	soa := &t.plan.soa
	n := len(soa.compute)
	cat := t.cat
	bytesPer := int64(t.tmpl.Precision.Bytes())
	clockGHz, sramBytePJ := cat.ClockGHz, cat.SRAMBytePJ
	t.nTypes = len(cat.Chiplets)
	t.typeDyn = make([]float64, t.nTypes*n)
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
	t.typeLat = make([]float64, len(rowOf)*n)
	for key, r := range rowOf {
		ti, count := key[0], key[1]
		spec := &cat.Chiplets[ti]
		ft := t.plan.foldsFor(spec.SASize)
		for i := range soa.compute {
			if !soa.compute[i] {
				continue
			}
			out := computeKernelVals(soa.macs[i], soa.params[i], soa.inElems[i], soa.outElems[i],
				ft.folds[i], ft.streams[i], ft.colTiles[i], spec.SASize, count,
				spec.EnergyPerMACPJ, clockGHz, sramBytePJ, bytesPer, 1)
			t.typeLat[int(r)*n+i] = out.latencyS
			// A compute layer's energy does not depend on the count.
			t.typeDyn[ti*n+i] = out.energyPJ
		}
	}
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

// lanes is the number of points whose latency chains a gather sums at once,
// one register accumulator each: a lane group is lanes consecutive NPool
// indices of one run, starting at a multiple of lanes.
const lanes = 8

// fewLanes is the most points of one lane group a gather sums one lane at a
// time (laneSum) rather than all lanes at once (laneSums): a one-point
// gather then walks the layers once for its one point.
const fewLanes = 2

// SummaryRange writes the model's totals at the len(out) points from lo on
// into out: out[j] is what Summary(lo+j) returns. The range is
// gathered one run at a time. A run's points share their compute,
// activation and engine rows and differ only in their pool entries, so
// their latency chains are summed interleaved, a lane group at a time; each
// point still adds its layers in layer order, the same floats in the same
// order as ModelPlan.Summary. It performs no allocation.
func (t *Table) SummaryRange(lo int, out []Summary) {
	np := len(t.pools)
	for j := 0; j < len(out); {
		k := lo + j
		m := min(np-k%np, len(out)-j)
		t.gatherRun(k/np, k%np, out[j:j+m])
		j += m
	}
}

// gatherRun writes the totals of run r's points from NPool index p on into
// out.
func (t *Table) gatherRun(r, p int, out []Summary) {
	b, ai := r/len(t.acts), r%len(t.acts)
	c := t.tmpl
	if t.mixes != nil {
		c.Point = hw.Point{Mix: t.mixes[b], NAct: t.acts[ai]}
	} else {
		c.Point = hw.Point{SASize: t.sas[b/len(t.nsas)], NSA: t.nsas[b%len(t.nsas)], NAct: t.acts[ai]}
	}
	// The compute and activation area terms are shared by the run.
	prefix := c.AreaPrefixUM2()
	for j, v := range t.pools[p : p+len(out)] {
		out[j] = Summary{AreaMM2: t.tail.MM2(prefix, v)}
	}
	var dyn float64
	if t.mixes == nil {
		dyn = t.dyn[b/len(t.nsas)]
	}
	for g := p - p%lanes; g < p+len(out); g += lanes {
		lo, hi := max(g, p), min(g+lanes, p+len(out))
		if hi-lo <= fewLanes {
			// A group the range barely covers is summed one lane at a time.
			for x := lo; x < hi; x++ {
				if t.mixes == nil {
					out[x-p].LatencyS = t.laneSum(b, ai, x)
				} else {
					out[x-p].LatencyS, dyn = t.mixLaneSum(b, ai, x)
				}
			}
			continue
		}
		// Lanes of the group that fall outside the range are summed and
		// dropped.
		var acc [lanes]float64
		if t.mixes == nil {
			acc = t.laneSums(b, ai, g)
		} else {
			acc, dyn = t.mixLaneSums(b, ai, g)
		}
		for x := lo; x < hi; x++ {
			out[x-p].LatencyS = acc[x-g]
		}
	}
	for j := range out {
		s := &out[j]
		s.DynamicPJ = dyn
		s.LeakagePJ = leakagePJ(t.cat, s.AreaMM2, s.LatencyS)
	}
}

// laneSums returns the latencies of the lane group at NPool index g of
// block b and NAct index ai on a homogeneous space. Every layer but a
// pooling one adds comp + act + eng, the layer's one non-zero entry, to
// every lane; a pooling layer adds each lane's own pool entry. Either way a
// lane adds exactly the per-layer sum ModelPlan.Summary adds, in layer
// order.
func (t *Table) laneSums(b, ai, g int) [lanes]float64 {
	n := len(t.plan.soa.compute)
	comp, act, eng := t.comp[b*n:(b+1)*n], t.act[ai*n:(ai+1)*n], t.eng[:n]
	isPool, pool, stride := t.isPool[:n], t.pool[g:], t.poolStride
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for i := range comp {
		if isPool[i] {
			row := pool[i*stride:][:lanes]
			a0 += row[0]
			a1 += row[1]
			a2 += row[2]
			a3 += row[3]
			a4 += row[4]
			a5 += row[5]
			a6 += row[6]
			a7 += row[7]
			continue
		}
		v := comp[i] + act[i] + eng[i]
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

// laneSum is laneSums for the one lane at NPool index x: the same per-layer
// values added in the same order, so it returns laneSums' lane x exactly.
func (t *Table) laneSum(b, ai, x int) float64 {
	n := len(t.plan.soa.compute)
	comp, act, eng := t.comp[b*n:(b+1)*n], t.act[ai*n:(ai+1)*n], t.eng[:n]
	isPool, pool, stride := t.isPool[:n], t.pool[x:], t.poolStride
	var a float64
	for i := range comp {
		if isPool[i] {
			a += pool[i*stride]
			continue
		}
		a += comp[i] + act[i] + eng[i]
	}
	return a
}

// mixTypes returns the compute latency rows and energies of the nt chiplet
// types mix b instantiates, in type order.
func (t *Table) mixTypes(b int) (lat, typeDyn [hw.MaxMixTypes][]float64, nt int) {
	n := len(t.plan.soa.compute)
	for ti, row := range t.mixRow[b*t.nTypes : (b+1)*t.nTypes] {
		if row >= 0 {
			lat[nt] = t.typeLat[int(row)*n : int(row+1)*n]
			typeDyn[nt] = t.typeDyn[ti*n : (ti+1)*n]
			nt++
		}
	}
	return lat, typeDyn, nt
}

// mixLaneSums is laneSums on a mix space, where each compute layer runs on
// the fastest chiplet type mix b instantiates (ties toward the lowest type
// index, as ModelPlan's pass breaks them). It also returns the mix's
// dynamic energy, summed in layer order; it depends on neither NAct nor
// NPool.
func (t *Table) mixLaneSums(b, ai, g int) ([lanes]float64, float64) {
	n := len(t.plan.soa.compute)
	lat, typeDyn, nt := t.mixTypes(b)
	compute, act, eng, elemDyn := t.plan.soa.compute[:n], t.act[ai*n:(ai+1)*n], t.eng[:n], t.elemDyn[:n]
	isPool, pool, stride := t.isPool[:n], t.pool[g:], t.poolStride
	var dyn, a0, a1, a2, a3, a4, a5, a6, a7 float64
	for i := range compute {
		if isPool[i] {
			row := pool[i*stride:][:lanes]
			a0 += row[0]
			a1 += row[1]
			a2 += row[2]
			a3 += row[3]
			a4 += row[4]
			a5 += row[5]
			a6 += row[6]
			a7 += row[7]
			dyn += elemDyn[i]
			continue
		}
		var v float64
		if compute[i] {
			best := 0
			v = lat[0][i]
			for x := 1; x < nt; x++ {
				if l := lat[x][i]; l < v {
					best, v = x, l
				}
			}
			dyn += typeDyn[best][i]
		} else {
			v = act[i] + eng[i]
			dyn += elemDyn[i]
		}
		a0 += v
		a1 += v
		a2 += v
		a3 += v
		a4 += v
		a5 += v
		a6 += v
		a7 += v
	}
	return [lanes]float64{a0, a1, a2, a3, a4, a5, a6, a7}, dyn
}

// mixLaneSum is mixLaneSums for the one lane at NPool index x, with the
// mix's dynamic energy.
func (t *Table) mixLaneSum(b, ai, x int) (float64, float64) {
	n := len(t.plan.soa.compute)
	lat, typeDyn, nt := t.mixTypes(b)
	compute, act, eng, elemDyn := t.plan.soa.compute[:n], t.act[ai*n:(ai+1)*n], t.eng[:n], t.elemDyn[:n]
	isPool, pool, stride := t.isPool[:n], t.pool[x:], t.poolStride
	var dyn, a float64
	for i := range compute {
		switch {
		case isPool[i]:
			a += pool[i*stride]
			dyn += elemDyn[i]
		case compute[i]:
			best := 0
			v := lat[0][i]
			for y := 1; y < nt; y++ {
				if l := lat[y][i]; l < v {
					best, v = y, l
				}
			}
			a += v
			dyn += typeDyn[best][i]
		default:
			a += act[i] + eng[i]
			dyn += elemDyn[i]
		}
	}
	return a, dyn
}
