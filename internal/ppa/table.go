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
	// delegate is set when the template fails the plan's batch, mix or
	// coverage check at some point of the space; Summary then returns
	// ModelPlan.Summary's own result and error at every point.
	delegate bool

	// Axis values. Points enumerate as block x NAct x NPool, NPool fastest,
	// where a block is one (SASize, NSA) pair, SASize outer, or one mix.
	sas, nsas   []int
	mixes       []hw.Mix
	acts, pools []int

	// Latency rows of len(plan.layers) entries each. A row is zero at every
	// layer it does not price, so exactly one of a layer's compute, act, pool
	// and engine entries can be non-zero and their sum is that entry exactly.
	comp      []float64 // per (SASize, NSA) pair: compute layers
	act, pool []float64 // per NAct / NPool value: activation / pooling layers
	eng       []float64 // engine layers

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
// It returns nil unless space is a non-empty hw.SpaceSpec or hw.MixSpace.
func NewTable(p *ModelPlan, tmpl hw.Config, space hw.DesignSpace) *Table {
	if space == nil || space.Len() == 0 {
		return nil
	}
	t := &Table{plan: p, tmpl: tmpl, cat: tmpl.Catalogue()}
	switch s := space.(type) {
	case hw.SpaceSpec:
		t.sas, t.nsas, t.acts, t.pools = s.SASizes, s.NSAs, s.NActs, s.NPools
		c := tmpl
		c.Point = s.At(0)
		t.delegate = p.check(c, 1) != nil
	case hw.MixSpace:
		spec := s.Spec()
		t.mixes, t.acts, t.pools = s.Mixes(), spec.NActs, spec.NPools
		c := tmpl
		for _, m := range t.mixes {
			c.Point = hw.Point{Mix: m}
			if p.check(c, 1) != nil {
				t.delegate = true
				break
			}
		}
	default:
		return nil
	}
	if t.delegate {
		return t
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
	t.act = make([]float64, len(t.acts)*n)
	t.pool = make([]float64, len(t.pools)*n)
	t.eng = make([]float64, n)
	t.elemDyn = make([]float64, n)
	c := t.tmpl
	for i := range soa.compute {
		u := soa.unit[i]
		var row []float64
		var values []int
		switch {
		case soa.compute[i]:
			continue
		case u.IsActivation():
			row, values = t.act, t.acts
		case u.IsPooling():
			row, values = t.pool, t.pools
		default:
			out := elementKernelVals(u, soa.elemOps[i], soa.outElems[i], bankCount(u, &c), cat, bytesPer, 1)
			t.eng[i], t.elemDyn[i] = out.latencyS, out.energyPJ
			continue
		}
		for j, v := range values {
			c.NAct, c.NPool = v, v
			out := elementKernelVals(u, soa.elemOps[i], soa.outElems[i], bankCount(u, &c), cat, bytesPer, 1)
			// An element layer's energy does not depend on the bank size.
			row[j*n+i], t.elemDyn[i] = out.latencyS, out.energyPJ
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
// bit-identical, error included, to ModelPlan.Summary(c, 1) where c is the
// template with space.At(k) stamped in. It performs no allocation.
func (t *Table) Summary(k int) (Summary, error) {
	n := len(t.plan.layers)
	block := len(t.acts) * len(t.pools)
	b, ai, pi := k/block, k%block/len(t.pools), k%len(t.pools)
	c := t.tmpl
	if t.mixes != nil {
		c.Point = hw.Point{Mix: t.mixes[b], NAct: t.acts[ai], NPool: t.pools[pi]}
	} else {
		c.Point = hw.Point{SASize: t.sas[b/len(t.nsas)], NSA: t.nsas[b%len(t.nsas)],
			NAct: t.acts[ai], NPool: t.pools[pi]}
	}
	if t.delegate {
		return t.plan.Summary(c, 1)
	}
	s := Summary{AreaMM2: c.AreaMM2()}
	act := t.act[ai*n : (ai+1)*n]
	pool := t.pool[pi*n : (pi+1)*n]
	eng := t.eng[:n]
	if t.mixes == nil {
		comp := t.comp[b*n : (b+1)*n]
		for i := range comp {
			s.LatencyS += comp[i] + act[i] + pool[i] + eng[i]
		}
		s.DynamicPJ = t.dyn[b/len(t.nsas)]
	} else {
		// The rows and energies of the types this mix instantiates, in type
		// order, so the per-layer dispatch below keeps mixComputeKernel's
		// tie-break toward the lowest type index.
		var lat, dyn [hw.MaxMixTypes][]float64
		nt := 0
		for ti, r := range t.mixRow[b*t.nTypes : (b+1)*t.nTypes] {
			if r >= 0 {
				lat[nt] = t.typeLat[int(r)*n : int(r+1)*n]
				dyn[nt] = t.typeDyn[ti*n : (ti+1)*n]
				nt++
			}
		}
		for i, compute := range t.plan.soa.compute {
			if !compute {
				s.LatencyS += act[i] + pool[i] + eng[i]
				s.DynamicPJ += t.elemDyn[i]
				continue
			}
			best, v := 0, lat[0][i]
			for x := 1; x < nt; x++ {
				if l := lat[x][i]; l < v {
					best, v = x, l
				}
			}
			s.LatencyS += v
			s.DynamicPJ += dyn[best][i]
		}
	}
	s.LeakagePJ = leakagePJ(t.cat, s.AreaMM2, s.LatencyS)
	return s, nil
}
