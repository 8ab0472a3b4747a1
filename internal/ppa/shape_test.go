package ppa

import (
	"math"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// sameKernelOut reports whether two kernel outputs agree bit for bit.
func sameKernelOut(a, b kernelOut) bool {
	return a.executions == b.executions && a.outBytes == b.outBytes &&
		math.Float64bits(a.latencyS) == math.Float64bits(b.latencyS) &&
		math.Float64bits(a.energyPJ) == math.Float64bits(b.energyPJ)
}

// TestShapeIDsShareKernelOutputs pins what a shape id promises: for the 19
// networks and the extended set, under the built-in and the mobile-7nm
// catalogue at Int8 and Int16, every layer costs exactly what its shape's
// first layer costs, priced from each layer's own fields, on every array
// size and count of fine and mixfine and on every bank size of their
// element axes. The plan's per-shape counts equal each layer's own, and
// layers of different ids differ in some field but their names.
func TestShapeIDsShareKernelOutputs(t *testing.T) {
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	fine := hw.FineSpace()
	models := append(allNetworks(), workload.ExtendedSet()...)
	compared := 0
	for _, cat := range []*hw.Catalogue{nil, mobile} {
		mixfine := hw.FineMixSpec(cat)
		c := hw.Config{Cat: cat}
		cat := c.Catalogue()
		// Array sizes with their energy per MAC, and counts: fine's axes,
		// then mixfine's chiplet types and count values.
		type arrays struct {
			size  int
			macPJ float64
		}
		counts := slices.Clone(fine.NSAs)
		for _, vs := range mixfine.Counts {
			for _, v := range vs {
				if v > 0 && !slices.Contains(counts, v) {
					counts = append(counts, v)
				}
			}
		}
		banks := slices.Concat(fine.NActs, fine.NPools, mixfine.NActs, mixfine.NPools)
		for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
			var sizes []arrays
			for _, size := range fine.SASizes {
				sizes = append(sizes, arrays{size, cat.SAFor(size, prec).MacPJ})
			}
			for _, spec := range cat.Chiplets {
				sizes = append(sizes, arrays{spec.SASize, spec.EnergyPerMACPJ})
			}
			bytesPer := int64(prec.Bytes())
			for _, m := range models {
				p := NewModelPlan(m)
				for i := range m.Layers {
					l, s := &m.Layers[i], p.shape[i]
					first := &m.Layers[p.first[s]]
					if (int(s) < p.elemLo) != l.Kind.IsCompute() {
						t.Fatalf("%s layer %d (%v): shape %d in the wrong group", m.Name, i, l.Kind, s)
					}
					if l.Kind.IsCompute() {
						if p.soa.macs[s] != l.MACs() || p.soa.params[s] != l.Params() ||
							p.soa.inElems[s] != l.InputElems() || p.soa.outElems[s] != l.OutputElems() {
							t.Fatalf("%s layer %d: shape %d's counts differ from the layer's", m.Name, i, s)
						}
						for _, a := range sizes {
							for _, count := range counts {
								got := arraysCost(l, a.size, count, a.macPJ, cat, bytesPer, 1)
								want := arraysCost(first, a.size, count, a.macPJ, cat, bytesPer, 1)
								if !sameKernelOut(got, want) {
									t.Fatalf("%s %v layer %d on %d x SA%d: %+v, shape %d's first layer %+v",
										m.Name, prec, i, count, a.size, got, s, want)
								}
								compared++
							}
						}
						continue
					}
					u := hw.UnitFor(l.Kind)
					if p.soa.unit[s] != u || p.soa.elemOps[s] != l.ElementOps() || p.soa.outElems[s] != l.OutputElems() {
						t.Fatalf("%s layer %d: shape %d's counts differ from the layer's", m.Name, i, s)
					}
					for _, bank := range banks {
						c.NAct, c.NPool = bank, bank
						got := elementKernelVals(u, l.ElementOps(), l.OutputElems(), c.BankCount(u), cat, bytesPer, 1)
						want := elementKernelVals(u, first.ElementOps(), first.OutputElems(), c.BankCount(u), cat, bytesPer, 1)
						if !sameKernelOut(got, want) {
							t.Fatalf("%s %v layer %d at bank %d: %+v, shape %d's first layer %+v",
								m.Name, prec, i, bank, got, s, want)
						}
						compared++
					}
				}
				for s, i := range p.first {
					for _, j := range p.first[:s] {
						if sameShape(&m.Layers[i], &m.Layers[j]) {
							t.Fatalf("%s: layers %d and %d have one shape but ids %d and %d",
								m.Name, j, i, p.shape[j], s)
						}
					}
				}
			}
		}
	}
	t.Logf("%d kernel outputs bit-identical to their shape's first layer's", compared)
}

// layerEntries returns every latency entry a table holds for layer i: its
// shape's entry in each compute row, or its entries per NAct or NPool
// value.
func layerEntries(t *Table, i int) []float64 {
	p := t.plan
	s := int(p.shape[i])
	var out []float64
	switch {
	case s < p.elemLo:
		for r := 0; r < len(t.comp); r += p.poolLo {
			out = append(out, t.comp[r+s])
		}
	case s < p.poolLo:
		out = t.act[(s-p.elemLo)*t.actStride:][:len(t.acts)]
	default:
		out = t.pool[(s-p.poolLo)*t.poolStride:][:len(t.pools)]
	}
	return out
}

// TestShapeEditMovesOneLayer changes one field of one repeated layer in a
// copy of a model (a linear layer's width, a GELU's output height) and
// pins what moves: that layer gets an id of its own, every other layer
// keeps its shape-mates, and on fine and mixfine only that layer's table
// entries differ from the original model's.
func TestShapeEditMovesOneLayer(t *testing.T) {
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.NewBERTBase()
	p0 := NewModelPlan(orig)
	for _, kind := range []workload.OpKind{workload.Linear, workload.GELU} {
		// The first layer of the kind whose shape repeats.
		i := slices.IndexFunc(orig.Layers, func(l workload.Layer) bool {
			if l.Kind != kind {
				return false
			}
			n := 0
			for _, l2 := range orig.Layers {
				if sameShape(&l, &l2) {
					n++
				}
			}
			return n > 1
		})
		if i < 0 {
			t.Fatalf("BERT-base has no repeated %v layer", kind)
		}
		edited := *orig
		edited.Layers = slices.Clone(orig.Layers)
		if kind == workload.Linear {
			edited.Layers[i].NOFM++
		} else {
			edited.Layers[i].OFMY++
		}
		p1 := NewModelPlan(&edited)
		for j := range orig.Layers {
			if j != i && p1.shape[j] == p1.shape[i] {
				t.Errorf("%v edit: layer %d still shares layer %d's id", kind, j, i)
			}
			for k := range orig.Layers {
				if j != i && k != i && (p0.shape[j] == p0.shape[k]) != (p1.shape[j] == p1.shape[k]) {
					t.Fatalf("%v edit: layers %d and %d changed whether they share an id", kind, j, k)
				}
			}
		}
		for _, space := range []hw.DesignSpace{hw.FineSpace(), mixfine} {
			tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{orig})
			t0, t1 := NewTable(p0, tmpl, space), NewTable(p1, tmpl, space)
			for j := range orig.Layers {
				same := slices.Equal(layerEntries(t0, j), layerEntries(t1, j))
				if j == i && same {
					t.Errorf("%v edit on %s: the edited layer's entries did not move", kind, space.Desc())
				}
				if j != i && !same {
					t.Errorf("%v edit on %s: layer %d's entries moved", kind, space.Desc(), j)
				}
			}
		}
	}
}

// edgeModels returns models at the ends of the gathers' split at the first
// pooling layer: one that opens with a pooling layer (no prefix), one with
// no activation layer, and one of compute layers only (no pooling layer,
// no element-wise entries).
func edgeModels() []*workload.Model {
	conv := workload.Layer{Kind: workload.Conv2d, IFMX: 16, IFMY: 16, NIFM: 8, OFMX: 16, OFMY: 16, NOFM: 16,
		KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 1}
	pool := workload.Layer{Kind: workload.MaxPool, IFMX: 16, IFMY: 16, NIFM: 16, OFMX: 8, OFMY: 8, NOFM: 16,
		KX: 2, KY: 2, Stride: 2}
	relu := workload.Layer{Kind: workload.ReLU, OFMX: 16, OFMY: 16, NOFM: 16}
	fc := workload.Layer{Kind: workload.Linear, IFMX: 1, IFMY: 1, NIFM: 1024, OFMX: 1, OFMY: 1, NOFM: 10}
	return []*workload.Model{
		{Name: "pool-first", Layers: []workload.Layer{pool, conv, relu, conv, pool, relu, fc}},
		{Name: "no-activation", Layers: []workload.Layer{conv, conv, pool, conv, pool, fc, fc}},
		{Name: "compute-only", Layers: []workload.Layer{conv, fc, conv, fc}},
	}
}

// TestSummaryRangeStraddlesLaneGroups gathers ranges that start inside an
// NAct lane group and straddle blocks: on a homogeneous and a mix space of
// 11 NAct values (two lane groups per block, the second partial) and 5
// NPool values, for the 19 networks and the edge models, in chunks of 512,
// 7, 1, 3, 61, 64, 65 and 513 points from several starting offsets, every
// gathered point must equal ModelPlan.Summary in every bit of all four
// fields.
func TestSummaryRangeStraddlesLaneGroups(t *testing.T) {
	homogeneous, err := hw.ParseSpace("3x2x11x5")
	if err != nil {
		t.Fatal(err)
	}
	mix := hw.FineMixSpec(nil)
	mix.Counts = [][]int{{0, 8}, {0, 4, 16}, {0, 2}}
	mix.NActs = homogeneous.NActs
	mix.NPools = homogeneous.NPools
	mixSpace, err := mix.Build()
	if err != nil {
		t.Fatal(err)
	}
	per := len(homogeneous.NActs) * len(homogeneous.NPools)
	np := len(homogeneous.NPools)
	// Inside the first lane group's fourth run; inside the second, partial
	// group; a block's last point; inside the next block's first group.
	starts := []int{0, 3*np + 2, 9*np + 1, per - 1, per + 5*np + 3}
	sizes := []int{512, 7, 1, 3, 61, 64, 65, 513}
	compared := 0
	for _, space := range []hw.DesignSpace{homogeneous, mixSpace} {
		n := space.Len()
		for _, m := range append(allNetworks(), edgeModels()...) {
			plan := NewModelPlan(m)
			tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
			tab := NewTable(plan, tmpl, space)
			if tab == nil {
				t.Fatalf("%s: no table on %s", m.Name, space.Desc())
			}
			wants := make([]Summary, n)
			for k := range wants {
				c := tmpl
				c.Point = space.At(k)
				if wants[k], err = plan.Summary(c, 1); err != nil {
					t.Fatalf("%s %v: %v", m.Name, c.Point, err)
				}
			}
			for _, size := range sizes {
				out := make([]Summary, size)
				for _, lo := range starts {
					for ; lo < n; lo += size {
						got := out[:min(size, n-lo)]
						tab.SummaryRange(lo, got)
						for j, s := range got {
							if !sameSummary(s, wants[lo+j]) {
								t.Fatalf("%s %v on %s: range [%d, %d) %+v != summary %+v",
									m.Name, space.At(lo+j), space.Desc(), lo, lo+len(got), s, wants[lo+j])
							}
							compared++
						}
					}
				}
			}
		}
	}
	t.Logf("%d gathered summaries bit-identical", compared)
}

// TestEdgeModelTables runs the table differential on the edge models: on
// paper, fine, a custom space, mix and strided mixfine, under both
// catalogues at Int8 and Int16, Table.Summary equals ModelPlan.Summary in
// every bit, and the plan splits each model where its first pooling layer
// is.
func TestEdgeModelTables(t *testing.T) {
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range edgeModels() {
		plan := NewModelPlan(m)
		firstPool := slices.IndexFunc(m.Layers, func(l workload.Layer) bool { return hw.UnitFor(l.Kind).IsPooling() })
		if firstPool < 0 {
			firstPool = len(m.Layers)
		}
		if plan.firstPool != firstPool {
			t.Errorf("%s: plan splits at layer %d, first pooling layer is %d", m.Name, plan.firstPool, firstPool)
		}
		for _, cat := range []*hw.Catalogue{nil, mobile} {
			for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
				for _, sp := range tableSpaces(t, cat, false) {
					tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
					tmpl.Cat, tmpl.Precision = cat, prec
					tab := NewTable(plan, tmpl, sp.space)
					if tab == nil {
						t.Fatalf("%s: no table on %s", m.Name, sp.space.Desc())
					}
					for k := 0; k < sp.space.Len(); k += sp.stride {
						c := tmpl
						c.Point = sp.space.At(k)
						want, err := plan.Summary(c, 1)
						if err != nil {
							t.Fatalf("%s %v: %v", m.Name, c.Point, err)
						}
						if got := tab.Summary(k); !sameSummary(got, want) {
							t.Fatalf("%s %v %v on %s: table %+v != summary %+v",
								m.Name, prec, c.Point, sp.space.Desc(), got, want)
						}
					}
				}
			}
		}
	}
}
