package fidelity

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// mapChipletize is the map-and-sort chipletization the grouped layout
// replaced, kept as the oracle of TestChipletizeMatchesMapOracle: it groups
// nodes in a map keyed by community label, orders the labels by the ID of
// each community's first node, and builds every die's banks in a slice of
// its own, priced with cat.
func mapChipletize(p Params, nodes []graph.Node, communities []int, cat *hw.Catalogue) []Chiplet {
	byComm := make(map[int][]graph.Node)
	for _, n := range nodes {
		byComm[communities[n.ID]] = append(byComm[communities[n.ID]], n)
	}
	keys := make([]int, 0, len(byComm))
	for c := range byComm {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool {
		return byComm[keys[i]][0].ID < byComm[keys[j]][0].ID
	})
	var drafts [][]hw.Bank
	for _, c := range keys {
		var banks []hw.Bank
		saIdx := -1
		var logic float64
		for _, n := range byComm[c] {
			b := hw.Bank{Unit: n.Unit, Count: n.Count, SASize: n.SASize, Cat: cat}
			if n.Unit == hw.SystolicArray {
				saIdx = len(banks)
			}
			banks = append(banks, b)
			logic += b.AreaUM2()
		}
		limit := p.MaxChipletAreaMM2 * 1e6
		if logic <= limit || saIdx < 0 || banks[saIdx].Count <= 1 {
			drafts = append(drafts, banks)
			continue
		}
		sa := banks[saIdx]
		rest := make([]hw.Bank, 0, len(banks)-1)
		restArea := 0.0
		for i, b := range banks {
			if i != saIdx {
				rest = append(rest, b)
				restArea += b.AreaUM2()
			}
		}
		perSA := sa.AreaUM2() / float64(sa.Count)
		k0 := 0
		if restArea < limit {
			k0 = int((limit - restArea) / perSA)
		}
		if k0 > sa.Count {
			k0 = sa.Count
		}
		kn := int(limit / perSA)
		if kn < 1 {
			kn = 1
		}
		rem := sa.Count - k0
		extraDies := (rem + kn - 1) / kn
		die0 := rest
		if k0 > 0 {
			die0 = append([]hw.Bank{{Unit: hw.SystolicArray, Count: k0, SASize: sa.SASize, Cat: cat}}, rest...)
		}
		drafts = append(drafts, die0)
		per, extra := rem/extraDies, rem%extraDies
		for i := 0; i < extraDies; i++ {
			cnt := per
			if i < extra {
				cnt++
			}
			drafts = append(drafts, []hw.Bank{{Unit: hw.SystolicArray, Count: cnt, SASize: sa.SASize, Cat: cat}})
		}
	}
	multi := len(drafts) > 1
	chiplets := make([]Chiplet, len(drafts))
	for i, banks := range drafts {
		var logic float64
		for _, b := range banks {
			logic += b.AreaUM2()
		}
		total := logic + p.RouterAreaUM2(len(banks), multi)
		chiplets[i] = Chiplet{
			Label:        "L" + strconv.Itoa(i+1),
			Banks:        banks,
			LogicAreaMM2: hw.UM2ToMM2(logic),
			AreaMM2:      hw.UM2ToMM2(total),
		}
	}
	return chiplets
}

// TestChipletizeMatchesMapOracle: Chipletize over random nodes and random
// community labels equals the map-and-sort oracle. Labels are drawn from a
// sparse range, so they are non-contiguous and the communities' labels
// follow no order of their nodes; a quarter of the node lists are shuffled,
// so a community's first node is not its smallest; unit kinds may repeat, so
// a community can hold several array banks; and the die limit is drawn
// against one array's area, so communities split, with and without arrays
// left on their first die.
func TestChipletizeMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := testParams()
	sizes := []int{8, 16, 32, 64}
	splits := 0
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(hw.NumUnits + 3)
		nodes := make([]graph.Node, n)
		communities := make([]int, n)
		nComm := 1 + rng.Intn(4)
		for i := range nodes {
			u := hw.Unit(rng.Intn(hw.NumUnits))
			if rng.Intn(3) == 0 {
				u = hw.SystolicArray
			}
			nodes[i] = graph.Node{ID: i, Unit: u, Count: 1 + rng.Intn(64)}
			if u == hw.SystolicArray {
				nodes[i].SASize = sizes[rng.Intn(len(sizes))]
			}
			communities[i] = 7 * (rng.Intn(nComm) - 2)
		}
		if rng.Intn(4) == 0 {
			rng.Shuffle(n, func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		}
		perSA := hw.Bank{Unit: hw.SystolicArray, Count: 1, SASize: 32}.AreaUM2()
		p.MaxChipletAreaMM2 = hw.UM2ToMM2(perSA * (0.5 + 8*rng.Float64()))
		got, want := p.Chipletize(nodes, communities, nil), mapChipletize(p, nodes, communities, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: nodes %+v, communities %v, limit %v mm2:\nChipletize %+v\noracle     %+v",
				trial, nodes, communities, p.MaxChipletAreaMM2, got, want)
		}
		labels := make(map[int]bool)
		for _, c := range communities {
			labels[c] = true
		}
		if len(got) > len(labels) {
			splits++
		}
	}
	if splits < 100 {
		t.Fatalf("only %d of 2000 trials split a community; the trials lost their teeth", splits)
	}
}

// rescoreFixture is TestRescoreMatchesScoreOnRealize's topology: AlexNet in
// one community, with a die limit of two and a half 32x32 arrays.
func rescoreFixture(t testing.TB) (*Topology, hw.Config, *ppa.ModelPlan) {
	m := workload.NewAlexNet()
	plan := ppa.NewModelPlan(m)
	p := testParams()
	p.Cluster = oneCommunity
	perSA := hw.Bank{Unit: hw.SystolicArray, Count: 1, SASize: 32}.AreaUM2()
	p.MaxChipletAreaMM2 = hw.UM2ToMM2(2.5 * perSA)
	tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
	topo, err := p.NewTopology("rescore", []hw.Config{tmpl}, [][]ppa.LayerTraffic{plan.Traffic(hw.Int8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return topo, tmpl, plan
}

// TestRescoreAllocs bounds the allocations of a warm Topology.Rescore, one
// whose package shape is already memoized: 3 objects for an unsplit package
// (its banks, its dies and the thermal sources its models share) and 6 for
// one split into three dies (the banks grow once and the dies twice). When
// every call grouped the communities in a map, re-formatted the die labels
// and built a bank slice per die and a thermal source slice per model, the
// same calls made 23 and 32.
func TestRescoreAllocs(t *testing.T) {
	topo, tmpl, plan := rescoreFixture(t)
	for _, c := range []struct {
		name   string
		pt     hw.Point
		dies   int
		allocs float64
	}{
		{"unsplit", hw.Point{SASize: 32, NSA: 2, NAct: 1, NPool: 1}, 1, 3},
		{"split", hw.Point{SASize: 32, NSA: 6, NAct: 1, NPool: 1}, 3, 6},
	} {
		cfg := tmpl
		cfg.Point = c.pt
		pkg, err := topo.params.Realize(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.Chiplets) != c.dies {
			t.Fatalf("%s: %d dies, want %d", c.name, len(pkg.Chiplets), c.dies)
		}
		s, err := plan.Summary(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sums, out := []ppa.Summary{s}, make([]Result, 1)
		if err := topo.Rescore(cfg, sums, out); err != nil {
			t.Fatal(err)
		}
		if out[0].PeakTempC <= 0 {
			t.Fatalf("%s: no thermal peak (%+v); the count misses the thermal model", c.name, out[0])
		}
		if got := testing.AllocsPerRun(100, func() { _ = topo.Rescore(cfg, sums, out) }); got > c.allocs {
			t.Errorf("%s: warm Rescore allocates %.0f objects, want <= %.0f", c.name, got, c.allocs)
		}
	}
}

// rescorePoints are the points TestRescoreConcurrent and BenchmarkRescore
// refine: unsplit and split packages of several shapes.
func rescorePoints() []hw.Point {
	var pts []hw.Point
	for _, nsa := range []int{1, 2, 4, 6} {
		for units := 1; units <= 4096; units *= 4 {
			pts = append(pts, hw.Point{SASize: 32, NSA: nsa, NAct: units, NPool: units})
		}
	}
	return pts
}

// TestRescoreConcurrent: goroutines refining distinct points on one fresh
// topology at once — filling its shape memo concurrently — get what
// refining them one after another on another topology gets, bit for bit.
func TestRescoreConcurrent(t *testing.T) {
	serial, tmpl, plan := rescoreFixture(t)
	shared, _, _ := rescoreFixture(t)
	pts := rescorePoints()
	sums := make([]ppa.Summary, len(pts))
	want := make([]Result, len(pts))
	for i, pt := range pts {
		cfg := tmpl
		cfg.Point = pt
		s, err := plan.Summary(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = s
		if err := serial.Rescore(cfg, sums[i:i+1], want[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Result, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i, pt := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := tmpl
			cfg.Point = pt
			errs[i] = shared.Rescore(cfg, sums[i:i+1], got[i:i+1])
		}()
	}
	wg.Wait()
	for i := range pts {
		if errs[i] != nil || !sameBits(got[i], want[i]) {
			t.Errorf("%v: concurrent Rescore %+v (%v), serial %+v", pts[i], got[i], errs[i], want[i])
		}
	}
	if shared.Floorplans() != serial.Floorplans() {
		t.Errorf("concurrent refinement solved %d floorplans, serial %d", shared.Floorplans(), serial.Floorplans())
	}
}

// BenchmarkRescore times warm stage-1 refinement of one candidate: Rescore
// over unsplit and split packages whose shapes the topology has memoized,
// one op per point.
func BenchmarkRescore(b *testing.B) {
	topo, tmpl, plan := rescoreFixture(b)
	pts := rescorePoints()
	cfgs := make([]hw.Config, len(pts))
	sums := make([]ppa.Summary, len(pts))
	out := make([]Result, 1)
	for i, pt := range pts {
		cfgs[i] = tmpl
		cfgs[i].Point = pt
		s, err := plan.Summary(cfgs[i], 1)
		if err != nil {
			b.Fatal(err)
		}
		sums[i] = s
		if err := topo.Rescore(cfgs[i], sums[i:i+1], out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		k := i % len(pts)
		if err := topo.Rescore(cfgs[k], sums[k:k+1], out); err != nil {
			b.Fatal(err)
		}
	}
}
