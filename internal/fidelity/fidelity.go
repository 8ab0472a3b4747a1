// Package fidelity is the physical-fidelity evaluation layer of the CLAIRE
// reproduction: given per-model layer traffic and analytical totals on one
// hardware configuration, it builds the chipletized package (universal graph
// -> clustering -> area-driven die split -> 2.5-D floorplan) and re-scores
// each model with placement-aware NoC/NoP transfer latency and energy plus a
// compact-thermal peak junction temperature.
//
// The realization has a configuration-invariant half (NewTopology: the
// universal graph graph.Universal builds, and its clustering) and a
// per-point half (Realize, then Score per model). Build and Eval run both
// halves for one configuration's full evaluations. Topology.Rescore runs the
// per-point half for staged selection's candidates and computes the part of
// it that depends only on the package's shape once per shape.
//
// The package exists so both the design-point reporting path (internal/core)
// and the staged multi-fidelity selection inside the DSE sweep (internal/dse)
// share one implementation: the sweep's cheap analytical stage ranks the full
// space, and this layer refines only the surviving dominance frontier,
// clustering once for all of it — DESIGN.md §10.
package fidelity

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/ppa"
	"repro/internal/thermal"
)

// ClusterFunc partitions a weighted graph (n nodes, undirected edges) into
// chiplet communities. It must be deterministic in (n, edges): staged
// selection clusters a Topology once per exploration and reuses the partition
// for every candidate.
type ClusterFunc func(n int, edges []graph.Edge) ([]int, error)

// Params carries the physical-model inputs of the fidelity layer; it mirrors
// the corresponding fields of core.Options (Figure 1's Input #5 interconnect,
// the die-area limit and the thermal model). Unit PPA comes from the realized
// configuration's own catalogue (hw.Config.Cat), the one its analytical
// evaluation used.
type Params struct {
	NoC, NoP noc.Params
	// MaxChipletAreaMM2 bounds a single die after clustering; oversized
	// communities split their systolic-array bank across several chiplets.
	MaxChipletAreaMM2 float64
	// Cluster partitions design graphs into chiplets; see ClusterFunc for
	// its determinism contract.
	Cluster ClusterFunc
	// Thermal is the compact package thermal model; JunctionLimitC the budget
	// staged selection rejects against.
	Thermal        thermal.Model
	JunctionLimitC float64
}

// Chiplet is one die of a chipletized design configuration: a group of unit
// banks plus its interconnect overhead (one NoC router per bank, one AIB PHY
// per die when the package holds more than one die).
type Chiplet struct {
	Label        string
	Banks        []hw.Bank
	LogicAreaMM2 float64
	AreaMM2      float64 // logic + NoC routers + NoP PHY
}

// Signature identifies the chiplet type for NRE reuse: two chiplets with the
// same banks are the same tape-out.
func (c Chiplet) Signature() string {
	parts := make([]string, len(c.Banks))
	for i, b := range c.Banks {
		parts[i] = b.String()
	}
	return strings.Join(parts, "+")
}

// RouterAreaUM2 returns interconnect area for a chiplet with n banks.
func (p Params) RouterAreaUM2(banks int, multiDie bool) float64 {
	a := float64(banks) * p.NoC.RouterAreaUM2
	if multiDie {
		a += p.NoP.PHYAreaUM2
	}
	return a
}

// Chipletize converts clustered universal-graph nodes into chiplets,
// splitting any community whose logic area exceeds the per-die limit by
// dividing its systolic-array bank into equal sub-banks. It reads each node's
// ID (its index in communities), unit, instance count and array size, and
// prices the banks with cat (nil: the built-in default). The dies come
// community by community, the communities ordered by the ID of their first
// node in nodes.
func (p Params) Chipletize(nodes []graph.Node, communities []int, cat *hw.Catalogue) []Chiplet {
	cl := groupCommunities(nodes, communities)
	return p.chipletize(nodes, &cl, cat)
}

// groups is a community assignment grouped once: the positions in a node
// list of each community's nodes, in list order, with the communities
// ordered by the ID of their first node.
type groups struct {
	members []int // node positions, community after community
	starts  []int // community c holds members[starts[c]:starts[c+1]]
}

// groupCommunities groups nodes by their labels in communities, which is
// indexed by node ID. It compares labels pairwise, which is cheap on a
// universal graph's at most hw.NumUnits nodes.
func groupCommunities(nodes []graph.Node, communities []int) groups {
	label := func(i int) int { return communities[nodes[i].ID] }
	var firsts []int // position of each community's first node
	for i := range nodes {
		if !slices.ContainsFunc(firsts, func(f int) bool { return label(f) == label(i) }) {
			firsts = append(firsts, i)
		}
	}
	slices.SortFunc(firsts, func(a, b int) int { return cmp.Compare(nodes[a].ID, nodes[b].ID) })
	g := groups{members: make([]int, 0, len(nodes)), starts: make([]int, 1, len(firsts)+1)}
	for _, f := range firsts {
		for i := range nodes {
			if label(i) == label(f) {
				g.members = append(g.members, i)
			}
		}
		g.starts = append(g.starts, len(g.members))
	}
	return g
}

// dieLabels holds the first die labels, so realizing a package formats none
// of them.
var dieLabels = func() (l [64]string) {
	for i := range l {
		l[i] = "L" + strconv.Itoa(i+1)
	}
	return l
}()

// dieLabel returns the label of die i: "L1", "L2", ...
func dieLabel(i int) string {
	if i < len(dieLabels) {
		return dieLabels[i]
	}
	return "L" + strconv.Itoa(i+1)
}

// chipletize is the one chipletization body, of Chipletize and of every
// realization on a topology: each community of g, whose members are
// positions in nodes, becomes one die, or splits across several, its banks
// priced with cat. The dies' banks are windows of one array sized for every
// community fitting on one die; a split grows it, and the dies made before
// keep their windows of the old array, which nothing writes again.
func (p *Params) chipletize(nodes []graph.Node, g *groups, cat *hw.Catalogue) []Chiplet {
	limit := p.MaxChipletAreaMM2 * 1e6
	banks := make([]hw.Bank, 0, len(nodes))
	chiplets := make([]Chiplet, 0, len(g.starts)-1)
	// die makes banks[lo:] the next die.
	die := func(lo int) {
		chiplets = append(chiplets, Chiplet{Banks: banks[lo:len(banks):len(banks)]})
	}
	for c := range len(g.starts) - 1 {
		lo, saIdx, logic := len(banks), -1, 0.0
		for _, i := range g.members[g.starts[c]:g.starts[c+1]] {
			n := &nodes[i]
			if n.Unit == hw.SystolicArray {
				saIdx = len(banks)
			}
			banks = append(banks, hw.Bank{Unit: n.Unit, Count: n.Count, SASize: n.SASize, Cat: cat})
			logic += banks[len(banks)-1].AreaUM2()
		}
		if logic <= limit || saIdx < 0 || banks[saIdx].Count <= 1 {
			die(lo)
			continue
		}
		// Split the SA bank across dies. Die 0 keeps the community's other
		// banks, so it fits only as many arrays as the headroom left after
		// them — not an equal share: sizing every die to count/p arrays
		// ignores the non-SA area and can leave die 0 over the limit.
		sa := banks[saIdx]
		restArea := 0.0
		for i := lo; i < len(banks); i++ {
			if i != saIdx {
				restArea += banks[i].AreaUM2()
			}
		}
		perSA := sa.AreaUM2() / float64(sa.Count)
		// Arrays die 0 can host beside the rest banks.
		k0 := 0
		if restArea < limit {
			k0 = int((limit - restArea) / perSA)
		}
		if k0 > sa.Count {
			k0 = sa.Count
		}
		// Arrays a pure-SA die can host; at least one so the split always
		// terminates even when a single array exceeds the limit.
		kn := int(limit / perSA)
		if kn < 1 {
			kn = 1
		}
		rem := sa.Count - k0
		// rem >= 1 here: k0 >= count would mean the whole community fits.
		extraDies := (rem + kn - 1) / kn
		// Die 0 is the rest banks in order, after a bank of k0 arrays when
		// k0 > 0.
		if k0 > 0 {
			copy(banks[lo+1:saIdx+1], banks[lo:saIdx])
			banks[lo] = hw.Bank{Unit: hw.SystolicArray, Count: k0, SASize: sa.SASize, Cat: cat}
		} else {
			banks = append(banks[:saIdx], banks[saIdx+1:]...)
		}
		die(lo)
		// Spread the remainder near-equally: ceil(rem/extraDies) <= kn, so no
		// pure-SA die exceeds the limit either.
		per := rem / extraDies
		extra := rem % extraDies
		for i := 0; i < extraDies; i++ {
			cnt := per
			if i < extra {
				cnt++
			}
			banks = append(banks, hw.Bank{Unit: hw.SystolicArray, Count: cnt, SASize: sa.SASize, Cat: cat})
			die(len(banks) - 1)
		}
	}

	multi := len(chiplets) > 1
	for i := range chiplets {
		c := &chiplets[i]
		var logic float64
		for _, b := range c.Banks {
			logic += b.AreaUM2()
		}
		c.Label = dieLabel(i)
		c.LogicAreaMM2 = hw.UM2ToMM2(logic)
		c.AreaMM2 = hw.UM2ToMM2(logic + p.RouterAreaUM2(len(c.Banks), multi))
	}
	return chiplets
}

// HostMap maps each unit kind to the chiplet hosting its bank (the first
// hosting chiplet for split systolic-array banks); unhosted kinds map to 0.
func HostMap(chiplets []Chiplet) [hw.NumUnits]int {
	var m [hw.NumUnits]int
	var seen hw.UnitSet
	for i, c := range chiplets {
		for _, b := range c.Banks {
			if !seen.Has(b.Unit) {
				m[b.Unit], seen = i, seen.With(b.Unit)
			}
		}
	}
	return m
}

// Package is one configuration's physical realization: the universal graph,
// its community assignment, the chiplets after the area-driven split, and the
// 2.5-D floorplan. It also caches the derived lookups Score needs — the
// unit-to-chiplet host map and each chiplet's average intra-die torus hop
// count.
type Package struct {
	// Graph is the universal graph with its node weights, the Figure 3 view;
	// Build sets it, and Realize leaves it nil since nothing it computes
	// reads it.
	Graph     *graph.Graph
	Assign    []int
	Chiplets  []Chiplet
	Floorplan placement.Placement

	host      [hw.NumUnits]int
	intraHops []float64 // per-chiplet average NoC hops on its bank torus
}

// NewPackage wraps an already-built chiplet set and floorplan into a Package,
// computing the derived lookups.
func NewPackage(chiplets []Chiplet, fp placement.Placement) *Package {
	pkg := newPackage(chiplets)
	pkg.Floorplan = fp
	return pkg
}

// newPackage computes a chiplet set's derived lookups, leaving the floorplan
// to the caller.
func newPackage(chiplets []Chiplet) *Package {
	pkg := &Package{Chiplets: chiplets, host: HostMap(chiplets)}
	pkg.intraHops = make([]float64, len(chiplets))
	for i, c := range chiplets {
		pkg.intraHops[i] = noc.NewTorus(len(c.Banks)).AvgHops()
	}
	return pkg
}

// AreaMM2 returns the summed die area of the package.
func (pkg *Package) AreaMM2() float64 { return areaMM2(pkg.Chiplets) }

// areaMM2 sums the chiplets' die areas in order.
func areaMM2(chiplets []Chiplet) float64 {
	var a float64
	for _, c := range chiplets {
		a += c.AreaMM2
	}
	return a
}

// Topology is the configuration-invariant half of a package realization: for
// a fixed set of models on a fixed set of unit kinds, the universal graph and
// its clustering. Louvain reads only the edges, and an edge weight is the
// bytes consecutive layers move between two unit kinds, which follow the
// layers' shapes and the precision, not the DSE point. So every point of one
// exploration shares one Topology: staged selection clusters once and
// realizes each candidate on it (Rescore).
//
// A Topology also memoizes, per package shape, the part of a realization
// that reads nothing else (see Rescore). The memo lives as long as the
// Topology, so it holds at most one entry per candidate realized on it.
type Topology struct {
	params  Params // the parameters the topology was built with
	graph   *graph.Graph
	traffic [][]ppa.LayerTraffic // per model, in layer order
	assign  []int                // node -> community
	groups  groups               // the graph's nodes grouped by community

	mu         sync.Mutex
	shapes     map[string]*shape
	floorplans atomic.Int64 // floorplans solved for shapes
}

// shape is the memo entry of one package shape: the floorplan and each
// model's interconnect terms, filled once.
type shape struct {
	once  sync.Once
	fp    placement.Placement
	links []Result // per model, in the topology's order; NoC and NoP fields only
	err   error
}

// NewTopology builds the universal graph of the models' layer traffic over
// the unit kinds of cfgs (graph.Universal) and clusters it once.
func (p Params) NewTopology(name string, cfgs []hw.Config, traffic [][]ppa.LayerTraffic) (*Topology, error) {
	if p.Cluster == nil {
		return nil, fmt.Errorf("fidelity: nil cluster function")
	}
	g, err := graph.Universal(name, cfgs, traffic)
	if err != nil {
		return nil, fmt.Errorf("fidelity: %w", err)
	}
	n := len(g.Nodes)
	communities, err := p.Cluster(n, slices.Clone(g.Edges))
	if err != nil {
		return nil, fmt.Errorf("fidelity: clustering %q: %w", name, err)
	}
	if len(communities) != n {
		return nil, fmt.Errorf("fidelity: cluster function returned %d labels for %d nodes", len(communities), n)
	}
	return &Topology{params: p, graph: g, traffic: traffic, assign: communities,
		groups: groupCommunities(g.Nodes, communities)}, nil
}

// Realize is the per-point half of a package realization: it sizes the
// topology's nodes from the banks of cfgs (merged by graph.BankNodes, as
// graph.Universal merges them), splits oversized communities into dies, and
// floorplans the package against the inter-chiplet traffic of every model in
// the topology.
func (p Params) Realize(t *Topology, cfgs ...hw.Config) (*Package, error) {
	chiplets, err := p.chipletizeOn(t, cfgs)
	if err != nil {
		return nil, err
	}
	pkg := newPackage(chiplets)
	pkg.Assign = t.assign
	if pkg.Floorplan, err = t.place(len(chiplets), &pkg.host); err != nil {
		return nil, err
	}
	return pkg, nil
}

// chipletizeOn sizes the topology's nodes from the banks of cfgs and splits
// their communities, grouped when the topology was built, into dies. cfgs
// share one catalogue, which prices the banks.
func (p *Params) chipletizeOn(t *Topology, cfgs []hw.Config) ([]Chiplet, error) {
	var buf [hw.NumUnits]graph.Node
	nodes := graph.AppendBankNodes(buf[:0], cfgs)
	g := t.graph
	if len(nodes) != len(g.Nodes) {
		return nil, fmt.Errorf("fidelity: %q: configuration has %d unit kinds, topology %d", g.Name, len(nodes), len(g.Nodes))
	}
	for i, nd := range nodes {
		if nd.Unit != g.Nodes[i].Unit {
			return nil, fmt.Errorf("fidelity: %q: configuration node %d is %v, topology's is %v", g.Name, i, nd.Unit, g.Nodes[i].Unit)
		}
	}
	var cat *hw.Catalogue
	if len(cfgs) > 0 {
		cat = cfgs[0].Cat
	}
	return p.chipletize(nodes, &t.groups, cat), nil
}

// place floorplans a package of n chiplets whose unit kinds host maps to
// chiplets: it aggregates the inter-chiplet traffic of every model in the
// topology and minimizes the traffic-weighted trace length.
func (t *Topology) place(n int, host *[hw.NumUnits]int) (placement.Placement, error) {
	prob := placement.NewProblem(n)
	for _, tr := range t.traffic {
		for i := 1; i < len(tr); i++ {
			prob.AddTraffic(host[tr[i-1].Unit], host[tr[i].Unit], float64(tr[i-1].OutBytes))
		}
	}
	fp, err := placement.Solve(prob)
	if err != nil {
		return placement.Placement{}, fmt.Errorf("fidelity: floorplanning %q: %w", t.graph.Name, err)
	}
	return fp, nil
}

// Rescore is Score on Realize(t, cfg) for every model of the topology,
// under the Params that built t, the way staged selection refines each
// candidate: sums holds the models' analytical totals on cfg, in the
// topology's model order, and out receives their Results in the same order.
// The results equal Score on Realize bit for bit.
//
// The floorplan and each model's NoC/NoP terms read three things of the
// package: its chiplet count, each chiplet's bank count (the torus a
// transfer inside it crosses) and the unit-kind host map. Rescore computes
// them once per such shape and reuses them for every later candidate of that
// shape. Chipletization and the thermal peak, which read the die areas, run
// per call. Rescore is safe for concurrent use: each shape is filled exactly
// once, and its entry does not depend on which call filled it.
func (t *Topology) Rescore(cfg hw.Config, sums []ppa.Summary, out []Result) error {
	p := &t.params
	chiplets, err := p.chipletizeOn(t, []hw.Config{cfg})
	if err != nil {
		return err
	}
	host := HostMap(chiplets)
	sh := t.shapeOf(chiplets, &host)
	if sh.err != nil {
		return sh.err
	}
	srcs := make([]thermal.Source, len(chiplets))
	for i := range out {
		out[i] = sh.links[i]
		p.finish(&out[i], chiplets, &sh.fp, sums[i], srcs)
	}
	return nil
}

// shapeOf returns the memo entry of the chiplets' shape, whose unit kinds
// host maps to chiplets, filling it on first use.
func (t *Topology) shapeOf(chiplets []Chiplet, host *[hw.NumUnits]int) *shape {
	var buf [64]byte
	key := binary.AppendUvarint(buf[:0], uint64(len(chiplets)))
	for _, c := range chiplets {
		key = binary.AppendUvarint(key, uint64(len(c.Banks)))
	}
	for _, h := range host {
		key = binary.AppendUvarint(key, uint64(h))
	}
	t.mu.Lock()
	sh, ok := t.shapes[string(key)]
	if !ok {
		if t.shapes == nil {
			t.shapes = make(map[string]*shape)
		}
		sh = new(shape)
		t.shapes[string(key)] = sh
	}
	t.mu.Unlock()
	sh.once.Do(func() {
		t.floorplans.Add(1)
		pkg := newPackage(chiplets)
		if sh.fp, sh.err = t.place(len(chiplets), &pkg.host); sh.err != nil {
			return
		}
		pkg.Floorplan = sh.fp
		sh.links = make([]Result, len(t.traffic))
		for i, tr := range t.traffic {
			sh.links[i] = t.params.links(pkg, tr)
		}
	})
	return sh
}

// Floorplans returns how many floorplans Rescore has solved on the
// topology: one per distinct package shape it has seen.
func (t *Topology) Floorplans() int { return int(t.floorplans.Load()) }

// trafficOf projects a full evaluation onto its layer traffic.
func trafficOf(e *ppa.Eval) []ppa.LayerTraffic {
	tr := make([]ppa.LayerTraffic, len(e.Layers))
	for i := range e.Layers {
		tr[i] = ppa.LayerTraffic{Unit: e.Layers[i].Unit, OutBytes: e.Layers[i].OutBytes}
	}
	return tr
}

// Build realizes one configuration physically from its per-model analytical
// evaluations: NewTopology over their configurations and layer traffic, then
// Realize. The package's Graph is the topology's universal graph with each
// node weighted by the summed executions of its layers across every model.
func (p Params) Build(name string, evals []*ppa.Eval) (*Package, error) {
	if len(evals) == 0 {
		return nil, fmt.Errorf("fidelity: %q has no evaluations", name)
	}
	cfgs := make([]hw.Config, len(evals))
	traffic := make([][]ppa.LayerTraffic, len(evals))
	for i, e := range evals {
		cfgs[i] = e.Config
		traffic[i] = trafficOf(e)
	}
	t, err := p.NewTopology(name, cfgs, traffic)
	if err != nil {
		return nil, err
	}
	pkg, err := p.Realize(t, cfgs...)
	if err != nil {
		return nil, err
	}
	g := t.graph
	var node [hw.NumUnits]int // unit kind -> node index; NewTopology checked every layer's unit
	for i, nd := range g.Nodes {
		node[nd.Unit] = i
	}
	for _, e := range evals {
		for _, le := range e.Layers {
			g.Nodes[node[le.Unit]].Weight += float64(le.Executions)
		}
	}
	pkg.Graph = g
	return pkg, nil
}

// Result is one model's physical re-scoring on a package.
type Result struct {
	// Interconnect breakdown: intra-chiplet NoC and inter-chiplet NoP (AIB)
	// transfer costs over the model's layer-to-layer traffic.
	NoCLatencyS, NoPLatencyS float64
	NoCEnergyPJ, NoPEnergyPJ float64
	// LatencyS and EnergyPJ are the refined totals: the analytical compute
	// evaluation plus the interconnect terms.
	LatencyS float64
	EnergyPJ float64
	// PeakTempC is the hottest chiplet's steady-state junction temperature
	// while running this model (0 when the model draws no power).
	PeakTempC float64
}

// Eval re-scores one model's analytical evaluation on the package: Score over
// its layer traffic, read in place from its per-layer breakdown, and its
// totals.
func (p Params) Eval(pkg *Package, e *ppa.Eval) Result {
	var r Result
	for i := 1; i < len(e.Layers); i++ {
		p.link(&r, pkg, e.Layers[i-1].Unit, e.Layers[i].Unit, e.Layers[i-1].OutBytes)
	}
	p.finish(&r, pkg.Chiplets, &pkg.Floorplan, e.Summary, make([]thermal.Source, len(pkg.Chiplets)))
	return r
}

// Score re-scores one model on the package from its layer traffic and its
// analytical totals, adding NoC costs for intra-chiplet producer->consumer
// traffic and NoP (AIB) costs for inter-chiplet traffic, and the
// compact-thermal peak temperature. A Summary carries the same totals as the
// full evaluation, bit for bit, so scoring from one equals Eval.
//
// Intra-chiplet transfers are charged the average hop count of the torus
// spanning the *hosting* chiplet's banks, kept fractional (the per-hop
// latency term is linear in hops, so the average hop count gives the exact
// average latency). Charging every transfer the rounded average of the
// largest chiplet's torus — as the model did before this layer existed —
// over-priced traffic inside small dies and under-priced it after rounding
// down, and the error moved with whichever die happened to be largest.
func (p Params) Score(pkg *Package, traffic []ppa.LayerTraffic, s ppa.Summary) Result {
	r := p.links(pkg, traffic)
	p.finish(&r, pkg.Chiplets, &pkg.Floorplan, s, make([]thermal.Source, len(pkg.Chiplets)))
	return r
}

// links is Score's interconnect half: the NoC and NoP transfer latency and
// energy of the model's layer-to-layer traffic on the package, which read
// only the package's shape.
func (p *Params) links(pkg *Package, traffic []ppa.LayerTraffic) Result {
	var r Result
	for i := 1; i < len(traffic); i++ {
		p.link(&r, pkg, traffic[i-1].Unit, traffic[i].Unit, traffic[i-1].OutBytes)
	}
	return r
}

// link adds to r the transfer of one layer's output, bytes long, from the
// chiplet hosting unit kind from to the one hosting the next layer's unit
// kind to: over the NoC within a chiplet, over the NoP between two.
func (p *Params) link(r *Result, pkg *Package, from, to hw.Unit, bytes int64) {
	src, dst := pkg.host[from], pkg.host[to]
	if src == dst {
		hops := pkg.intraHops[src]
		r.NoCLatencyS += p.NoC.TransferLatencyAvgS(bytes, hops)
		r.NoCEnergyPJ += p.NoC.TransferEnergyAvgPJ(bytes, hops)
		return
	}
	hops := pkg.Floorplan.Hops(src, dst)
	r.NoPLatencyS += p.NoP.TransferLatencyS(bytes, hops)
	r.NoPEnergyPJ += p.NoP.TransferEnergyPJ(bytes, hops)
}

// finish is Score's per-package half: it completes r, whose interconnect
// terms links set, with the refined totals over the analytical totals s and
// the peak junction temperature of the chiplets on floorplan fp. srcs, as
// long as chiplets, is scratch space for their thermal sources, so a caller
// finishing several models on one package reuses one.
func (p *Params) finish(r *Result, chiplets []Chiplet, fp *placement.Placement, s ppa.Summary, srcs []thermal.Source) {
	r.LatencyS = s.LatencyS + r.NoCLatencyS + r.NoPLatencyS
	r.EnergyPJ = s.EnergyPJ() + r.NoCEnergyPJ + r.NoPEnergyPJ

	// Peak junction temperature: each chiplet dissipates the model's average
	// power in proportion to its area share (uniform power density across the
	// package, matching the no-power-gating assumption).
	area := areaMM2(chiplets)
	if r.LatencyS > 0 && area > 0 {
		totalW := r.EnergyPJ * 1e-12 / r.LatencyS
		for i, c := range chiplets {
			srcs[i] = thermal.Source{
				PowerW:  totalW * c.AreaMM2 / area,
				AreaMM2: c.AreaMM2,
				Slot:    fp.Slot[i],
			}
		}
		if peak, err := p.Thermal.Peak(srcs, fp.Grid.W); err == nil {
			r.PeakTempC = peak
		}
	}
}
