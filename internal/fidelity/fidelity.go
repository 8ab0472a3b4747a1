// Package fidelity is the physical-fidelity evaluation layer of the CLAIRE
// reproduction: given per-model layer traffic and analytical totals on one
// hardware configuration, it builds the chipletized package (universal graph
// -> clustering -> area-driven die split -> 2.5-D floorplan) and re-scores
// each model with placement-aware NoC/NoP transfer latency and energy plus a
// compact-thermal peak junction temperature.
//
// The realization has a configuration-invariant half (NewTopology: the
// universal graph's edges and their clustering) and a per-point half
// (Realize, then Score per model). Build and Eval run both halves for one
// configuration's full evaluations.
//
// The package exists so both the design-point reporting path (internal/core)
// and the staged multi-fidelity selection inside the DSE sweep (internal/dse)
// share one implementation: the sweep's cheap analytical stage ranks the full
// space, and this layer refines only the surviving dominance frontier,
// clustering once for all of it — DESIGN.md §10.
package fidelity

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/ppa"
	"repro/internal/thermal"
)

// ClusterFunc partitions a weighted graph (n nodes, undirected edges) into
// chiplet communities. It must be deterministic in (n, edges): staged
// selection clusters a Topology once per exploration and reuses the partition
// for every candidate.
type ClusterFunc func(n int, edges []louvain.Edge) ([]int, error)

// Params carries the physical-model inputs of the fidelity layer; it mirrors
// the corresponding fields of core.Options (Figure 1's Input #5 interconnect,
// the die-area limit, the thermal model, and the chiplet catalogue).
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
	// Catalogue supplies unit PPA for chipletization area accounting (nil:
	// the built-in default).
	Catalogue *hw.Catalogue
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

// Units returns the unit kinds of the chiplet's banks.
func (c Chiplet) Units() []hw.Unit {
	us := make([]hw.Unit, len(c.Banks))
	for i, b := range c.Banks {
		us[i] = b.Unit
	}
	return us
}

// RouterAreaUM2 returns interconnect area for a chiplet with n banks.
func (p Params) RouterAreaUM2(banks int, multiDie bool) float64 {
	a := float64(banks) * p.NoC.RouterAreaUM2
	if multiDie {
		a += p.NoP.PHYAreaUM2
	}
	return a
}

// Chipletize converts a clustered graph into chiplets, splitting any
// community whose logic area exceeds the per-die limit by dividing its
// systolic-array bank into equal sub-banks.
func (p Params) Chipletize(g *graph.Graph, communities []int) []Chiplet {
	return p.chipletize(g.Nodes, communities)
}

// chipletize is Chipletize over a node list; it reads each node's ID, unit,
// instance count and array size.
func (p Params) chipletize(nodes []graph.Node, communities []int) []Chiplet {
	byComm := make(map[int][]graph.Node)
	for _, n := range nodes {
		byComm[communities[n.ID]] = append(byComm[communities[n.ID]], n)
	}
	keys := make([]int, 0, len(byComm))
	for c := range byComm {
		keys = append(keys, c)
	}
	// Deterministic order: by smallest node ID in the community.
	sort.Slice(keys, func(i, j int) bool {
		return byComm[keys[i]][0].ID < byComm[keys[j]][0].ID
	})

	var drafts [][]hw.Bank
	for _, c := range keys {
		var banks []hw.Bank
		var saIdx = -1
		var logic float64
		for _, n := range byComm[c] {
			b := hw.Bank{Unit: n.Unit, Count: n.Count, SASize: n.SASize, Cat: p.Catalogue}
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
		// Split the SA bank across dies. Die 0 keeps the community's other
		// banks, so it fits only as many arrays as the headroom left after
		// them — not an equal share: sizing every die to count/p arrays
		// ignores the non-SA area and can leave die 0 over the limit.
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
		die0 := rest
		if k0 > 0 {
			die0 = append([]hw.Bank{{Unit: hw.SystolicArray, Count: k0, SASize: sa.SASize, Cat: p.Catalogue}}, rest...)
		}
		drafts = append(drafts, die0)
		// Spread the remainder near-equally: ceil(rem/extraDies) <= kn, so no
		// pure-SA die exceeds the limit either.
		per := rem / extraDies
		extra := rem % extraDies
		for i := 0; i < extraDies; i++ {
			cnt := per
			if i < extra {
				cnt++
			}
			drafts = append(drafts, []hw.Bank{{Unit: hw.SystolicArray, Count: cnt, SASize: sa.SASize, Cat: p.Catalogue}})
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
			Label:        fmt.Sprintf("L%d", i+1),
			Banks:        banks,
			LogicAreaMM2: hw.UM2ToMM2(logic),
			AreaMM2:      hw.UM2ToMM2(total),
		}
	}
	return chiplets
}

// HostMap maps each unit kind to the chiplet hosting its bank (the first
// hosting chiplet for split systolic-array banks); unhosted kinds map to 0.
func HostMap(chiplets []Chiplet) [hw.NumUnits]int {
	var m [hw.NumUnits]int
	var seen [hw.NumUnits]bool
	for i, c := range chiplets {
		for _, b := range c.Banks {
			if !seen[b.Unit] {
				m[b.Unit], seen[b.Unit] = i, true
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

// NewPackage wraps an already-built chiplet set and floorplan (e.g. a
// core.DesignPoint's) into a Package, computing the derived lookups.
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
func (pkg *Package) AreaMM2() float64 {
	var a float64
	for _, c := range pkg.Chiplets {
		a += c.AreaMM2
	}
	return a
}

// Topology is the configuration-invariant half of a package realization: for
// a fixed set of models on a fixed set of unit kinds, the universal graph's
// nodes and edge weights and their clustering. Louvain reads only the edges,
// and an edge weight is the bytes consecutive layers move between two unit
// kinds, which follow the layers' shapes and the precision, not the DSE point.
// So every point of one exploration shares one Topology: staged selection
// clusters once and realizes each candidate on it (Realize).
type Topology struct {
	name    string
	units   []hw.Unit            // node i's unit kind
	node    [hw.NumUnits]int     // unit kind -> node index + 1 (0: absent)
	traffic [][]ppa.LayerTraffic // per model, in layer order
	edges   []louvain.Edge       // the clustering input, in (A, B) order
	assign  []int                // node -> community
}

// Edges returns the universal graph's edges in (A, B) order, bit-identical to
// graph.Universal(graph.Build(e)...).Edges() on the same evaluations; callers
// must not modify them.
func (t *Topology) Edges() []louvain.Edge { return t.edges }

// nodeOf returns the node index hosting unit kind u, or -1.
func (t *Topology) nodeOf(u hw.Unit) int {
	if u < 0 || int(u) >= hw.NumUnits {
		return -1
	}
	return t.node[u] - 1
}

// bankNodes merges configurations' banks into universal-graph nodes as
// graph.Universal merges per-model graphs: one node per unit kind, in order
// of first appearance across cfgs and their Banks(), with the largest
// instance count and array size among the banks it merges.
func bankNodes(cfgs []hw.Config) []graph.Node {
	var nodes []graph.Node
	var ids [hw.NumUnits]int // unit kind -> node index + 1
	for _, c := range cfgs {
		for _, b := range c.Banks() {
			if ids[b.Unit] == 0 {
				nodes = append(nodes, graph.Node{ID: len(nodes), Unit: b.Unit, Count: b.Count, SASize: b.SASize})
				ids[b.Unit] = len(nodes)
				continue
			}
			n := &nodes[ids[b.Unit]-1]
			n.Count = max(n.Count, b.Count)
			n.SASize = max(n.SASize, b.SASize)
		}
	}
	return nodes
}

// NewTopology builds the universal graph of the models' layer traffic over
// the unit kinds of cfgs and clusters it once. Edge weights sum each model's
// layer-to-layer bytes in layer order, then the per-model sums in model
// order — the order graph.Build and graph.Universal accumulate them in — so
// the clustering input is bit-identical to theirs.
func (p Params) NewTopology(name string, cfgs []hw.Config, traffic [][]ppa.LayerTraffic) (*Topology, error) {
	if p.Cluster == nil {
		return nil, fmt.Errorf("fidelity: nil cluster function")
	}
	nodes := bankNodes(cfgs)
	t := &Topology{name: name, units: make([]hw.Unit, len(nodes)), traffic: traffic}
	for i, nd := range nodes {
		t.units[i] = nd.Unit
		t.node[nd.Unit] = i + 1
	}
	n := len(nodes)
	total := make([]float64, n*n) // upper triangle, a*n + b with a <= b
	model := make([]float64, n*n)
	for _, tr := range traffic {
		clear(model)
		for i, l := range tr {
			b := t.nodeOf(l.Unit)
			if b < 0 {
				return nil, fmt.Errorf("fidelity: %q: layer unit %v missing from the configuration's banks", name, l.Unit)
			}
			if i == 0 {
				continue
			}
			a := t.nodeOf(tr[i-1].Unit)
			if a > b {
				a, b = b, a
			}
			if w := float64(tr[i-1].OutBytes); w > 0 {
				model[a*n+b] += w
			}
		}
		for k, w := range model {
			total[k] += w
		}
	}
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			if w := total[a*n+b]; w > 0 {
				t.edges = append(t.edges, louvain.Edge{A: a, B: b, Weight: w})
			}
		}
	}
	communities, err := p.Cluster(n, slices.Clone(t.edges))
	if err != nil {
		return nil, fmt.Errorf("fidelity: clustering %q: %w", name, err)
	}
	if len(communities) != n {
		return nil, fmt.Errorf("fidelity: cluster function returned %d labels for %d nodes", len(communities), n)
	}
	t.assign = communities
	return t, nil
}

// Realize is the per-point half of a package realization: it sizes the
// topology's nodes from the banks of cfgs (merged as NewTopology merges
// them), splits oversized communities into dies, and floorplans the package
// against the inter-chiplet traffic of every model in the topology.
func (p Params) Realize(t *Topology, cfgs ...hw.Config) (*Package, error) {
	nodes := bankNodes(cfgs)
	if len(nodes) != len(t.units) {
		return nil, fmt.Errorf("fidelity: %q: configuration has %d unit kinds, topology %d", t.name, len(nodes), len(t.units))
	}
	for i, nd := range nodes {
		if nd.Unit != t.units[i] {
			return nil, fmt.Errorf("fidelity: %q: configuration node %d is %v, topology's is %v", t.name, i, nd.Unit, t.units[i])
		}
	}
	pkg := newPackage(p.chipletize(nodes, t.assign))
	pkg.Assign = t.assign

	// Floorplan the package: aggregate inter-chiplet traffic over every
	// served model and minimize traffic-weighted trace length.
	prob := placement.NewProblem(len(pkg.Chiplets))
	for _, tr := range t.traffic {
		for i := 1; i < len(tr); i++ {
			prob.AddTraffic(pkg.host[tr[i-1].Unit], pkg.host[tr[i].Unit], float64(tr[i-1].OutBytes))
		}
	}
	fp, err := placement.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("fidelity: floorplanning %q: %w", t.name, err)
	}
	pkg.Floorplan = fp
	return pkg, nil
}

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
// Realize. It also builds the universal graph itself (graph.Build merged by
// graph.Universal) for the package's Graph.
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
	gs := make([]*graph.Graph, len(evals))
	for i, e := range evals {
		gs[i] = graph.Build(e)
	}
	pkg.Graph = graph.Universal(name, gs...)
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
// its layer traffic and totals.
func (p Params) Eval(pkg *Package, e *ppa.Eval) Result {
	return p.Score(pkg, trafficOf(e), e.Summary())
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
	var r Result
	for i := 1; i < len(traffic); i++ {
		bytes := traffic[i-1].OutBytes
		src := pkg.host[traffic[i-1].Unit]
		dst := pkg.host[traffic[i].Unit]
		if src == dst {
			hops := pkg.intraHops[src]
			r.NoCLatencyS += p.NoC.TransferLatencyAvgS(bytes, hops)
			r.NoCEnergyPJ += p.NoC.TransferEnergyAvgPJ(bytes, hops)
		} else {
			hops := pkg.Floorplan.Hops(src, dst)
			r.NoPLatencyS += p.NoP.TransferLatencyS(bytes, hops)
			r.NoPEnergyPJ += p.NoP.TransferEnergyPJ(bytes, hops)
		}
	}
	r.LatencyS = s.LatencyS + r.NoCLatencyS + r.NoPLatencyS
	r.EnergyPJ = s.EnergyPJ() + r.NoCEnergyPJ + r.NoPEnergyPJ

	// Peak junction temperature: each chiplet dissipates the model's average
	// power in proportion to its area share (uniform power density across the
	// package, matching the no-power-gating assumption).
	area := pkg.AreaMM2()
	if r.LatencyS > 0 && area > 0 {
		totalW := r.EnergyPJ * 1e-12 / r.LatencyS
		srcs := make([]thermal.Source, len(pkg.Chiplets))
		for i, c := range pkg.Chiplets {
			srcs[i] = thermal.Source{
				PowerW:  totalW * c.AreaMM2 / area,
				AreaMM2: c.AreaMM2,
				Slot:    pkg.Floorplan.Slot[i],
			}
		}
		if peak, err := p.Thermal.Peak(srcs, pkg.Floorplan.Grid.W); err == nil {
			r.PeakTempC = peak
		}
	}
	return r
}
