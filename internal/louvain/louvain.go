// Package louvain implements the Louvain community-detection algorithm
// (Blondel et al. 2008) used by CLAIRE's Step #TR3 to partition monolithic
// design graphs into chiplets: frequently communicating unit banks (high edge
// weight) land in the same chiplet, minimizing NoP energy overhead.
//
// The package also provides a greedy min-cut-style bipartition used as an
// ablation baseline (DESIGN.md, D3).
package louvain

import "fmt"

// Edge is an undirected weighted edge between node indices. A == B denotes a
// self-loop.
type Edge struct {
	A, B   int
	Weight float64
}

// Result is a clustering outcome.
type Result struct {
	// Community holds, for each node, a community label in 0..NumCommunities-1,
	// renumbered in order of first appearance.
	Community []int
	// NumCommunities is the number of distinct communities.
	NumCommunities int
	// Modularity is the weighted modularity Q of the partition.
	Modularity float64
	// Levels is the number of aggregation levels Louvain performed.
	Levels int
}

// louvainGraph is the internal working representation: adjacency maps with
// self-loop weights folded into loop[].
type louvainGraph struct {
	n    int
	adj  []map[int]float64 // neighbor -> weight (no self entries)
	loop []float64         // self-loop weight per node
	m2   float64           // 2m: total degree = 2*sum(edge weights)
	deg  []float64         // weighted degree incl. 2*loop
}

func buildGraph(n int, edges []Edge) (*louvainGraph, error) {
	g := &louvainGraph{
		n:    n,
		adj:  make([]map[int]float64, n),
		loop: make([]float64, n),
		deg:  make([]float64, n),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	for _, e := range edges {
		if e.A < 0 || e.B < 0 || e.A >= n || e.B >= n {
			return nil, fmt.Errorf("louvain: edge (%d,%d) out of range n=%d", e.A, e.B, n)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("louvain: negative edge weight %v", e.Weight)
		}
		if e.Weight == 0 {
			continue
		}
		if e.A == e.B {
			g.loop[e.A] += e.Weight
		} else {
			g.adj[e.A][e.B] += e.Weight
			g.adj[e.B][e.A] += e.Weight
		}
	}
	for i := 0; i < n; i++ {
		d := 2 * g.loop[i]
		for _, w := range g.adj[i] {
			d += w
		}
		g.deg[i] = d
		g.m2 += d
	}
	return g, nil
}

// modularity computes Q for a community assignment on g.
func (g *louvainGraph) modularity(comm []int) float64 {
	if g.m2 == 0 {
		return 0
	}
	in := make(map[int]float64)  // internal edge weight per community (x2 convention)
	tot := make(map[int]float64) // total degree per community
	for i := 0; i < g.n; i++ {
		c := comm[i]
		tot[c] += g.deg[i]
		in[c] += 2 * g.loop[i]
		for j, w := range g.adj[i] {
			if comm[j] == c {
				in[c] += w // counted from both ends -> x2 overall
			}
		}
	}
	var q float64
	for c, iw := range in {
		q += iw/g.m2 - (tot[c]/g.m2)*(tot[c]/g.m2)
	}
	for c, tw := range tot {
		if _, ok := in[c]; !ok {
			q -= (tw / g.m2) * (tw / g.m2)
		}
	}
	return q
}

// onePass runs local moving until no node improves; returns the assignment
// and whether any move happened.
func (g *louvainGraph) onePass() ([]int, bool) {
	comm := make([]int, g.n)
	tot := make([]float64, g.n)
	for i := range comm {
		comm[i] = i
		tot[i] = g.deg[i]
	}
	improvedEver := false
	for {
		improved := false
		for i := 0; i < g.n; i++ {
			ci := comm[i]
			// Weights from i to each neighboring community.
			links := make(map[int]float64)
			for j, w := range g.adj[i] {
				links[comm[j]] += w
			}
			// Remove i from its community.
			tot[ci] -= g.deg[i]
			best, bestGain := ci, 0.0
			for c, w := range links {
				// Gain of joining community c (standard Louvain delta-Q,
				// constant factors dropped).
				gain := w - tot[c]*g.deg[i]/g.m2
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best && gain > 1e-12) {
					best, bestGain = c, gain
				}
			}
			stay := links[ci] - tot[ci]*g.deg[i]/g.m2
			if bestGain <= stay+1e-12 {
				best = ci
			}
			tot[best] += g.deg[i]
			if best != ci {
				comm[i] = best
				improved = true
				improvedEver = true
			}
		}
		if !improved {
			break
		}
	}
	return comm, improvedEver
}

// aggregate builds the community supergraph.
func (g *louvainGraph) aggregate(comm []int) (*louvainGraph, []int) {
	labels := renumber(comm)
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	ng := &louvainGraph{
		n:    k,
		adj:  make([]map[int]float64, k),
		loop: make([]float64, k),
		deg:  make([]float64, k),
	}
	for i := range ng.adj {
		ng.adj[i] = make(map[int]float64)
	}
	for i := 0; i < g.n; i++ {
		ci := labels[i]
		ng.loop[ci] += g.loop[i]
		for j, w := range g.adj[i] {
			cj := labels[j]
			if ci == cj {
				if i < j {
					ng.loop[ci] += w
				}
			} else {
				// Each undirected cross edge contributes once to adj[ci][cj]
				// from i's side and once to adj[cj][ci] from j's side, which
				// keeps the supergraph symmetric with the full cross weight.
				ng.adj[ci][cj] += w
			}
		}
	}
	for i := 0; i < k; i++ {
		d := 2 * ng.loop[i]
		for _, w := range ng.adj[i] {
			d += w
		}
		ng.deg[i] = d
		ng.m2 += d
	}
	return ng, labels
}

// renumber maps arbitrary labels to 0..k-1 in order of first appearance.
func renumber(comm []int) []int {
	next := 0
	m := make(map[int]int)
	out := make([]int, len(comm))
	for i, c := range comm {
		l, ok := m[c]
		if !ok {
			l = next
			m[c] = l
			next++
		}
		out[i] = l
	}
	return out
}

// Cluster runs multi-level Louvain over n nodes and the given undirected
// weighted edges. It is deterministic: nodes are visited in index order and
// ties break toward the lowest community label.
func Cluster(n int, edges []Edge) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("louvain: need at least one node, got %d", n)
	}
	g, err := buildGraph(n, edges)
	if err != nil {
		return Result{}, err
	}
	// Node i of the current level maps to community mapping[i] of the
	// original graph.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	levels := 0
	cur := g
	for {
		comm, improved := cur.onePass()
		if !improved && levels > 0 {
			break
		}
		next, labels := cur.aggregate(comm)
		for i := range assign {
			assign[i] = labels[assign[i]]
		}
		levels++
		if next.n == cur.n {
			break
		}
		cur = next
	}
	final := renumber(assign)
	k := 0
	for _, c := range final {
		if c+1 > k {
			k = c + 1
		}
	}
	return Result{
		Community:      final,
		NumCommunities: k,
		Modularity:     g.modularity(final),
		Levels:         levels,
	}, nil
}

// GreedyBipartition is the ablation baseline: it splits nodes into two
// clusters by greedily assigning each node (in descending degree order) to
// the side with which it shares more edge weight, seeding the two sides with
// the endpoints of the lightest edge.
func GreedyBipartition(n int, edges []Edge) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("louvain: need at least one node, got %d", n)
	}
	g, err := buildGraph(n, edges)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return []int{0}, nil
	}
	// Seed with the endpoints of the lightest cross edge.
	sa, sb := 0, 1
	lightest := -1.0
	for a := 0; a < n; a++ {
		for b, w := range g.adj[a] {
			if a < b && (lightest < 0 || w < lightest) {
				lightest, sa, sb = w, a, b
			}
		}
	}
	side := make([]int, n)
	for i := range side {
		side[i] = -1
	}
	side[sa], side[sb] = 0, 1
	// Assign remaining nodes in descending degree order.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i != sa && i != sb {
			order = append(order, i)
		}
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if g.deg[order[j]] > g.deg[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, v := range order {
		var w0, w1 float64
		for u, w := range g.adj[v] {
			switch side[u] {
			case 0:
				w0 += w
			case 1:
				w1 += w
			}
		}
		if w1 > w0 {
			side[v] = 1
		} else {
			side[v] = 0
		}
	}
	return side, nil
}
