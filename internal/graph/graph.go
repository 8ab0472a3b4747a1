// Package graph builds the universal graph of CLAIRE's Step #TR1:
// UG(N, E, w_N, w_E) where each node is a hardware unit bank, node weights
// count how many times the bank executes to run the algorithms, and edge
// weights carry the data volume consecutive layers move between banks.
// Universal merges the algorithms' banks and layer traffic into one graph;
// its edges are what the Louvain step partitions into chiplets, and with
// node weights it is the Figure 3 view.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/ppa"
)

// Node is one hardware unit bank.
type Node struct {
	ID     int
	Unit   hw.Unit
	Count  int     // unit instances in the bank
	SASize int     // array dimension for SA banks
	Weight float64 // w_N: executions of the bank for the workload(s)
}

// Label renders the node for figures, e.g. "SA[32x32]x32".
func (n Node) Label() string {
	return hw.Bank{Unit: n.Unit, Count: n.Count, SASize: n.SASize}.String()
}

// Edge is an undirected weighted edge with A <= B; the clustering input is a
// graph's edge list as it stands.
type Edge = louvain.Edge

// Graph is an undirected weighted graph over unit banks. Self-edges
// (consecutive layers on the same bank, e.g. LINEAR-LINEAR) are retained:
// they carry the data locality that clustering must preserve.
type Graph struct {
	Name  string
	Nodes []Node
	Edges []Edge // in (A, B) order, positive weights only
}

// BankNodes merges configurations' banks into universal-graph nodes: one
// node per unit kind, in order of first appearance across cfgs and their
// Banks(), with the largest instance count and array size among the banks it
// merges. Node weights are zero.
func BankNodes(cfgs []hw.Config) []Node { return AppendBankNodes(nil, cfgs) }

// AppendBankNodes appends BankNodes(cfgs) to nodes and returns the extended
// slice; the appended nodes' IDs count from 0. On configurations of at most
// hw.NumUnits banks each it allocates only when nodes runs out of capacity.
func AppendBankNodes(nodes []Node, cfgs []hw.Config) []Node {
	base := len(nodes)
	var ids [hw.NumUnits]int // unit kind -> node index - base + 1
	var buf [hw.NumUnits]hw.Bank
	for i := range cfgs {
		for _, b := range cfgs[i].AppendBanks(buf[:0]) {
			if ids[b.Unit] == 0 {
				nodes = append(nodes, Node{ID: len(nodes) - base, Unit: b.Unit, Count: b.Count, SASize: b.SASize})
				ids[b.Unit] = len(nodes) - base
				continue
			}
			n := &nodes[base+ids[b.Unit]-1]
			n.Count = max(n.Count, b.Count)
			n.SASize = max(n.SASize, b.SASize)
		}
	}
	return nodes
}

// Universal builds UG over the banks of cfgs (merged by BankNodes) from each
// model's layer traffic, in layer order: consecutive layers i-1 and i add
// layer i-1's output bytes to the undirected edge between their banks. Edge
// weights sum each model's bytes in layer order, then the per-model sums in
// model order. Node weights are left zero; traffic does not carry
// executions. A layer whose unit has no bank is an error.
func Universal(name string, cfgs []hw.Config, traffic [][]ppa.LayerTraffic) (*Graph, error) {
	g := &Graph{Name: name, Nodes: BankNodes(cfgs)}
	var node [hw.NumUnits]int // unit kind -> node index + 1
	for i, nd := range g.Nodes {
		node[nd.Unit] = i + 1
	}
	nodeOf := func(u hw.Unit) int {
		if u < 0 || int(u) >= hw.NumUnits {
			return -1
		}
		return node[u] - 1
	}
	n := len(g.Nodes)
	total := make([]float64, n*n) // upper triangle, a*n + b with a <= b
	model := make([]float64, n*n)
	for _, tr := range traffic {
		clear(model)
		for i, l := range tr {
			b := nodeOf(l.Unit)
			if b < 0 {
				return nil, fmt.Errorf("graph: %q: layer unit %v missing from the configuration's banks", name, l.Unit)
			}
			if i == 0 {
				continue
			}
			a := nodeOf(tr[i-1].Unit)
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
				g.Edges = append(g.Edges, Edge{A: a, B: b, Weight: w})
			}
		}
	}
	return g, nil
}

// DOT renders the graph in Graphviz format; clusters, when non-nil, assigns
// each node to a chiplet subgraph (Figure 3b style). Passing nil renders the
// monolithic graph (Figure 3a style).
func (g *Graph) DOT(clusters []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n  layout=neato;\n  node [shape=box];\n", sanitizeID(g.Name))
	if clusters == nil {
		for _, n := range g.Nodes {
			fmt.Fprintf(&sb, "  n%d [label=\"%s\\nw=%.0f\"];\n", n.ID, n.Label(), n.Weight)
		}
	} else {
		byCluster := make(map[int][]Node)
		for _, n := range g.Nodes {
			byCluster[clusters[n.ID]] = append(byCluster[clusters[n.ID]], n)
		}
		keys := make([]int, 0, len(byCluster))
		for c := range byCluster {
			keys = append(keys, c)
		}
		sort.Ints(keys)
		for i, c := range keys {
			fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"Chiplet L%d\";\n", c, i+1)
			for _, n := range byCluster[c] {
				fmt.Fprintf(&sb, "    n%d [label=\"%s\\nw=%.0f\"];\n", n.ID, n.Label(), n.Weight)
			}
			sb.WriteString("  }\n")
		}
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "  n%d -- n%d [label=\"%.3g\"];\n", e.A, e.B, e.Weight)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func sanitizeID(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '"' {
			return '\''
		}
		return r
	}, s)
}
