package louvain

import (
	"math/rand"
	"testing"
)

// twoCliques builds two k-cliques joined by a single weak edge.
func twoCliques(k int, inner, bridge float64) (int, []Edge) {
	n := 2 * k
	var edges []Edge
	for c := 0; c < 2; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, Edge{base + i, base + j, inner})
			}
		}
	}
	edges = append(edges, Edge{0, k, bridge})
	return n, edges
}

func TestClusterSeparatesTwoCliques(t *testing.T) {
	n, edges := twoCliques(5, 10, 0.1)
	res, err := Cluster(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 2 {
		t.Fatalf("found %d communities, want 2 (assign=%v)", res.NumCommunities, res.Community)
	}
	for i := 1; i < 5; i++ {
		if res.Community[i] != res.Community[0] {
			t.Errorf("node %d split from first clique", i)
		}
		if res.Community[5+i] != res.Community[5] {
			t.Errorf("node %d split from second clique", 5+i)
		}
	}
	if res.Community[0] == res.Community[5] {
		t.Error("cliques merged")
	}
	if res.Modularity < 0.3 {
		t.Errorf("modularity %.3f suspiciously low for a clean two-clique graph", res.Modularity)
	}
}

func TestClusterSingleNodeAndEmptyEdges(t *testing.T) {
	res, err := Cluster(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 1 || res.Community[0] != 0 {
		t.Errorf("single node: %+v", res)
	}
	res, err = Cluster(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 4 {
		t.Errorf("edgeless graph should keep every node separate, got %d", res.NumCommunities)
	}
	if _, err := Cluster(0, nil); err == nil {
		t.Error("Cluster(0) should fail")
	}
	if _, err := Cluster(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := Cluster(2, []Edge{{0, 1, -1}}); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestClusterDeterministic(t *testing.T) {
	n, edges := twoCliques(8, 3, 0.5)
	first, err := Cluster(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Cluster(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first.Community {
			if again.Community[j] != first.Community[j] {
				t.Fatalf("run %d diverged at node %d", i, j)
			}
		}
	}
}

func TestSelfLoopsKeptInternal(t *testing.T) {
	// A node with a huge self-loop plus a light link: the self-loop must not
	// break anything and the partition must still find the two pairs.
	edges := []Edge{
		{0, 0, 100}, {0, 1, 10}, {2, 3, 10}, {1, 2, 0.1},
	}
	res, err := Cluster(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if res.Community[0] != res.Community[1] {
		t.Error("0 and 1 should share a community")
	}
	if res.Community[2] != res.Community[3] {
		t.Error("2 and 3 should share a community")
	}
	if res.Community[0] == res.Community[2] {
		t.Error("the two pairs should separate")
	}
}

func TestModularityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 2
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, Edge{rng.Intn(n), rng.Intn(n), rng.Float64() * 5})
		}
		res, err := Cluster(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < -0.5-1e-9 || res.Modularity > 1+1e-9 {
			t.Fatalf("modularity %v out of [-0.5, 1]", res.Modularity)
		}
		// Community labels must be contiguous from 0.
		seen := make(map[int]bool)
		for _, c := range res.Community {
			if c < 0 || c >= res.NumCommunities {
				t.Fatalf("label %d outside [0,%d)", c, res.NumCommunities)
			}
			seen[c] = true
		}
		if len(seen) != res.NumCommunities {
			t.Fatalf("labels not contiguous: %v", res.Community)
		}
	}
}

// TestClusterBeatsGreedyOnModularStructure compares Louvain with the greedy
// baseline on a graph with four planted communities: Louvain should recover
// more structure (lower cut weight per community or more communities).
func TestClusterBeatsGreedyOnModularStructure(t *testing.T) {
	var edges []Edge
	k := 4
	for c := 0; c < 4; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, Edge{base + i, base + j, 8})
			}
		}
		edges = append(edges, Edge{base, (base + k) % (4 * k), 0.2})
	}
	n := 4 * k
	res, err := Cluster(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 4 {
		t.Errorf("Louvain found %d communities, want 4", res.NumCommunities)
	}
	greedy, err := GreedyBipartition(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := buildGraph(n, edges)
	if g.modularity(res.Community) < g.modularity(greedy)-1e-9 {
		t.Errorf("Louvain Q=%.4f worse than greedy bipartition Q=%.4f",
			g.modularity(res.Community), g.modularity(greedy))
	}
}

func TestGreedyBipartition(t *testing.T) {
	n, edges := twoCliques(4, 5, 0.1)
	side, err := GreedyBipartition(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(side) != n {
		t.Fatalf("assignment length %d, want %d", len(side), n)
	}
	for _, s := range side {
		if s != 0 && s != 1 {
			t.Fatalf("greedy produced label %d", s)
		}
	}
	if _, err := GreedyBipartition(0, nil); err == nil {
		t.Error("GreedyBipartition(0) should fail")
	}
	one, err := GreedyBipartition(1, nil)
	if err != nil || len(one) != 1 || one[0] != 0 {
		t.Errorf("single node bipartition = %v, %v", one, err)
	}
}

// TestKarateClubStyle runs Louvain on a randomized modular graph and checks
// that modularity is no worse than the trivial one-community partition.
func TestModularityImprovesOverTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 12
		var edges []Edge
		for c := 0; c < 3; c++ {
			base := c * 4
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					edges = append(edges, Edge{base + i, base + j, 1 + rng.Float64()})
				}
			}
		}
		edges = append(edges, Edge{0, 4, 0.1}, Edge{4, 8, 0.1})
		res, err := Cluster(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := buildGraph(n, edges)
		trivial := make([]int, n)
		if res.Modularity < g.modularity(trivial)-1e-9 {
			t.Fatalf("louvain Q=%.4f worse than trivial Q=%.4f", res.Modularity, g.modularity(trivial))
		}
	}
}
