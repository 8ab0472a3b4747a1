// Package jaccard implements the weighted Jaccard similarity used by CLAIRE
// to split the training set into algorithm subsets (Algorithm 1, line 14) and
// to assign test algorithms to library configurations (Step #TT1).
//
// An algorithm's graph is summarized as a Profile with two views:
//
//   - Compute: the distribution of MAC work over compute dataflows
//     (CONV2D / CONV1D / LINEAR). The systolic array is the same silicon,
//     but the dataflow compiled onto it differs, and the paper notes that the
//     Conv1D models (GPT-2, Whisper) "are grouped separately" because of it.
//   - Kinds: the set of hardware unit/dataflow keys the algorithm exercises
//     (the binary node set of its graph).
//
// Similarity blends the weighted Jaccard over Compute — gated by the binary
// Jaccard over compute dataflows, so a CONV1D model never looks like a pure
// LINEAR model regardless of magnitudes — with the binary Jaccard over the
// full kind set. The blend weights and the merge threshold tau are ablation
// knobs (DESIGN.md, D2).
package jaccard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/workload"
)

// Profile summarizes an algorithm for similarity purposes.
type Profile struct {
	// Compute maps a compute dataflow key ("CONV2D", "CONV1D", "LINEAR") to
	// its share of total MACs; shares sum to 1 for any model with compute.
	Compute map[string]float64
	// Kinds is the set of unit/dataflow keys present in the graph: compute
	// dataflow keys plus activation/pooling/engine unit names.
	Kinds map[string]bool
}

// keyOf returns the kind key for a layer.
func keyOf(l workload.Layer) string {
	u := hw.UnitFor(l.Kind)
	if u == hw.SystolicArray {
		return l.Kind.String()
	}
	return u.String()
}

// ProfileOfModel summarizes an algorithm directly from its layer list (the
// profile depends only on the workload, not on the configuration it was
// evaluated on).
func ProfileOfModel(m *workload.Model) Profile {
	p := Profile{Compute: make(map[string]float64), Kinds: make(map[string]bool)}
	var macs float64
	for _, l := range m.Layers {
		p.Kinds[keyOf(l)] = true
		if l.Kind.IsCompute() {
			w := float64(l.MACs())
			p.Compute[l.Kind.String()] += w
			macs += w
		}
	}
	if macs > 0 {
		for k := range p.Compute {
			p.Compute[k] /= macs
		}
	}
	return p
}

// Weighted returns the weighted Jaccard similarity sum(min)/sum(max) between
// two weight maps. Two empty maps are identical (similarity 1).
func Weighted(a, b map[string]float64) float64 {
	var mins, maxs float64
	for k, wa := range a {
		wb := b[k]
		if wa < wb {
			mins += wa
			maxs += wb
		} else {
			mins += wb
			maxs += wa
		}
	}
	for k, wb := range b {
		if _, ok := a[k]; !ok {
			maxs += wb
		}
	}
	if maxs == 0 {
		return 1
	}
	return mins / maxs
}

// Binary returns the set Jaccard |a and b| / |a or b|. Two empty sets are
// identical (similarity 1).
func Binary(a, b map[string]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		union++
		if b[k] {
			inter++
		}
	}
	for k := range b {
		if !a[k] {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Options controls subset formation and assignment.
type Options struct {
	// Tau is the merge threshold: clusters merge only while their average
	// pairwise similarity is at least Tau.
	Tau float64
	// ComputeWeight scales the compute-dataflow term; KindWeight scales the
	// kind-set term. They normally sum to 1.
	ComputeWeight float64
	KindWeight    float64
}

// DefaultOptions are the calibrated values used throughout the reproduction:
// they recover five training subsets with the CNN subset holding six
// algorithms, mirroring Table III.
func DefaultOptions() Options {
	return Options{Tau: 0.42, ComputeWeight: 0.6, KindWeight: 0.4}
}

// computeKinds extracts the compute dataflow keys from a profile.
func computeKinds(p Profile) map[string]bool {
	out := make(map[string]bool, len(p.Compute))
	for k := range p.Compute {
		out[k] = true
	}
	return out
}

// Similarity returns the blended similarity of two profiles:
//
//	ComputeWeight * Jw(compute shares) * Jb(compute kinds) + KindWeight * Jb(all kinds)
//
// The multiplicative gate means a dataflow-kind mismatch (CONV1D vs LINEAR)
// suppresses the compute term even when magnitudes align.
func (o Options) Similarity(a, b Profile) float64 {
	cw := Weighted(a.Compute, b.Compute) * Binary(computeKinds(a), computeKinds(b))
	return o.ComputeWeight*cw + o.KindWeight*Binary(a.Kinds, b.Kinds)
}

// Partition groups profile indices into subsets by deterministic
// agglomerative average-linkage clustering: repeatedly merge the two clusters
// with the highest average pairwise similarity while it is at least Tau.
// Returned subsets are ordered by smallest member index; members ascend.
func Partition(profiles []Profile, o Options) [][]int {
	if len(profiles) == 0 {
		return nil
	}
	clusters := make([][]int, len(profiles))
	for i := range profiles {
		clusters[i] = []int{i}
	}
	sim := func(ca, cb []int) float64 {
		var s float64
		for _, i := range ca {
			for _, j := range cb {
				s += o.Similarity(profiles[i], profiles[j])
			}
		}
		return s / float64(len(ca)*len(cb))
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, o.Tau
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := sim(clusters[i], clusters[j]); s > best {
					bi, bj, best = i, j, s
				}
			}
		}
		if bi < 0 {
			break
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		sort.Ints(merged)
		rest := make([][]int, 0, len(clusters)-1)
		for k, c := range clusters {
			if k != bi && k != bj {
				rest = append(rest, c)
			}
		}
		clusters = append(rest, merged)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	return clusters
}

// Centroid merges member profiles into a subset representative: compute
// shares are averaged and kinds are unioned (the union is exactly the unit
// set of the subset's library configuration).
func Centroid(profiles []Profile, members []int) Profile {
	c := Profile{Compute: make(map[string]float64), Kinds: make(map[string]bool)}
	if len(members) == 0 {
		return c
	}
	for _, i := range members {
		for k, w := range profiles[i].Compute {
			c.Compute[k] += w
		}
		for k := range profiles[i].Kinds {
			c.Kinds[k] = true
		}
	}
	for k := range c.Compute {
		c.Compute[k] /= float64(len(members))
	}
	return c
}

// Assign returns the index of the representative profile most similar to p
// (Step #TT1) along with the similarity. reps must be non-empty; ties break
// toward the lowest index.
func Assign(p Profile, reps []Profile, o Options) (int, float64) {
	if len(reps) == 0 {
		panic("jaccard: Assign with no representatives")
	}
	best, bestSim := 0, -1.0
	for i, r := range reps {
		if s := o.Similarity(p, r); s > bestSim {
			best, bestSim = i, s
		}
	}
	return best, bestSim
}

// String renders the profile deterministically.
func (p Profile) String() string {
	ck := make([]string, 0, len(p.Compute))
	for k := range p.Compute {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	var sb strings.Builder
	sb.WriteString("compute{")
	for i, k := range ck {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s:%.3f", k, p.Compute[k])
	}
	sb.WriteString("} kinds{")
	kk := make([]string, 0, len(p.Kinds))
	for k := range p.Kinds {
		kk = append(kk, k)
	}
	sort.Strings(kk)
	sb.WriteString(strings.Join(kk, " "))
	sb.WriteString("}")
	return sb.String()
}
