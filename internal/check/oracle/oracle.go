// Package oracle is the brute-force reference for CLAIRE's configuration
// selection rule (Algorithm 1): among the points that meet the area and
// power-density limits on every model, pick the minimum-area one whose
// per-model latencies stay within the latency slack of the fastest
// statically feasible latency for that model.
//
// It materializes the whole point x model observation matrix and applies the
// rule in O(n²) with plain loops, sharing no code with the streaming sweep,
// dse.Selector or staged refinement it validates. The package is a leaf: it
// imports nothing from the repository, so dse's own tests and the check
// families can both use it.
package oracle

import (
	"math"
	"math/rand"
	"sort"
)

// Obs is one (point, model) observation: the model's area and latency on the
// point, and whether the point meets the static (area and power-density)
// constraints for that model.
type Obs struct {
	AreaMM2  float64
	LatencyS float64
	Static   bool
}

// Matrix is the eager point x model observation matrix.
type Matrix struct {
	Models int
	// Obs holds point k's observation for model i at Obs[k*Models+i].
	Obs []Obs
}

// Build evaluates observe on every (point, model) pair, point-major in index
// order, and stops at the first error: the error of the lowest failing point,
// as a serial scan reports it.
func Build(points, models int, observe func(k, i int) (Obs, error)) (Matrix, error) {
	m := Matrix{Models: models, Obs: make([]Obs, points*models)}
	for k := 0; k < points; k++ {
		for i := 0; i < models; i++ {
			o, err := observe(k, i)
			if err != nil {
				return Matrix{}, err
			}
			m.Obs[k*models+i] = o
		}
	}
	return m, nil
}

// Points returns the number of points (matrix rows).
func (m Matrix) Points() int { return len(m.Obs) / m.Models }

// Row returns point k's observations, one per model.
func (m Matrix) Row(k int) []Obs { return m.Obs[k*m.Models : (k+1)*m.Models] }

// Area returns point k's selection area: its per-model areas summed in model
// order, the same float sum the sweep accumulates.
func (m Matrix) Area(k int) float64 {
	area := 0.0
	for _, o := range m.Row(k) {
		area += o.AreaMM2
	}
	return area
}

// Selection is the outcome of the rule on one matrix.
type Selection struct {
	// Ref holds each model's reference latency: the minimum over the points
	// statically feasible for that model, +Inf when there are none.
	Ref []float64
	// Feasible counts the points statically feasible on every model whose
	// latencies all stay within (1+slack) x Ref.
	Feasible int
	// Frontier lists the feasible points that no other feasible point
	// dominates, in (area, index) order. A dominates B when A precedes B in
	// that order and is no slower on any model.
	Frontier []int
}

// Winner returns the selected point, Frontier[0], or -1 when no point is
// feasible.
func (s Selection) Winner() int {
	if len(s.Frontier) == 0 {
		return -1
	}
	return s.Frontier[0]
}

// Select applies the selection rule with the given latency slack.
func (m Matrix) Select(slack float64) Selection {
	n := m.Points()
	ref := make([]float64, m.Models)
	for i := range ref {
		ref[i] = math.Inf(1)
	}
	for k := 0; k < n; k++ {
		for i, o := range m.Row(k) {
			if o.Static && o.LatencyS < ref[i] {
				ref[i] = o.LatencyS
			}
		}
	}
	var feasible []int
	for k := 0; k < n; k++ {
		ok := true
		for i, o := range m.Row(k) {
			if !o.Static || o.LatencyS > (1+slack)*ref[i] {
				ok = false
			}
		}
		if ok {
			feasible = append(feasible, k)
		}
	}
	area := make([]float64, n)
	for _, k := range feasible {
		area[k] = m.Area(k)
	}
	precedes := func(a, b int) bool {
		return area[a] < area[b] || (area[a] == area[b] && a < b)
	}
	sort.Slice(feasible, func(x, y int) bool { return precedes(feasible[x], feasible[y]) })
	var frontier []int
	for _, b := range feasible {
		dominated := false
		for _, a := range feasible {
			if !precedes(a, b) {
				continue
			}
			noSlower := true
			for i := 0; i < m.Models; i++ {
				if m.Obs[a*m.Models+i].LatencyS > m.Obs[b*m.Models+i].LatencyS {
					noSlower = false
				}
			}
			if noSlower {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, b)
		}
	}
	return Selection{Ref: ref, Feasible: len(feasible), Frontier: frontier}
}

// RandomTrial draws one randomized selection trial: 1-4 models, 1-60 points
// and a slack of 0, 0.25, 0.5 or 1. Latencies sit on a 0.25 s grid and
// per-model areas on a 0.5 mm² grid, so area ties and latencies exactly on
// the slack boundary are common, and about one observation in five is
// statically infeasible, so a model's reference must ignore some of the
// fastest latencies.
func RandomTrial(rng *rand.Rand) (Matrix, float64) {
	models := 1 + rng.Intn(4)
	points := 1 + rng.Intn(60)
	slack := []float64{0, 0.25, 0.5, 1.0}[rng.Intn(4)]
	m := Matrix{Models: models, Obs: make([]Obs, points*models)}
	for j := range m.Obs {
		m.Obs[j] = Obs{
			AreaMM2:  0.5 * float64(1+rng.Intn(6)),
			LatencyS: 0.25 * float64(1+rng.Intn(8)),
			Static:   rng.Intn(5) != 0,
		}
	}
	return m, slack
}
