package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// Every workload cycles through drawsPerRun input draws of its seed, so a
// run's figures average over several inputs instead of resting on one.
const drawsPerRun = 3

// The batch workloads draw network sets of matched size: a set is kept only
// when its total layer count lies within the tolerance of the reference
// set's. Seeds then change which networks run, not how much work a run is.
const (
	splitTolerance = 0.03
	trioTolerance  = 0.05
)

// referenceTrio is the three-network mixfine set cmd/clairebench sweeps.
var referenceTrio = []string{"Alexnet", "ViT-base", "Resnet18"}

// rngFor returns the random stream of one draw of one seed.
func rngFor(seed int64, draw int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(draw)*7_919 + 1))
}

// layerCounts maps every network name to its layer count.
func layerCounts() map[string]int {
	out := make(map[string]int)
	for _, name := range workload.Names() {
		m, _ := workload.ByName(name) // Names lists only registered networks
		out[name] = len(m.Layers)
	}
	return out
}

func layerSum(names []string, layers map[string]int) int {
	n := 0
	for _, name := range names {
		n += layers[name]
	}
	return n
}

func within(v, target int, tol float64) bool {
	return math.Abs(float64(v-target)) <= tol*float64(target)
}

// drawSplit returns the training and test networks of one draw. Seed 0's
// first draw is the paper's Table I split; every other draw shuffles the 19
// networks and keeps the first shuffle whose 13 training networks match
// Table I's total layer count within splitTolerance.
func drawSplit(seed int64, draw int, layers map[string]int) (train, test []string) {
	var tableI []string
	for _, m := range workload.TrainingSet() {
		tableI = append(tableI, m.Name)
	}
	all := workload.Names()
	if seed == 0 && draw == 0 {
		return tableI, all[len(tableI):]
	}
	target := layerSum(tableI, layers)
	r := rngFor(seed, draw)
	for {
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		if within(layerSum(all[:len(tableI)], layers), target, splitTolerance) {
			return all[:len(tableI):len(tableI)], all[len(tableI):]
		}
	}
}

// drawTrio returns the three networks one draw sweeps over mixfine. Seed
// 0's first draw is referenceTrio; every other draw picks three distinct
// networks whose total layer count matches referenceTrio's within
// trioTolerance.
func drawTrio(seed int64, draw int, layers map[string]int) []string {
	if seed == 0 && draw == 0 {
		return append([]string(nil), referenceTrio...)
	}
	target := layerSum(referenceTrio, layers)
	all := workload.Names()
	r := rngFor(seed, draw+drawsPerRun)
	for {
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		if within(layerSum(all[:3], layers), target, trioTolerance) {
			return append([]string(nil), all[:3]...)
		}
	}
}

// models builds the named networks.
func models(names []string) []*workload.Model {
	out := make([]*workload.Model, len(names))
	for i, name := range names {
		out[i], _ = workload.ByName(name) // names come from workload.Names
	}
	return out
}

// digest hashes its parts into a short hex string: the fingerprint of a
// run's generated inputs, or of one operation's outputs.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// joinNames renders a network list for a digest.
func joinNames(names []string) string { return strings.Join(names, ",") }
