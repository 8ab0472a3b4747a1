// Package claire is a from-scratch reproduction of "CLAIRE: Composable
// Chiplet Libraries for AI Inference" (DATE 2025): an analytical framework
// that derives a small library of hardened-IP chiplet configurations able to
// serve broad classes of AI inference workloads at near-custom performance
// while cutting non-recurring engineering (NRE) cost by multiples.
//
// The package is a thin facade over the internal pipeline:
//
//	res, err := claire.Run(claire.DefaultOptions())
//	// res.Train holds Tables II-IV; res.Test holds Tables V-VI.
//
// See the cmd/claire binary for a CLI that prints every paper table and
// figure, and the examples/ directory for library usage patterns.
package claire

import (
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/jaccard"
	"repro/internal/workload"
)

// Re-exported pipeline types. The aliases expose the full internal API
// surface of the orchestration layer as the library's public interface.
type (
	// Options bundles every framework input (design space, constraints,
	// similarity knobs, NoC/NoP characteristics, cost model, clustering).
	Options = core.Options
	// TrainResult is the training phase output: custom, generic and
	// library-synthesized configurations plus subsets.
	TrainResult = core.TrainResult
	// TestResult is the test phase output: assignments and metrics.
	TestResult = core.TestResult
	// DesignPoint is one chipletized design configuration.
	DesignPoint = core.DesignPoint
	// Chiplet is one die of a configuration.
	Chiplet = core.Chiplet
	// ModelPPA is one algorithm's evaluation on a configuration.
	ModelPPA = core.ModelPPA
	// Subset is one training subset with its library configuration.
	Subset = core.Subset
	// Assignment is one test algorithm's configuration assignment.
	Assignment = core.Assignment
	// Model is a layer-level AI algorithm description.
	Model = workload.Model
	// Layer is one layer of an algorithm.
	Layer = workload.Layer
	// OpKind is a layer kind.
	OpKind = workload.OpKind
	// Profile is an algorithm similarity profile.
	Profile = jaccard.Profile
	// Evaluator is the parallel memoizing evaluation engine behind every
	// sweep; set Options.Evaluator (or Options.Workers) to control it.
	Evaluator = eval.Evaluator
	// DesignSpace is a lazily indexable DSE space for Options.Space.
	DesignSpace = hw.DesignSpace
	// SpaceSpec is a cartesian design-space generator (axis value lists).
	SpaceSpec = hw.SpaceSpec
	// Catalogue is a chiplet catalogue: the config-loadable source of unit
	// PPA and hardened chiplet types for Options.Catalogue.
	Catalogue = hw.Catalogue
	// ChipletSpec is one hardened chiplet type of a catalogue.
	ChipletSpec = hw.ChipletSpec
	// Mix is a heterogeneous per-catalogue-type chiplet count vector.
	Mix = hw.Mix
	// MixSpec is a heterogeneous design-space generator over catalogue types.
	MixSpec = hw.MixSpec
	// MixSpace is a built MixSpec: a lazily indexable heterogeneous space.
	MixSpace = hw.MixSpace
)

// Design-space constructors for Options.Space: the paper's 81-point space,
// the ~12k-point fine preset, the -space flag parsers ("paper", "fine",
// "mix", "mixfine", "AxBxCxD"), and the heterogeneous mix presets.
var (
	PaperSpace     = hw.PaperSpace
	FineSpace      = hw.FineSpace
	ParseSpace     = hw.ParseSpace
	ParseSpaceWith = hw.ParseSpaceWith
	DefaultMixSpec = hw.DefaultMixSpec
	FineMixSpec    = hw.FineMixSpec
)

// Catalogue constructors for Options.Catalogue: the built-in 28 nm default
// (bit-identical to the pre-catalogue constants), the JSON file loader
// ("" selects the default), and the reader-level parser.
var (
	DefaultCatalogue = hw.Default
	LoadCatalogue    = hw.LoadCatalogue
	ParseCatalogue   = hw.ParseCatalogue
)

// NewEvaluator builds an evaluation engine with the given worker count
// (0 = GOMAXPROCS, 1 = serial). Inject it into Options.Evaluator to share
// one memoization cache across training, test and sweep phases.
func NewEvaluator(workers int) *Evaluator {
	return eval.New(eval.Options{Workers: workers})
}

// Layer kinds, re-exported for building custom models (see
// examples/custom-model).
const (
	Conv2d           = workload.Conv2d
	Conv1d           = workload.Conv1d
	Linear           = workload.Linear
	ReLU             = workload.ReLU
	ReLU6            = workload.ReLU6
	GELU             = workload.GELU
	SiLU             = workload.SiLU
	Tanh             = workload.Tanh
	MaxPool          = workload.MaxPool
	AvgPool          = workload.AvgPool
	AdaptiveAvgPool  = workload.AdaptiveAvgPool
	LastLevelMaxPool = workload.LastLevelMaxPool
	ROIAlign         = workload.ROIAlign
	Flatten          = workload.Flatten
	Permute          = workload.Permute
)

// ClusterFunc partitions a design graph into chiplet communities.
type ClusterFunc = core.ClusterFunc

// Clustering algorithms for Options.Cluster: the paper's Louvain step and
// the greedy-bipartition ablation baseline.
var (
	LouvainCluster ClusterFunc = core.LouvainCluster
	GreedyCluster  ClusterFunc = core.GreedyCluster
)

// DefaultOptions returns the calibrated reproduction defaults.
func DefaultOptions() Options { return core.DefaultOptions() }

// TrainingSet returns the paper's thirteen training algorithms (Table I).
func TrainingSet() []*Model { return workload.TrainingSet() }

// TestSet returns the paper's six test algorithms (Input #6).
func TestSet() []*Model { return workload.TestSet() }

// ModelByName builds any of the nineteen known algorithms by its paper name.
func ModelByName(name string) (*Model, error) { return workload.ByName(name) }

// Train runs the training phase of the framework over the given algorithms.
func Train(models []*Model, o Options) (*TrainResult, error) {
	return core.Train(models, o)
}

// Test runs the test phase against a completed training result.
func Test(tr *TrainResult, models []*Model, o Options) (*TestResult, error) {
	return core.Test(tr, models, o)
}

// Results bundles a full run.
type Results struct {
	Train *TrainResult
	Test  *TestResult
}

// Run executes the complete pipeline on the paper's training and test sets.
// Both phases share one evaluation engine, so the test phase reuses the
// training phase's plans and built designs.
func Run(o Options) (*Results, error) {
	o.Evaluator = o.Engine()
	tr, err := Train(TrainingSet(), o)
	if err != nil {
		return nil, err
	}
	tt, err := Test(tr, TestSet(), o)
	if err != nil {
		return nil, err
	}
	return &Results{Train: tr, Test: tt}, nil
}
