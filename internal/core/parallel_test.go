package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

func optionsWithWorkers(workers int) Options {
	o := DefaultOptions()
	o.Workers = workers
	return o
}

// canonDesign renders a design point with bit-exact float encoding.
func canonDesign(d *DesignPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s cfg=%s nre=%x chiplets=%d dse=%d/%d %q\n", d.Name, d.Config,
		math.Float64bits(d.NREUSD), len(d.Chiplets),
		d.DSE.Feasible, d.DSE.Explored, d.DSE.SpaceDesc)
	for _, c := range d.Chiplets {
		fmt.Fprintf(&sb, "  %s %s area=%x\n", c.Label, c.Signature(), math.Float64bits(c.AreaMM2))
	}
	names := make([]string, 0, len(d.PerModel))
	for name := range d.PerModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mp := d.PerModel[name]
		fmt.Fprintf(&sb, "  %s lat=%x pj=%x util=%x\n", name,
			math.Float64bits(mp.Total.LatencyS), math.Float64bits(mp.Total.EnergyPJ),
			math.Float64bits(mp.Utilization))
	}
	return sb.String()
}

func canonTrain(tr *TrainResult) string {
	var sb strings.Builder
	sb.WriteString(canonDesign(tr.Generic))
	names := make([]string, 0, len(tr.Customs))
	for name := range tr.Customs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sb.WriteString(canonDesign(tr.Customs[name]))
	}
	for _, s := range tr.Subsets {
		fmt.Fprintf(&sb, "%s members=%v\n", s.Name, s.Members)
		sb.WriteString(canonDesign(s.Library))
	}
	return sb.String()
}

// TestTrainDeterministicAcrossWorkers runs the full 13-model training phase
// serially and with 8 workers: the selected configurations, chiplet splits,
// NREs and per-model evaluations must be byte-identical. It does so with the
// exhaustive sweep on the paper space and with a budgeted anneal search on
// the fine space, where every selection runs its own search on the pool.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	spec, err := search.ParseSpec("anneal")
	if err != nil {
		t.Fatal(err)
	}
	for _, so := range []*SearchOptions{nil, {Spec: spec, Seed: 7}} {
		run := func(workers int) *TrainResult {
			o := optionsWithWorkers(workers)
			if so != nil {
				o.Space, o.Search = hw.FineSpace(), so
			}
			tr, err := Train(workload.TrainingSet(), o)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		if a, b := canonTrain(run(1)), canonTrain(run(8)); a != b {
			t.Errorf("search=%v: training phase differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s",
				so != nil, a, b)
		}
	}
}

// TestTestPhaseDeterministicAcrossWorkers extends the guarantee through the
// test phase's assignment and evaluation steps.
func TestTestPhaseDeterministicAcrossWorkers(t *testing.T) {
	canon := func(workers int) string {
		o := optionsWithWorkers(workers)
		tr, err := Train(workload.TrainingSet(), o)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := Test(tr, workload.TestSet(), o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, a := range tt.Assignments {
			fmt.Fprintf(&sb, "%s subset=%d sim=%x custom=%s\n", a.Algorithm, a.SubsetIndex,
				math.Float64bits(a.Similarity), a.Custom.Config)
			if a.OnLibrary != nil {
				fmt.Fprintf(&sb, "  lib lat=%x pj=%x\n",
					math.Float64bits(a.OnLibrary.Total.LatencyS),
					math.Float64bits(a.OnLibrary.Total.EnergyPJ))
			}
		}
		return sb.String()
	}
	if a, b := canon(1), canon(8); a != b {
		t.Errorf("test phase differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// TestSweepsDeterministicAcrossWorkers compares the tau and slack sweeps at
// both worker counts; the point structs are plain values so DeepEqual is an
// exact (bitwise on floats) comparison.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	taus := []float64{0.30, 0.42, 0.80}
	tau1, err := SweepTau(workload.TrainingSet(), optionsWithWorkers(1), taus)
	if err != nil {
		t.Fatal(err)
	}
	tau8, err := SweepTau(workload.TrainingSet(), optionsWithWorkers(8), taus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tau1, tau8) {
		t.Errorf("SweepTau differs between 1 and 8 workers:\n%+v\n%+v", tau1, tau8)
	}

	slacks := []float64{2.0, 1.0, 0.5}
	slack1, err := SweepSlack(workload.NewResNet50(), optionsWithWorkers(1), slacks)
	if err != nil {
		t.Fatal(err)
	}
	slack8, err := SweepSlack(workload.NewResNet50(), optionsWithWorkers(8), slacks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slack1, slack8) {
		t.Errorf("SweepSlack differs between 1 and 8 workers:\n%+v\n%+v", slack1, slack8)
	}
}

// TestEngineSharedAcrossPhases verifies the caching contract across phases:
// a test phase run with the training phase's options reuses its evaluator,
// and a retrain at a tau on the same subset plateau finds every design it
// builds already in the cache.
func TestEngineSharedAcrossPhases(t *testing.T) {
	o := DefaultOptions()
	o.Evaluator = o.Engine()
	tr, err := Train(workload.TrainingSet(), o)
	if err != nil {
		t.Fatal(err)
	}
	after := o.Evaluator.Stats()
	if after.Misses == 0 || after.Hits == 0 {
		t.Fatalf("training produced no cache traffic: %+v", after)
	}
	if _, err := Test(tr, workload.TestSet(), o); err != nil {
		t.Fatal(err)
	}
	// 0.46 sits on the same subset plateau as the default threshold (see
	// TestSweepTauZeroMissesAfterWarm), so the retrain's library unions, and
	// with them every winner it materializes, are identical.
	missesBefore := o.Evaluator.Stats().Misses
	oo := o
	oo.Similarity.Tau = 0.46
	if _, err := Train(workload.TrainingSet(), oo); err != nil {
		t.Fatal(err)
	}
	s := o.Evaluator.Stats()
	if s.Misses != missesBefore {
		t.Errorf("retrain at a new tau recomputed %d evaluations; its designs must hit cache",
			s.Misses-missesBefore)
	}
}

// TestNegativeWorkersRejected pins the worker check of Options.Validate and
// of Options.Resolve, which every front end calls before it builds an engine,
// so no CLI or request quietly clamps a negative count.
func TestNegativeWorkersRejected(t *testing.T) {
	o := DefaultOptions()
	o.Workers = -1
	if o.Validate() == nil {
		t.Error("negative Workers must fail validation")
	}
	if _, err := Train(workload.TrainingSet()[:1], o); err == nil {
		t.Error("Train must reject negative Workers")
	}
	o.Workers = -5
	err := o.Resolve("", "", 0, 0, "")
	if err == nil || err.Error() != "core: negative worker count -5" {
		t.Errorf("Resolve with Workers -5: err = %v, want core: negative worker count -5", err)
	}
}

// TestEvaluatorReuseInTest ensures Test without an injected engine reuses the
// training engine for Step #TT1: the test algorithm's custom design and its
// evaluation on the assigned library land in the training engine's cache.
func TestEvaluatorReuseInTest(t *testing.T) {
	o := DefaultOptions()
	tr, err := Train(workload.TrainingSet()[:3], o)
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.Options.Evaluator
	if ev == nil {
		t.Fatal("Train did not pin an evaluator into the result options")
	}
	before := ev.Stats()
	m := workload.TestSet()[0]
	res, err := Test(tr, []*workload.Model{m}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()
	if after.Misses == before.Misses || after.Entries == before.Entries {
		t.Fatalf("test phase left no evaluation on the training engine: %+v -> %+v", before, after)
	}
	// Every design the test phase built is now a hit on the training engine.
	a := res.Assignments[0]
	designs := []*DesignPoint{a.Custom}
	if a.SubsetIndex >= 0 {
		designs = append(designs, tr.Subsets[a.SubsetIndex].Library)
	}
	for _, d := range designs {
		if _, err := ev.Evaluate(m, d.Config); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.Stats(); got.Misses != after.Misses || got.Hits != after.Hits+uint64(len(designs)) {
		t.Errorf("re-evaluating %s's %d test-phase designs: %+v -> %+v, want %d hits and no miss",
			m.Name, len(designs), after, got, len(designs))
	}
}
