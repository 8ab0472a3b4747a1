package core

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestStagedTrainPricesWithSpaceCatalogue pins where a configuration's unit
// PPA comes from: the catalogue its space carries. The paper space carries
// none, so a staged Train over it must build the same designs, chiplet areas
// and NRE included, whether Options.Catalogue names mobile-7nm or is nil. A
// chipletization that priced banks with Options.Catalogue would size stage
// 1's dies at 7 nm while every energy comes from the 28 nm default, and the
// junction-temperature check would reject every frontier candidate.
func TestStagedTrainPricesWithSpaceCatalogue(t *testing.T) {
	cat, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	train := func(cat *hw.Catalogue) string {
		o := DefaultOptions()
		o.Fidelity = dse.FidelityStaged
		o.Catalogue = cat
		tr, err := Train(workload.TrainingSet(), o)
		if err != nil {
			t.Fatalf("catalogue %v: %v", cat != nil, err)
		}
		return canonTrain(tr)
	}
	if got, want := train(cat), train(nil); got != want {
		t.Errorf("Options.Catalogue moved designs on a space without a catalogue:\nmobile-7nm:\n%s\nnil:\n%s", got, want)
	}
}
