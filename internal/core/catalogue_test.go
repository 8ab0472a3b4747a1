package core

import (
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestStagedTrainPricesWithSpaceCatalogue pins where a configuration's unit
// PPA comes from: the catalogue its space carries. Options.Validate rejects
// an Options.Catalogue that differs from the space's, so a staged Train on
// the paper space (no catalogue: the built-in 28 nm default) with the field
// naming mobile-7nm fails and names both fingerprints, instead of silently
// building 28 nm designs. Resolved through Options.Resolve, the space
// carries mobile-7nm, and every design Train builds on it is priced with
// that catalogue: its configuration carries it, and the designs differ from
// the default catalogue's.
func TestStagedTrainPricesWithSpaceCatalogue(t *testing.T) {
	cat, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	models := workload.TrainingSet()[:4]
	o := DefaultOptions()
	o.Fidelity = dse.FidelityStaged
	o.Catalogue = cat
	_, err = Train(models, o)
	if err == nil || !strings.Contains(err.Error(), cat.Fingerprint()) || !strings.Contains(err.Error(), hw.Default().Fingerprint()) {
		t.Fatalf("mobile-7nm option on the paper space: error %v, want one naming both fingerprints", err)
	}

	train := func(cat *hw.Catalogue) *TrainResult {
		o := DefaultOptions()
		o.Catalogue = cat
		if err := o.Resolve("paper", "", 0, 0, "staged"); err != nil {
			t.Fatal(err)
		}
		tr, err := Train(models, o)
		if err != nil {
			t.Fatalf("catalogue %v: %v", cat != nil, err)
		}
		return tr
	}
	mobile := train(cat)
	designs := []*DesignPoint{mobile.Generic}
	for _, d := range mobile.Customs {
		designs = append(designs, d)
	}
	for _, s := range mobile.Subsets {
		designs = append(designs, s.Library)
	}
	for _, d := range designs {
		if d.Config.Cat != cat {
			t.Errorf("%s: configuration does not carry mobile-7nm", d.Name)
		}
	}
	if canonTrain(mobile) == canonTrain(train(nil)) {
		t.Error("the designs on a mobile-7nm space equal the default catalogue's; the check lost its teeth")
	}
}
