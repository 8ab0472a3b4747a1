package memory

import (
	"testing"

	"repro/internal/workload"
)

func TestFootprintOf(t *testing.T) {
	m := workload.NewResNet18()
	f := FootprintOf(m)
	if f.WeightBytes != m.Params() {
		t.Errorf("weights = %d, want params %d", f.WeightBytes, m.Params())
	}
	if f.PeakActivationBytes <= 0 {
		t.Error("peak activations must be positive")
	}
	// The stem ReLU (112x112x64 in and out) dominates ResNet18's working
	// set.
	want := int64(2 * 112 * 112 * 64)
	if f.PeakActivationBytes != want {
		t.Errorf("peak working set = %d, want %d", f.PeakActivationBytes, want)
	}
}

func TestSmallCNNsAreResident(t *testing.T) {
	sys := Default()
	for _, m := range []*workload.Model{
		workload.NewResNet18(), workload.NewMobileNetV2(),
	} {
		a, err := Analyze(FootprintOf(m), 2, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !a.WeightsResident {
			t.Errorf("%s (%d MB weights) should be resident in %d MB",
				m.Name, m.Params()>>20, a.CapacityBytes>>20)
		}
		if a.StreamBytes != 0 || a.StreamLatencyS != 0 {
			t.Errorf("%s resident model should not stream", m.Name)
		}
	}
}

func TestLLMsMustStream(t *testing.T) {
	sys := Default()
	for _, m := range []*workload.Model{
		workload.NewMixtral8x7B(), workload.NewLlama3_8B(), workload.NewWhisperV3Large(),
	} {
		a, err := Analyze(FootprintOf(m), 2, sys)
		if err != nil {
			t.Fatal(err)
		}
		if a.WeightsResident {
			t.Errorf("%s cannot be weight-resident in %d MB", m.Name, a.CapacityBytes>>20)
		}
		if a.StreamBytes != m.Params() {
			t.Errorf("%s stream bytes = %d, want %d", m.Name, a.StreamBytes, m.Params())
		}
		if a.StreamLatencyS <= 0 || a.StreamEnergyPJ <= 0 {
			t.Errorf("%s missing stream costs", m.Name)
		}
	}
	// Mixtral's 46.7 GB over ~50 GB/s: the DRAM floor is near a second, far
	// above its sub-100ms compute latency.
	mix, _ := Analyze(FootprintOf(workload.NewMixtral8x7B()), 2, sys)
	if mix.StreamLatencyS < 0.5 {
		t.Errorf("Mixtral stream floor %.3fs implausibly low", mix.StreamLatencyS)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(Footprint{}, 0, Default()); err == nil {
		t.Error("zero chiplets should fail")
	}
	bad := Default()
	bad.DRAMBandwidthBps = 0
	if _, err := Analyze(Footprint{}, 1, bad); err == nil {
		t.Error("invalid system should fail")
	}
}

func TestMoreChipletsMoreCapacity(t *testing.T) {
	f := FootprintOf(workload.NewResNet50())
	small, _ := Analyze(f, 1, Default())
	big, _ := Analyze(f, 8, Default())
	if big.CapacityBytes != 8*small.CapacityBytes {
		t.Error("capacity must scale with chiplet count")
	}
	// ResNet50 (25.5 MB) streams on one 8 MB die but sits resident on eight.
	if small.WeightsResident {
		t.Error("ResNet50 should not fit one 8 MB die")
	}
	if !big.WeightsResident {
		t.Error("ResNet50 should fit eight dies")
	}
}
