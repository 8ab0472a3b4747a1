package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestSeedZeroFirstDrawIsTableI(t *testing.T) {
	layers := layerCounts()
	train, test := drawSplit(0, 0, layers)
	var want []string
	for _, m := range workload.TrainingSet() {
		want = append(want, m.Name)
	}
	if !reflect.DeepEqual(train, want) {
		t.Errorf("seed 0 draw 0 training set = %v, want Table I %v", train, want)
	}
	if len(test) != 6 {
		t.Errorf("test set has %d networks, want 6", len(test))
	}
	if trio := drawTrio(0, 0, layers); !reflect.DeepEqual(trio, referenceTrio) {
		t.Errorf("seed 0 draw 0 trio = %v, want %v", trio, referenceTrio)
	}
}

func TestDrawsAreDeterministicAndMatched(t *testing.T) {
	layers := layerCounts()
	var tableI []string
	for _, m := range workload.TrainingSet() {
		tableI = append(tableI, m.Name)
	}
	target := layerSum(tableI, layers)
	trioTarget := layerSum(referenceTrio, layers)
	for seed := int64(1); seed <= 20; seed++ {
		for d := 0; d < drawsPerRun; d++ {
			train, test := drawSplit(seed, d, layers)
			again, _ := drawSplit(seed, d, layers)
			if !reflect.DeepEqual(train, again) {
				t.Fatalf("seed %d draw %d: split differs between calls", seed, d)
			}
			if len(train)+len(test) != len(workload.Names()) {
				t.Fatalf("seed %d draw %d: split loses networks", seed, d)
			}
			if !within(layerSum(train, layers), target, splitTolerance) {
				t.Errorf("seed %d draw %d: %d training layers, want %d ± %.0f%%", seed, d, layerSum(train, layers), target, 100*splitTolerance)
			}
			trio := drawTrio(seed, d, layers)
			if len(trio) != 3 || !within(layerSum(trio, layers), trioTarget, trioTolerance) {
				t.Errorf("seed %d draw %d: trio %v not matched to %d layers", seed, d, trio, trioTarget)
			}
		}
	}
}

func TestRequestDrawsAvoidInfeasiblePairs(t *testing.T) {
	r := rngFor(1, 0)
	names := workload.Names()
	seen := 0
	for i := 0; i < 5000; i++ {
		body := drawRequest(r, names)
		if strings.Contains(body, `"latency_slack":0.3`) {
			seen++
			if strings.Contains(body, "Mobilenetv2") {
				t.Fatalf("slack-0.3 pair drew Mobilenetv2: %s", body)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no slack-0.3 pair drawn in 5000 requests")
	}
}

func TestRecordedDigestsParse(t *testing.T) {
	for _, w := range []string{"pipeline", "explore"} {
		if d := recordedDigests(w, 0); len(d) != drawsPerRun {
			t.Errorf("%s: %d digests recorded for seed 0, want %d", w, len(d), drawsPerRun)
		}
	}
}
