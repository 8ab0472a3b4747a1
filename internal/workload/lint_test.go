package workload

import (
	"strings"
	"testing"
)

// TestBuilderModelsMostlyLintClean: the registered builders chain shapes
// mechanically; residual/branching structures may warn, but gross shape bugs
// must not appear. We allow a small warning budget per model (projection
// shortcuts and multi-tower models read earlier tensors).
func TestBuilderModelsMostlyLintClean(t *testing.T) {
	for _, m := range append(append(TrainingSet(), TestSet()...), ExtendedSet()...) {
		ws := Lint(m)
		if len(ws) > m.LayerCount()/4 {
			t.Errorf("%s: %d lint warnings for %d layers; first: %v",
				m.Name, len(ws), m.LayerCount(), ws[0])
		}
		for _, w := range ws {
			// Activation element-count changes are always real bugs.
			if strings.Contains(w.Message, "changes element count") &&
				!strings.Contains(w.Message, "FLATTEN") {
				t.Errorf("%s: %v", m.Name, w)
			}
		}
	}
}

func TestLintFlagsActivationShapeChange(t *testing.T) {
	m := &Model{Name: "bad", Layers: []Layer{
		{Kind: ReLU, Name: "r", IFMX: 4, IFMY: 4, NIFM: 8, OFMX: 4, OFMY: 4, NOFM: 16},
	}}
	ws := Lint(m)
	if len(ws) != 1 || !strings.Contains(ws[0].Message, "changes element count") {
		t.Errorf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].String(), "layer 0") {
		t.Errorf("warning string %q", ws[0])
	}
}

func TestLintFlagsGrowingPool(t *testing.T) {
	m := &Model{Name: "bad", Layers: []Layer{
		{Kind: MaxPool, Name: "p", IFMX: 4, IFMY: 4, NIFM: 8, OFMX: 8, OFMY: 8, NOFM: 8, KX: 2, KY: 2},
	}}
	if ws := Lint(m); len(ws) == 0 {
		t.Error("growing pool not flagged")
	}
}

func TestLintFlagsConsumerMismatch(t *testing.T) {
	m := &Model{Name: "bad", Layers: []Layer{
		{Kind: Conv2d, Name: "c", IFMX: 8, IFMY: 8, NIFM: 3, OFMX: 8, OFMY: 8, NOFM: 4, KX: 3, KY: 3},
		{Kind: Linear, Name: "fc", IFMX: 1, NIFM: 999999, NOFM: 10, OFMX: 1},
	}}
	found := false
	for _, w := range Lint(m) {
		if strings.Contains(w.Message, "consumes") {
			found = true
		}
	}
	if !found {
		t.Error("consumer mismatch not flagged")
	}
}

func TestLintFlagsStrideOverKernel(t *testing.T) {
	m := &Model{Name: "sus", Layers: []Layer{
		{Kind: Conv2d, Name: "c", IFMX: 32, IFMY: 32, NIFM: 3,
			OFMX: 4, OFMY: 4, NOFM: 8, KX: 3, KY: 3, Stride: 8},
	}}
	if ws := Lint(m); len(ws) == 0 {
		t.Error("stride > kernel not flagged")
	}
}

func TestLintCleanSimpleChain(t *testing.T) {
	m := &Model{Name: "ok", Layers: []Layer{
		{Kind: Conv2d, Name: "c", IFMX: 8, IFMY: 8, NIFM: 3, OFMX: 8, OFMY: 8, NOFM: 4, KX: 3, KY: 3, Stride: 1, Pad: 1},
		{Kind: ReLU, Name: "r", IFMX: 8, IFMY: 8, NIFM: 4, OFMX: 8, OFMY: 8, NOFM: 4},
		{Kind: MaxPool, Name: "p", IFMX: 8, IFMY: 8, NIFM: 4, OFMX: 4, OFMY: 4, NOFM: 4, KX: 2, KY: 2, Stride: 2},
	}}
	if ws := Lint(m); len(ws) != 0 {
		t.Errorf("clean chain warned: %v", ws)
	}
}
