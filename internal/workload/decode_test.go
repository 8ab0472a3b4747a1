package workload

import (
	"testing"
)

func TestDecodeStepCollapsesTokens(t *testing.T) {
	m := NewLlama3_8B()
	d := DecodeStep(m)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.SeqLen != 1 {
		t.Errorf("decode seq len = %d", d.SeqLen)
	}
	// Parameters unchanged; MACs collapse by ~the prefill length.
	if d.Params() != m.Params() {
		t.Errorf("decode params %d != prefill %d", d.Params(), m.Params())
	}
	// The collapse approaches the prefill token count; the LM head (already
	// single-token in prefill) keeps it slightly below.
	ratio := float64(m.MACs()) / float64(d.MACs())
	if ratio < 0.85*float64(m.SeqLen) || ratio > float64(m.SeqLen) {
		t.Errorf("MAC collapse ratio = %.1f, want within [%.0f, %d]",
			ratio, 0.85*float64(m.SeqLen), m.SeqLen)
	}
	// Kind signature unchanged: the same configuration still covers it.
	for k := range m.Kinds() {
		if !d.Kinds()[k] {
			t.Errorf("decode lost kind %v", k)
		}
	}
}

func TestDecodeStepGPT2Conv1D(t *testing.T) {
	d := DecodeStep(NewGPT2())
	for _, l := range d.Layers {
		if l.Kind == Conv1d && (l.IFMX != 1 || l.OFMX != 1) {
			t.Fatalf("conv1d layer %q kept %d tokens", l.Name, l.IFMX)
		}
		if l.Kind == GELU && l.IFMX != 1 {
			t.Fatalf("gelu layer %q kept %d tokens", l.Name, l.IFMX)
		}
	}
}

func TestDecodeLeavesCNNsAlone(t *testing.T) {
	m := NewResNet18()
	d := DecodeStep(m)
	if d.MACs() != m.MACs() {
		t.Error("decode transform must not touch spatial CNN compute")
	}
}
