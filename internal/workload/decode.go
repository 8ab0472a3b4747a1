package workload

// Decode-mode transformation. The LLM builders in this package model
// prefill: all prompt tokens stream through every layer. Autoregressive
// generation runs the same layers with a single query token (keys/values
// come from the cache), which collapses every token-parallel dimension to 1
// and turns the workload from compute-bound into weight-traffic-bound — the
// regime where the memory package's DRAM-streaming advisory dominates.

// DecodeStep derives the single-token generation workload from a prefill
// model: every Linear/Conv1d layer's token dimension becomes 1, element-wise
// layers shrink accordingly, and parameters are untouched. Layers that carry
// spatial structure (Conv2d, pooling over images) are kept as-is — decode
// mode is meaningful for token-sequential models only.
func DecodeStep(m *Model) *Model {
	d := &Model{
		Name:        m.Name + " (decode)",
		Class:       m.Class,
		Source:      m.Source,
		SeqLen:      1,
		ExtraParams: m.ExtraParams,
	}
	d.Layers = make([]Layer, len(m.Layers))
	for i, l := range m.Layers {
		nl := l
		switch l.Kind {
		case Linear:
			nl.IFMX, nl.OFMX = 1, 1
		case Conv1d:
			// One new sequence position flows through the stem.
			nl.IFMX, nl.OFMX = 1, 1
		default:
			if l.Kind.IsActivation() || l.Kind.IsReshape() {
				// Token-wise layers shrink with the sequence; detect them by
				// the 1-high shape the LLM builders use.
				if l.IFMY == 1 && l.OFMY == 1 {
					nl.IFMX, nl.OFMX = 1, 1
				}
			}
		}
		d.Layers[i] = nl
	}
	return d
}
