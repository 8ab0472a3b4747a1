package workload

// Model linting: structural checks beyond Validate's per-layer rules. The
// builders in this package chain shapes automatically, but models arriving
// through ParseDump (or hand-built via the public API) can carry silent
// inconsistencies — a consumer reading more elements than its producer
// wrote, activations that change element counts, pooling that grows its
// input. Lint reports them as warnings: branching architectures (residual
// projections, multi-tower models) legitimately break strict chaining, so
// these are advisory rather than errors.

import "fmt"

// LintWarning flags one suspicious inter-layer relationship.
type LintWarning struct {
	Index   int // index of the consumer layer
	Message string
}

// String renders the warning.
func (w LintWarning) String() string {
	return fmt.Sprintf("layer %d: %s", w.Index, w.Message)
}

// Lint checks inter-layer shape relationships and returns warnings (empty
// for a clean model). It never fails a valid model: warnings are advisory.
func Lint(m *Model) []LintWarning {
	var out []LintWarning
	warn := func(i int, format string, args ...interface{}) {
		out = append(out, LintWarning{Index: i, Message: fmt.Sprintf(format, args...)})
	}
	for i, l := range m.Layers {
		// Element-wise layers must not change the element count.
		if l.Kind.IsActivation() && l.InputElems() != l.OutputElems() {
			warn(i, "%s changes element count %d -> %d", l.Kind, l.InputElems(), l.OutputElems())
		}
		// Pooling never produces more elements than it consumes.
		if l.Kind.IsPooling() && l.OutputElems() > l.InputElems() {
			warn(i, "%s grows its input %d -> %d", l.Kind, l.InputElems(), l.OutputElems())
		}
		// Flatten preserves the element count exactly.
		if l.Kind == Flatten && l.InputElems() != l.OutputElems() {
			warn(i, "FLATTEN changes element count %d -> %d", l.InputElems(), l.OutputElems())
		}
		// Convolutions with stride >= kernel skip input pixels entirely only
		// when intended (patch embeddings); flag stride > kernel.
		if (l.Kind == Conv2d || l.Kind == Conv1d) && l.Stride > l.KX {
			warn(i, "%s stride %d exceeds kernel %d (input pixels skipped)", l.Kind, l.Stride, l.KX)
		}
		if i == 0 {
			continue
		}
		prev := m.Layers[i-1]
		// A consumer reading far more than its producer wrote usually means
		// a mis-typed shape (branching models legitimately read previous
		// activations, so only flag gross mismatches).
		if prev.OutputElems() > 0 && l.InputElems() > 4*prev.OutputElems() {
			warn(i, "consumes %d elements but the previous layer produced %d",
				l.InputElems(), prev.OutputElems())
		}
	}
	return out
}
