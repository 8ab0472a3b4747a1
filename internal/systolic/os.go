package systolic

// Output-stationary (OS) dataflow. The paper chooses weight-stationary
// systolic arrays "due to their advantage in data reuse" (citing Eyeriss);
// this file implements the main alternative so that choice can be ablated:
// in an OS array each PE accumulates one output element in place while
// activations stream right and weights stream down. Tests verify functional
// exactness; the Compare helper quantifies when each dataflow wins.

import (
	"fmt"

	"repro/internal/workload"
)

// OSArray is a size x size output-stationary systolic array.
type OSArray struct {
	size int
}

// NewOS creates an output-stationary array.
func NewOS(size int) (*OSArray, error) {
	if size <= 0 {
		return nil, fmt.Errorf("systolic: array size must be positive, got %d", size)
	}
	return &OSArray{size: size}, nil
}

// Size returns the array dimension.
func (a *OSArray) Size() int { return a.size }

// Compute multiplies X (T x K) by W (K x cols) for one output tile with
// T <= size and cols <= size, returning Y (T x cols) and the cycle count.
// The simulation is PE-exact: activation row t is skewed by t cycles,
// weight column c by c cycles; PE(t, c) multiplies the pair that meets
// there each cycle and accumulates in place.
func (a *OSArray) Compute(x, w [][]float64) ([][]float64, int64, error) {
	T := len(x)
	if T == 0 || T > a.size {
		return nil, 0, fmt.Errorf("systolic: OS tile rows %d, array holds up to %d", T, a.size)
	}
	K := len(x[0])
	if K == 0 {
		return nil, 0, fmt.Errorf("systolic: empty reduction dimension")
	}
	for t := range x {
		if len(x[t]) != K {
			return nil, 0, fmt.Errorf("systolic: ragged activations at row %d", t)
		}
	}
	if len(w) != K {
		return nil, 0, fmt.Errorf("systolic: weight rows %d, want %d", len(w), K)
	}
	cols := len(w[0])
	if cols == 0 || cols > a.size {
		return nil, 0, fmt.Errorf("systolic: OS tile cols %d, array holds up to %d", cols, a.size)
	}
	for k := range w {
		if len(w[k]) != cols {
			return nil, 0, fmt.Errorf("systolic: ragged weights at row %d", k)
		}
	}

	// acc[t][c] accumulates in place. xPipe[t][c] carries activations moving
	// right; wPipe[t][c] carries weights moving down.
	acc := mat(T, cols)
	xPipe := mat(T, cols)
	wPipe := mat(T, cols)
	nxtX := mat(T, cols)
	nxtW := mat(T, cols)

	// The k-th operand pair meets PE(t,c) at cycle k + t + c; the last
	// product lands at (K-1) + (T-1) + (cols-1). Draining the accumulators
	// out of the array costs another `size` cycles of column shifts.
	lastCycle := int64(K-1) + int64(T-1) + int64(cols-1)
	for cyc := int64(0); cyc <= lastCycle; cyc++ {
		for t := 0; t < T; t++ {
			for c := 0; c < cols; c++ {
				var xin float64
				if c == 0 {
					k := cyc - int64(t)
					if k >= 0 && k < int64(K) {
						xin = x[t][k]
					}
				} else {
					xin = xPipe[t][c-1]
				}
				var win float64
				if t == 0 {
					k := cyc - int64(c)
					if k >= 0 && k < int64(K) {
						win = w[k][c]
					}
				} else {
					win = wPipe[t-1][c]
				}
				acc[t][c] += xin * win
				nxtX[t][c] = xin
				nxtW[t][c] = win
			}
		}
		xPipe, nxtX = nxtX, xPipe
		wPipe, nxtW = nxtW, wPipe
	}
	cycles := lastCycle + 1 + int64(a.size) // compute + accumulator drain
	out := make([][]float64, T)
	for t := range out {
		out[t] = append([]float64{}, acc[t][:cols]...)
	}
	return out, cycles, nil
}

func mat(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
	}
	return m
}

// PlanLayerOS returns the output-stationary fold plan for a compute layer:
// the array tiles the *output* (streams x cols), and every fold streams the
// full reduction dimension. Grouped convolutions (Conv2d and Conv1d alike)
// execute one group at a time — each group sees only its own NOFM/g output
// channels and NIFM/g input channels, and the group count multiplies the
// folds, mirroring ppa.Folds.
func PlanLayerOS(l workload.Layer, size int) FoldPlan {
	s := int64(size)
	g := int64(1)
	var outRows, outCols, reduction int64
	switch l.Kind {
	case workload.Conv2d:
		if l.Groups > 1 {
			g = int64(l.Groups)
		}
		outRows = int64(l.OFMX) * int64(l.OFMY)
		outCols = int64(l.NOFM) / g
		reduction = int64(l.KX) * int64(l.KY) * int64(l.NIFM) / g
	case workload.Conv1d:
		if l.Groups > 1 {
			g = int64(l.Groups)
		}
		outRows = int64(l.OFMX)
		outCols = int64(l.NOFM) / g
		reduction = int64(l.KX) * int64(l.NIFM) / g
	case workload.Linear:
		outRows = int64(l.IFMX)
		outCols = int64(l.NOFM)
		reduction = int64(l.NIFM)
	default:
		panic(fmt.Sprintf("systolic: PlanLayerOS on non-compute layer %v", l.Kind))
	}
	// Degenerate groupings (NIFM < Groups or NOFM < Groups) and zero-sized
	// shapes clamp to one so every group still contributes a fold and the
	// per-fold cycle count stays positive.
	if outRows == 0 {
		outRows = 1
	}
	if outCols == 0 {
		outCols = 1
	}
	if reduction == 0 {
		reduction = 1
	}
	folds := g * ceilDiv64(outRows, s) * ceilDiv64(outCols, s)
	if l.ActiveCopies > 1 {
		folds *= int64(l.ActiveCopies)
	}
	return FoldPlan{Folds: folds, Streams: reduction, Size: size}
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// OSFoldCycles returns the OS per-fold cycle count matching Compute's timing
// for a full tile: reduction streaming plus skew plus accumulator drain.
func OSFoldCycles(p FoldPlan) int64 {
	return p.Streams + 2*int64(p.Size) - 2 + int64(p.Size)
}

// DataflowCost summarizes one dataflow's execution of a layer: cycles on the
// bank and scalar operands moved through the array boundary (weight loads +
// activation streams + output drains). Movement is what the paper's
// weight-stationary rationale ("advantage in data reuse") is about.
type DataflowCost struct {
	Cycles int64
	Moved  int64 // operand elements crossing the array edge
}

// movedColTiles returns the output-column tile count that governs activation
// re-streaming. A grouped convolution streams each group's activations only
// against that group's NOFM/g output channels — tiling the full NOFM would
// overcount re-streams by up to a factor of g on depthwise layers (clamped to
// one tile when NOFM < Groups).
func movedColTiles(l workload.Layer, size int) int64 {
	g := int64(1)
	if l.Kind != workload.Linear && l.Groups > 1 {
		g = int64(l.Groups)
	}
	cols := int64(l.NOFM) / g
	if cols == 0 {
		cols = 1
	}
	return ceilDiv64(cols, int64(size))
}

// wsMoved counts operands moved by the weight-stationary dataflow: every
// weight enters exactly once (it stays resident for its fold); each group's
// activations re-stream once per output-column tile of that group; outputs
// drain once.
func wsMoved(l workload.Layer, size int) int64 {
	return l.Params() + l.InputElems()*movedColTiles(l, size) + l.OutputElems()
}

// osMoved counts operands moved by the output-stationary dataflow: outputs
// stay resident; weights re-stream once per output-row tile; each group's
// activations re-stream once per output-column tile of that group.
func osMoved(l workload.Layer, size int) int64 {
	s := int64(size)
	var rows int64
	switch l.Kind {
	case workload.Conv2d:
		rows = int64(l.OFMX) * int64(l.OFMY)
	case workload.Conv1d:
		rows = int64(l.OFMX)
	default:
		rows = int64(l.IFMX)
	}
	if rows == 0 {
		rows = 1
	}
	rowTiles := ceilDiv64(rows, s)
	return l.Params()*rowTiles + l.InputElems()*movedColTiles(l, size) + l.OutputElems()
}

// Compare evaluates a layer on n arrays under both dataflows — the
// quantitative basis of the paper's weight-stationary choice: WS trades a
// few pipeline-fill cycles for dramatically less weight traffic on
// reuse-heavy layers.
func Compare(l workload.Layer, size, n int) (ws, os DataflowCost) {
	wsPlan := PlanLayer(l, size)
	osPlan := PlanLayerOS(l, size)
	ws = DataflowCost{Cycles: Bank(wsPlan, n), Moved: wsMoved(l, size)}
	osWaves := ceilDiv64(osPlan.Folds, int64(n))
	os = DataflowCost{Cycles: osWaves * OSFoldCycles(osPlan), Moved: osMoved(l, size)}
	return ws, os
}
