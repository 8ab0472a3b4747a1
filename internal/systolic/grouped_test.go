package systolic

import (
	"testing"

	"repro/internal/ppa"
	"repro/internal/workload"
)

// TestGroupedFoldPlans pins the exact fold decompositions of the grouped and
// depthwise convolution corner cases across both dataflow planners: depthwise
// (Groups == NIFM), Groups not dividing NOFM (per-group channels truncate),
// and NIFM below Groups (per-group reduction clamps to one). These shapes are
// the regression suite for the grouped-Conv1d bug PlanLayerOS used to have —
// planning grouped 1-D convolutions as if they were dense — and for the
// per-group clamping rules shared with ppa.Folds.
func TestGroupedFoldPlans(t *testing.T) {
	cases := []struct {
		name string
		l    workload.Layer
		size int

		wsFolds, wsStreams int64 // weight-stationary: ppa.Folds / PlanLayer
		osFolds, osStreams int64 // output-stationary: PlanLayerOS
	}{
		{
			// Depthwise: 32 groups of a 9x1 weight matrix, one fold each.
			name: "depthwise conv2d s16",
			l: workload.Layer{Kind: workload.Conv2d, Name: "dw", IFMX: 14, IFMY: 14,
				NIFM: 32, OFMX: 14, OFMY: 14, NOFM: 32, KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 32},
			size:    16,
			wsFolds: 32, wsStreams: 196,
			// OS tiles the 196x1 per-group output: ceil(196/16) = 13 folds per
			// group, streaming the 9-deep reduction.
			osFolds: 32 * 13, osStreams: 9,
		},
		{
			name: "depthwise conv2d s32",
			l: workload.Layer{Kind: workload.Conv2d, Name: "dw", IFMX: 14, IFMY: 14,
				NIFM: 32, OFMX: 14, OFMY: 14, NOFM: 32, KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 32},
			size:    32,
			wsFolds: 32, wsStreams: 196,
			osFolds: 32 * 7, osStreams: 9,
		},
		{
			// Grouped Conv1d with divisible channels: per group the weight
			// matrix is 48x32 -> ceil(48/16) x ceil(32/16) = 3x2 tiles.
			name: "grouped conv1d s16",
			l: workload.Layer{Kind: workload.Conv1d, Name: "g1d", IFMX: 128, OFMX: 128,
				NIFM: 64, NOFM: 128, KX: 3, Stride: 1, Pad: 1, Groups: 4},
			size:    16,
			wsFolds: 4 * 3 * 2, wsStreams: 128,
			osFolds: 4 * 8 * 2, osStreams: 48,
		},
		{
			// Same layer on a 64-wide array: every per-group matrix fits one
			// tile, so exactly one fold per group — the case the old dense
			// Conv1d plan got wrong (it planned 2 folds and a 192-deep
			// reduction instead of 4 folds of 48).
			name: "grouped conv1d s64",
			l: workload.Layer{Kind: workload.Conv1d, Name: "g1d", IFMX: 128, OFMX: 128,
				NIFM: 64, NOFM: 128, KX: 3, Stride: 1, Pad: 1, Groups: 4},
			size:    64,
			wsFolds: 4, wsStreams: 128,
			osFolds: 4 * 2, osStreams: 48,
		},
		{
			// Groups not dividing NOFM: per-group output channels truncate to
			// floor(30/4) = 7.
			name: "conv1d groups indivisible s16",
			l: workload.Layer{Kind: workload.Conv1d, Name: "g1dx", IFMX: 64, OFMX: 64,
				NIFM: 12, NOFM: 30, KX: 3, Stride: 1, Pad: 1, Groups: 4},
			size:    16,
			wsFolds: 4, wsStreams: 64,
			osFolds: 4 * 4, osStreams: 9,
		},
		{
			// NIFM below Groups: the per-group reduction (2/4 = 0) clamps to
			// one so every group still contributes a fold.
			name: "conv1d nifm below groups s16",
			l: workload.Layer{Kind: workload.Conv1d, Name: "g1dz", IFMX: 64, OFMX: 64,
				NIFM: 2, NOFM: 8, KX: 1, Stride: 1, Groups: 4},
			size:    16,
			wsFolds: 4, wsStreams: 64,
			osFolds: 4 * 4, osStreams: 1,
		},
		{
			// Grouped Conv2d with Groups not dividing NOFM: floor(100/8) = 12
			// per-group output channels.
			name: "conv2d groups indivisible s16",
			l: workload.Layer{Kind: workload.Conv2d, Name: "grp", IFMX: 14, IFMY: 14,
				NIFM: 64, OFMX: 14, OFMY: 14, NOFM: 100, KX: 1, KY: 1, Stride: 1, Groups: 8},
			size:    16,
			wsFolds: 8, wsStreams: 196,
			osFolds: 8 * 13, osStreams: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.l.Validate(); err != nil {
				t.Fatalf("layer invalid: %v", err)
			}
			folds, streams := ppa.Folds(tc.l, tc.size)
			if folds != tc.wsFolds || streams != tc.wsStreams {
				t.Errorf("ppa.Folds = %d folds, %d streams; want %d, %d",
					folds, streams, tc.wsFolds, tc.wsStreams)
			}
			ws := PlanLayer(tc.l, tc.size)
			if ws.Folds != tc.wsFolds || ws.Streams != tc.wsStreams || ws.Size != tc.size {
				t.Errorf("PlanLayer = %+v; want folds %d streams %d size %d",
					ws, tc.wsFolds, tc.wsStreams, tc.size)
			}
			os := PlanLayerOS(tc.l, tc.size)
			if os.Folds != tc.osFolds || os.Streams != tc.osStreams || os.Size != tc.size {
				t.Errorf("PlanLayerOS = %+v; want folds %d streams %d size %d",
					os, tc.osFolds, tc.osStreams, tc.size)
			}
		})
	}
}

// TestGroupedMovementPerGroup pins the grouped data-movement accounting: a
// depthwise layer re-streams each group's activations against that group's
// single output channel (one column tile), not against all NOFM channels —
// the overcount wsMoved and osMoved used to have.
func TestGroupedMovementPerGroup(t *testing.T) {
	dw := workload.Layer{Kind: workload.Conv2d, Name: "dw", IFMX: 14, IFMY: 14,
		NIFM: 32, OFMX: 14, OFMY: 14, NOFM: 32, KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 32}
	ws, os := Compare(dw, 16, 1)
	// One column tile per group: inputs move once, not ceil(32/16) = 2 times.
	wantWS := dw.Params() + dw.InputElems() + dw.OutputElems()
	if ws.Moved != wantWS {
		t.Errorf("wsMoved = %d, want %d (single column tile per group)", ws.Moved, wantWS)
	}
	// OS re-streams the 9x1 per-group weights once per output-row tile
	// (ceil(196/16) = 13).
	wantOS := dw.Params()*13 + dw.InputElems() + dw.OutputElems()
	if os.Moved != wantOS {
		t.Errorf("osMoved = %d, want %d", os.Moved, wantOS)
	}
	if os.Moved < ws.Moved {
		t.Errorf("OS moved %d < WS moved %d: weight reuse inverted", os.Moved, ws.Moved)
	}
}
