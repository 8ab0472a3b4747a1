package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1, 2}, 1, 3.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v, want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", ms(0, 100), nil, 100 * time.Millisecond},
		{"disjoint", ms(0, 100), []interval{ms(10, 20), ms(50, 70)}, 70 * time.Millisecond},
		{"overlapping children count once", ms(0, 100), []interval{ms(10, 40), ms(30, 60)}, 50 * time.Millisecond},
		{"nested child", ms(0, 100), []interval{ms(10, 60), ms(20, 30)}, 50 * time.Millisecond},
		{"clipped to parent", ms(0, 100), []interval{ms(-20, 10), ms(90, 150)}, 80 * time.Millisecond},
		{"fully covered", ms(0, 100), []interval{ms(0, 100)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []float64
		want bool
	}{
		{"idle", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}, false},
		{"steady", []float64{3, 5, 2, 4, 6, 3, 2, 5, 4}, false},
		{"draining", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, false},
		{"growing", []float64{1, 2, 3, 5, 8, 11, 14, 18, 22}, true},
		{"bursty but flat", []float64{0, 12, 0, 0, 12, 0, 0, 12, 0}, false},
		{"too short", []float64{0, 50}, false},
	} {
		if got := backlogGrowing(tc.in, 4); got != tc.want {
			t.Errorf("%s: backlogGrowing(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.record("op", 0, 1, t0, t0.Add(100*time.Millisecond))
	tr.record("child", root, 1, t0.Add(10*time.Millisecond), t0.Add(40*time.Millisecond))
	tr.record("child", root, 1, t0.Add(30*time.Millisecond), t0.Add(50*time.Millisecond))
	got := make(map[string]layerTime)
	for _, lt := range tr.layerTimes() {
		got[lt.Name] = lt
	}
	if op := got["op"]; op.Count != 1 || op.Total != 100*time.Millisecond || op.Self != 60*time.Millisecond {
		t.Errorf("op = %+v, want 1 span, 100ms total, 60ms self", op)
	}
	if c := got["child"]; c.Count != 2 || c.Total != 50*time.Millisecond || c.Self != 50*time.Millisecond {
		t.Errorf("child = %+v, want 2 spans, 50ms total and self", c)
	}
	var nilTracer *tracer
	if id, end := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	} else {
		end()
	}
}
