package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestServerMetricsLatency pins the latency digest: quantiles over a window
// that is not yet full read only the samples observed, and once more than
// DefaultLatencyWindow samples arrive only the most recent window counts.
func TestServerMetricsLatency(t *testing.T) {
	m := NewServerMetrics()
	if s := m.Latency(); s.Samples != 0 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("empty window: %+v", s)
	}
	// Ten samples, 1..10 ms, observed out of order.
	for _, i := range rand.New(rand.NewSource(1)).Perm(10) {
		m.ObserveLatency(time.Duration(i+1) * time.Millisecond)
	}
	s := m.Latency()
	if s.Samples != 10 || s.P50 != 5*time.Millisecond || s.P99 != 9*time.Millisecond || s.Max != 10*time.Millisecond {
		t.Errorf("partial window: %+v, want 10 samples, p50 5 ms, p99 9 ms, max 10 ms", s)
	}
	if s.P50Ms != 5 || s.P99Ms != 9 || s.MaxMs != 10 {
		t.Errorf("partial window in ms: p50 %v, p99 %v, max %v", s.P50Ms, s.P99Ms, s.MaxMs)
	}
	// Overflow the window: the ten samples above and a hundred one-hour
	// outliers, then DefaultLatencyWindow samples of 1..4096 ms, which
	// must overwrite every older one.
	for i := 0; i < 100; i++ {
		m.ObserveLatency(time.Hour)
	}
	for i := 1; i <= DefaultLatencyWindow; i++ {
		m.ObserveLatency(time.Duration(i) * time.Millisecond)
	}
	s = m.Latency()
	if s.Samples != DefaultLatencyWindow {
		t.Fatalf("full window holds %d samples, want %d", s.Samples, DefaultLatencyWindow)
	}
	want := func(q float64) time.Duration {
		return time.Duration(int(q*float64(DefaultLatencyWindow-1))+1) * time.Millisecond
	}
	if s.Max != DefaultLatencyWindow*time.Millisecond || s.P50 != want(0.5) || s.P99 != want(0.99) {
		t.Errorf("full window: max %v, p50 %v, p99 %v; want %v, %v, %v", s.Max, s.P50, s.P99,
			DefaultLatencyWindow*time.Millisecond, want(0.5), want(0.99))
	}
}
