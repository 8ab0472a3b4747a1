package metrics

// Server-side operational metrics for claired (DESIGN.md §11): monotonic
// counters for the job lifecycle and a bounded reservoir of request latencies
// for p50/p99. Everything here is safe for concurrent use from the job
// manager's workers and the HTTP handlers; the paper-metrics half of this
// package stays pure.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyWindow bounds the latency reservoir: old samples are
// overwritten ring-style, so quantiles track the recent window rather than
// the process lifetime.
const DefaultLatencyWindow = 4096

// ServerMetrics aggregates claired's operational counters.
type ServerMetrics struct {
	// Accepted counts jobs admitted into the queue (coalesced attachments
	// are not new jobs and count under Coalesced instead).
	Accepted atomic.Int64
	// Rejected counts requests refused with 429 by admission control.
	Rejected atomic.Int64
	// Coalesced counts requests that attached to an already-queued or
	// running identical job instead of spawning their own execution.
	Coalesced atomic.Int64
	// Completed, Failed and Cancelled count terminal job states.
	Completed atomic.Int64
	Failed    atomic.Int64
	Cancelled atomic.Int64

	mu      sync.Mutex
	samples []time.Duration
	next    int
	filled  bool
}

// NewServerMetrics builds a metrics sink with a latency window of
// DefaultLatencyWindow samples.
func NewServerMetrics() *ServerMetrics {
	return &ServerMetrics{samples: make([]time.Duration, DefaultLatencyWindow)}
}

// ObserveLatency records one completed job's queue-to-finish latency.
func (m *ServerMetrics) ObserveLatency(d time.Duration) {
	m.mu.Lock()
	m.samples[m.next] = d
	m.next++
	if m.next == len(m.samples) {
		m.next = 0
		m.filled = true
	}
	m.mu.Unlock()
}

// LatencySnapshot is a quantile digest of the recent latency window.
type LatencySnapshot struct {
	Samples int           `json:"samples"`
	P50     time.Duration `json:"-"`
	P99     time.Duration `json:"-"`
	Max     time.Duration `json:"-"`
	P50Ms   float64       `json:"p50_ms"`
	P99Ms   float64       `json:"p99_ms"`
	MaxMs   float64       `json:"max_ms"`
}

// Latency computes p50/p99/max over the current window. O(n log n) on a
// copy; the lock is held only for the copy.
func (m *ServerMetrics) Latency() LatencySnapshot {
	m.mu.Lock()
	n := m.next
	if m.filled {
		n = len(m.samples)
	}
	buf := make([]time.Duration, n)
	copy(buf, m.samples[:n])
	m.mu.Unlock()
	var s LatencySnapshot
	s.Samples = n
	if n == 0 {
		return s
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(n-1))
		return buf[i]
	}
	s.P50, s.P99, s.Max = q(0.50), q(0.99), buf[n-1]
	s.P50Ms = float64(s.P50) / float64(time.Millisecond)
	s.P99Ms = float64(s.P99) / float64(time.Millisecond)
	s.MaxMs = float64(s.Max) / float64(time.Millisecond)
	return s
}
