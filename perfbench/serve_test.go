package main

import (
	"net/http"
	"testing"
	"time"
)

func TestLatencyTakesOutOnlyTheGeneratorsOversleep(t *testing.T) {
	t0 := time.Now()
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// a was taken by a sender before it was due and sent 3 ms late; its job
	// ran for 2 ms, so it settled at 15 ms.
	a := &request{due: at(10), ready: at(5), sent: at(13), jobID: "j1", status: http.StatusAccepted}
	// b fell due while both connections were busy, was taken 4 ms later,
	// sent 1 ms after that, and joined a's job.
	b := &request{due: at(10), ready: at(14), sent: at(15), jobID: "j1", status: http.StatusAccepted, coalesced: true}
	l := &openLoop{
		jobs:     map[string]*jobStatus{"j1": {State: "done", ElapsedMS: 2}},
		creators: map[string]*request{"j1": a},
	}
	for _, tc := range []struct {
		name string
		r    *request
		want float64
	}{
		{"oversleep taken out", a, 15 - 10 - 3},
		{"wait for a connection kept", b, 15 - 10 - 1},
	} {
		got, ok := l.latencyMS(tc.r)
		if !ok || !near(got, tc.want) {
			t.Errorf("%s: latencyMS = %v, %v, want %v", tc.name, got, ok, tc.want)
		}
	}
}
