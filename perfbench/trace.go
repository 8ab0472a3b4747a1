package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark opens it around a call
// it makes into a module (or around a callback the library makes into the
// benchmark, such as core.Options.Cluster). Spans of one operation or
// request share its op id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per instrumented call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	seq   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id and the
// function that closes it.
func (t *tracer) begin(name string, parent int64, op int) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	return id, func() { t.add(id, parent, name, op, start, time.Now()) }
}

// record stores a span whose bounds were measured elsewhere, such as a
// served request that ran from its due time until its job settled.
func (t *tracer) record(name string, parent int64, op int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	t.add(id, parent, name, op, start, end)
	return id
}

func (t *tracer) add(id, parent int64, name string, op int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// named returns the spans with the given name in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the named spans in seconds.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// layerTime is the total and self time the spans of one name account for.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// layerTimes sums, per span name, the spans' durations and self times: a
// span's self time is its duration minus the union of its children's
// intervals.
func (t *tracer) layerTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{time.Duration(s.Start), time.Duration(s.End)})
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += selfTime(interval{time.Duration(s.Start), time.Duration(s.End)}, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// report prints the per-layer total and self times as a table.
func (t *tracer) report(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range t.layerTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
