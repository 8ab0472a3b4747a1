package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), so spreads
// printed here match the ones computed from repeated runs. It needs at least
// two values; fewer give (x, x) or (0, 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that leaves at
// least 10 of n samples beyond it, so a reported tail rests on more than a
// handful of observations. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		beyond := float64(n) * (1 - p/100)
		if beyond >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another (a parallel phase), so the
// covered time is the length of the union of their intervals, clipped to
// the parent.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// backlogGrowth compares the mean of a step's evenly spaced samples of work
// outstanding at the server (queued plus running jobs) over the last third
// of the step with the mean over the first third, and returns the increase.
// A server keeping up drains between arrivals, so its outstanding count
// hovers around a constant however long the step runs; one falling behind
// accumulates work.
func backlogGrowth(outstanding []float64) float64 {
	n := len(outstanding)
	if n < 3 {
		return 0
	}
	third := n / 3
	return mean(outstanding[n-third:]) - mean(outstanding[:third])
}

// backlogGrowing reports whether a step's backlog grew by more than slack
// jobs.
func backlogGrowing(outstanding []float64, slack float64) bool {
	return backlogGrowth(outstanding) > slack
}
