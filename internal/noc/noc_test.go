package noc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatchedBandwidth(t *testing.T) {
	// The paper configures NoP (one AIB 2.0 channel) to match NoC bandwidth.
	nc, np := DefaultNoC(), DefaultNoP()
	if nc.BandwidthBytesPerSec() != np.BandwidthBytesPerSec() {
		t.Errorf("NoC bw %.3e != NoP bw %.3e; the paper requires matched bandwidth",
			nc.BandwidthBytesPerSec(), np.BandwidthBytesPerSec())
	}
	// 40 links x 8 bits at 1 GHz = 40 GB/s.
	if got := nc.BandwidthBytesPerSec(); got != 40e9 {
		t.Errorf("NoC bandwidth = %v, want 40e9", got)
	}
}

func TestNoPCostsMoreThanNoC(t *testing.T) {
	nc, np := DefaultNoC(), DefaultNoP()
	const bytes = 1 << 20
	if np.TransferEnergyPJ(bytes, 1) <= nc.TransferEnergyPJ(bytes, 1) {
		t.Error("NoP energy per byte must exceed NoC (package crossing)")
	}
	if np.TransferLatencyS(bytes, 1) <= nc.TransferLatencyS(bytes, 1) {
		t.Error("NoP hop latency must exceed NoC")
	}
	if np.PHYAreaUM2 <= 0 {
		t.Error("NoP must carry AIB PHY area")
	}
	for _, p := range []Params{nc, np} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestTransferEdgeCases(t *testing.T) {
	p := DefaultNoC()
	if p.TransferLatencyS(0, 3) != 0 || p.TransferEnergyPJ(0, 3) != 0 {
		t.Error("zero bytes must cost nothing")
	}
	// hops < 1 clamps to 1.
	if p.TransferEnergyPJ(100, 0) != p.TransferEnergyPJ(100, 1) {
		t.Error("hops clamp broken")
	}
	// Serialization dominates for large transfers: latency ~ bytes/bandwidth.
	lat := p.TransferLatencyS(1<<30, 1)
	ideal := float64(1<<30) / p.BandwidthBytesPerSec()
	if math.Abs(lat-ideal)/ideal > 0.01 {
		t.Errorf("large-transfer latency %.4e deviates from serialization bound %.4e", lat, ideal)
	}
}

// TestTransferLatencyClosedForm pins the analytical transfer model to its
// closed form, hops x RouterDelayCycles + bytes / BytesPerCycle cycles at the
// channel clock, for both interconnect classes (40 B/cycle at 1 GHz; 2 and 6
// cycles per hop). The flit simulator cannot pin it: it streams one body flit
// per router slot, not one per cycle.
func TestTransferLatencyClosedForm(t *testing.T) {
	for _, tc := range []struct {
		p      Params
		bytes  int64
		hops   int
		cycles float64
	}{
		{DefaultNoC(), 100_000, 3, 3*2 + 2500},
		{DefaultNoC(), 41, 1, 2 + 1.025},
		{DefaultNoC(), 4000, 7, 7*2 + 100},
		{DefaultNoP(), 100_000, 3, 3*6 + 2500},
		{DefaultNoP(), 40, 2, 2*6 + 1},
	} {
		got := tc.p.TransferLatencyS(tc.bytes, tc.hops) * tc.p.ClockGHz * 1e9
		if math.Abs(got-tc.cycles) > 1e-9*tc.cycles {
			t.Errorf("%s: %d bytes over %d hops = %v cycles, want %v", tc.p.Name, tc.bytes, tc.hops, got, tc.cycles)
		}
	}
}

func TestTorusGeometry(t *testing.T) {
	tor := NewTorus(12)
	if tor.Nodes() < 12 {
		t.Fatalf("torus too small: %+v", tor)
	}
	// Coord/ID round trip.
	for id := 0; id < tor.Nodes(); id++ {
		x, y := tor.Coord(id)
		if tor.ID(x, y) != id {
			t.Errorf("coord/id mismatch at %d", id)
		}
	}
	// Wrap-around shrinks distance: on a 4-wide ring, 0 -> 3 is 1 hop.
	t4 := Torus{W: 4, H: 1}
	if got := t4.Hops(0, 3); got != 2 { // 1 ring hop + 1 local
		t.Errorf("wrap hops = %d, want 2", got)
	}
	if got := t4.Hops(0, 2); got != 3 { // 2 ring hops + 1 local
		t.Errorf("cross hops = %d, want 3", got)
	}
}

func TestTorusHopsSymmetricAndTriangle(t *testing.T) {
	tor := Torus{W: 4, H: 3}
	f := func(a, b, c uint8) bool {
		n := tor.Nodes()
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if tor.Hops(x, y) != tor.Hops(y, x) {
			return false
		}
		// Triangle inequality on ring distances (+1 local each leg).
		return tor.Hops(x, z) <= tor.Hops(x, y)+tor.Hops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAvgHops(t *testing.T) {
	if got := (Torus{W: 1, H: 1}).AvgHops(); got != 1 {
		t.Errorf("1-node avg hops = %v, want 1", got)
	}
	avg := (Torus{W: 4, H: 4}).AvgHops()
	// 4x4 torus: mean ring distance per dimension is 1 -> 2 ring hops + 1.
	if math.Abs(avg-3.2) > 0.4 {
		t.Errorf("4x4 avg hops = %v, want ~3", avg)
	}
}

// inject schedules a message and fails the test if Inject rejects it.
func inject(t *testing.T, s *Sim, src, dst int, bytes, cycle int64) int {
	t.Helper()
	id, err := s.Inject(src, dst, bytes, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSimUncontendedMatchesMinHops(t *testing.T) {
	tor := Torus{W: 4, H: 4}
	p := DefaultNoC()
	s := NewSim(tor, p)
	inject(t, s, 0, 5, 1, 0)
	msgs, err := s.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	m := msgs[0]
	want := int64(m.MinHops * p.RouterDelayCycles)
	if m.LatencyCycles != want {
		t.Errorf("uncontended latency = %d cycles, want %d (min hops %d)",
			m.LatencyCycles, want, m.MinHops)
	}
}

func TestSimContentionDelays(t *testing.T) {
	tor := Torus{W: 4, H: 1}
	p := DefaultNoC()
	s := NewSim(tor, p)
	// Two flits fight for the same next node.
	inject(t, s, 0, 2, 1, 0)
	inject(t, s, 0, 2, 1, 0)
	msgs, err := s.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].LatencyCycles >= msgs[1].LatencyCycles {
		t.Errorf("contention should delay the losing flit: %d vs %d",
			msgs[0].LatencyCycles, msgs[1].LatencyCycles)
	}
}

// TestSimValidatesAnalyticalModel drives uniform random traffic and checks
// that the analytical per-hop latency underestimates the simulated mean by
// at most 3x (contention overhead) and never overestimates it.
func TestSimValidatesAnalyticalModel(t *testing.T) {
	tor := Torus{W: 4, H: 4}
	p := DefaultNoC()
	s := NewSim(tor, p)
	n := tor.Nodes()
	seed := 12345
	for i := 0; i < 64; i++ {
		seed = (seed*1103515245 + 12345) & 0x7fffffff
		src := seed % n
		seed = (seed*1103515245 + 12345) & 0x7fffffff
		dst := seed % n
		if src == dst {
			dst = (dst + 1) % n
		}
		inject(t, s, src, dst, 1, int64(i/8)) // bursty injection
	}
	msgs, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var simMean, anaMean float64
	for _, m := range msgs {
		simMean += float64(m.LatencyCycles)
		anaMean += float64(m.MinHops * p.RouterDelayCycles)
	}
	simMean /= float64(len(msgs))
	anaMean /= float64(len(msgs))
	if simMean < anaMean-1e-9 {
		t.Errorf("simulated mean %.1f below analytical floor %.1f", simMean, anaMean)
	}
	if simMean > 3*anaMean {
		t.Errorf("simulated mean %.1f more than 3x analytical %.1f; model too optimistic", simMean, anaMean)
	}
}

// TestSimRoundRobinPreventsStarvation pins the arbitration bugfix: a long
// stream of low-ID flits crossing node 2 from one port, plus a victim with the
// highest ID crossing the same node in-flight from another port. The old fixed
// lowest-flit-ID priority granted every stream flit ahead of the victim, so
// its latency grew linearly with the stream length (>= streamLen router slots
// — unbounded starvation as the stream grows); rotating round-robin over input
// ports serves the victim's port within one grant rotation.
func TestSimRoundRobinPreventsStarvation(t *testing.T) {
	tor := Torus{W: 4, H: 2}
	p := DefaultNoC()
	s := NewSim(tor, p)
	const streamLen = 24
	for i := 0; i < streamLen; i++ {
		inject(t, s, 0, 2, 1, 0) // ids 0..23: route 0 -> 1 -> 2, enter node 2 via port 1
	}
	victim := inject(t, s, 4, 2, 1, 0) // highest id: route 4 -> 5 -> 6 -> 2, port 6
	msgs, err := s.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	step := int64(p.RouterDelayCycles)
	got := msgs[victim].LatencyCycles
	// Old policy: the victim waited out the whole stream, >= streamLen slots.
	if got >= streamLen*step {
		t.Errorf("victim latency %d cycles is stream-length bound (%d); round-robin should interleave it",
			got, streamLen*step)
	}
	// Round-robin grants the victim's port within a rotation or two.
	if got > 8*step {
		t.Errorf("victim latency %d cycles, want <= %d under rotating arbitration", got, 8*step)
	}
}

// TestSimOccupancyBlocksStalledNode pins the single-flit-buffer fix: a grant
// winner may not advance onto a node whose occupant is stalled. Flit 1
// (4 -> 2) loses the node-2 arbitration to flit 0 (round-robin favours the
// port-1 requester) and stalls at node 6; flit 2 (4 -> 6), granted node 6 in
// that same slot, must wait a full slot for flit 1 to drain — 5 slots total.
// The old implementation moved flit 2 onto the still-occupied node, delivering
// it after 4 slots alongside the stalled flit.
func TestSimOccupancyBlocksStalledNode(t *testing.T) {
	tor := Torus{W: 4, H: 2}
	p := DefaultNoC()
	s := NewSim(tor, p)
	inject(t, s, 0, 2, 1, 2)             // id 0: reaches node 1 as flit 1 reaches node 6
	inject(t, s, 4, 2, 1, 0)             // id 1: loses node 2 to flit 0, stalls at node 6
	follower := inject(t, s, 4, 6, 1, 0) // id 2: wants node 6 while flit 1 holds it
	msgs, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	step := int64(p.RouterDelayCycles)
	if got, want := msgs[follower].LatencyCycles, 5*step; got != want {
		t.Errorf("follower latency = %d cycles, want %d (old co-occupancy gave %d)",
			got, want, 4*step)
	}
}

// TestAnalyticalVsSimUnderContention is the differential for the analytical
// transfer model against the flit-level simulator under contention: several
// concurrent multi-flit transfers share the torus, and each transfer's
// simulated latency (injection to last-flit delivery) is compared against
// TransferLatencyS for its payload and minimal hop count. The analytical
// model serializes payload at one flit per cycle and prices no contention, so
// per transfer it is a floor up to the serialization term; the simulator
// advances one flit per router slot and backpressures shared nodes, so the
// mean must stay within a bounded multiple. Seeded and deterministic.
func TestAnalyticalVsSimUnderContention(t *testing.T) {
	tor := Torus{W: 4, H: 4}
	p := DefaultNoC()
	s := NewSim(tor, p)
	rng := rand.New(rand.NewSource(20260807))
	n := tor.Nodes()
	flitBytes := int64(p.BytesPerCycle())

	for i := 0; i < 8; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		inject(t, s, src, dst, int64(rng.Intn(9)+4)*flitBytes, int64(i))
	}
	msgs, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var simMean, anaMean float64
	clockHz := p.ClockGHz * 1e9
	for _, m := range msgs {
		simCycles := float64(m.LatencyCycles)
		anaCycles := p.TransferLatencyS(m.Flits*flitBytes, m.MinHops) * clockHz
		if simCycles <= 0 || anaCycles <= 0 {
			t.Fatalf("degenerate transfer %+v: sim %v ana %v", m, simCycles, anaCycles)
		}
		simMean += simCycles
		anaMean += anaCycles
	}
	simMean /= float64(len(msgs))
	anaMean /= float64(len(msgs))
	// Floor: the sim charges RouterDelayCycles per hop and per body flit, so
	// it cannot undercut the analytical hop + serialization terms by more
	// than the one-cycle-per-flit difference; 0.8x absorbs that slack.
	if simMean < 0.8*anaMean {
		t.Errorf("simulated mean %.1f below analytical floor %.1f; analytical model overestimates", simMean, anaMean)
	}
	// Ceiling: per-slot (not per-cycle) serialization costs up to
	// RouterDelayCycles x, and contention stretches tails further; beyond
	// 2 x RouterDelayCycles the analytical model would be too optimistic to
	// stand in for the simulator during selection.
	if limit := 2 * float64(p.RouterDelayCycles) * anaMean; simMean > limit {
		t.Errorf("simulated mean %.1f above tolerance %.1f (analytical %.1f); model too optimistic", simMean, limit, anaMean)
	}
}

func TestSimDeadlineError(t *testing.T) {
	tor := Torus{W: 4, H: 4}
	s := NewSim(tor, DefaultNoC())
	inject(t, s, 0, 15, 1, 0)
	if _, err := s.Run(1); err == nil {
		t.Error("expected deadline error")
	}
}

// An out-of-range endpoint is refused: Inject returns an error instead of
// panicking, and nothing is queued.
func TestSimInjectPanicsOutOfRange(t *testing.T) {
	s := NewSim(Torus{W: 2, H: 2}, DefaultNoC())
	if _, err := s.Inject(0, 99, 1, 0); err == nil {
		t.Error("inject 0->99 on a 2x2 torus should fail")
	}
	msgs, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Errorf("refused inject queued %d messages", len(msgs))
	}
}

// The packet tests drive Sim with multi-flit messages (packets): a payload of
// B bytes serializes into ceil(B / BytesPerCycle) flits that follow the head
// flit's route one router slot apart.

func TestPacketFlitCount(t *testing.T) {
	s := NewSim(Torus{W: 2, H: 2}, DefaultNoC()) // 40 B/cycle
	cases := []struct{ bytes, flits int64 }{{1, 1}, {40, 1}, {41, 2}, {4000, 100}}
	for _, c := range cases {
		inject(t, s, 0, 3, c.bytes, 0)
	}
	msgs, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if msgs[i].ID != i || msgs[i].Flits != c.flits {
			t.Errorf("message %d of %d bytes: id %d, %d flits, want %d", i, c.bytes, msgs[i].ID, msgs[i].Flits, c.flits)
		}
	}
}

// idealCycles is the uncontended latency of a packet: the head flit's hops,
// then the body one router slot per flit.
func idealCycles(m Message, p Params) int64 {
	return (int64(m.MinHops) + m.Flits - 1) * int64(p.RouterDelayCycles)
}

func TestPacketUncontendedMatchesIdeal(t *testing.T) {
	p := DefaultNoC()
	for _, c := range []struct {
		src, dst int
		bytes    int64
	}{{0, 5, 4000}, {0, 15, 4000}, {6, 9, 41}, {2, 14, 1}} {
		s := NewSim(Torus{W: 4, H: 4}, p)
		inject(t, s, c.src, c.dst, c.bytes, 0)
		msgs, err := s.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if m := msgs[0]; m.LatencyCycles != idealCycles(m, p) {
			t.Errorf("%d->%d, %d flits: uncontended latency %d, want (hops %d + flits - 1) x %d = %d",
				c.src, c.dst, m.Flits, m.LatencyCycles, m.MinHops, p.RouterDelayCycles, idealCycles(m, p))
		}
	}
}

func TestPacketContentionStretches(t *testing.T) {
	p := DefaultNoC()
	// Two messages share the 0->1 link.
	s := NewSim(Torus{W: 4, H: 1}, p)
	inject(t, s, 0, 2, 4000, 0)
	inject(t, s, 0, 2, 4000, 0)
	msgs, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].LatencyCycles != idealCycles(msgs[0], p) {
		t.Errorf("first message should be unstretched: %d vs ideal %d", msgs[0].LatencyCycles, idealCycles(msgs[0], p))
	}
	// The second waits out the first's serialization: one slot per flit.
	stretch := msgs[1].LatencyCycles - idealCycles(msgs[1], p)
	if want := msgs[0].Flits * int64(p.RouterDelayCycles); stretch < want {
		t.Errorf("second message stretched %d cycles, want >= %d (%d flits ahead)", stretch, want, msgs[0].Flits)
	}
}

func TestPacketDisjointPathsDoNotInterfere(t *testing.T) {
	p := DefaultNoC()
	s := NewSim(Torus{W: 4, H: 4}, p)
	inject(t, s, 0, 1, 4000, 0)
	inject(t, s, 8, 9, 4000, 0) // different row, disjoint links
	msgs, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.LatencyCycles != idealCycles(m, p) {
			t.Errorf("packet %d stretched with no shared links: %d vs ideal %d", m.ID, m.LatencyCycles, idealCycles(m, p))
		}
	}
}

func TestPacketErrors(t *testing.T) {
	s := NewSim(Torus{W: 2, H: 2}, DefaultNoC())
	for _, c := range []struct {
		src, dst int
		bytes    int64
		why      string
	}{
		{0, 9, 10, "out-of-range destination"},
		{-1, 1, 10, "negative source"},
		{0, 1, 0, "empty payload"},
		{0, 1, -5, "negative payload"},
	} {
		if _, err := s.Inject(c.src, c.dst, c.bytes, 0); err == nil {
			t.Errorf("%s (%d->%d, %d bytes) should fail", c.why, c.src, c.dst, c.bytes)
		}
	}
	inject(t, s, 0, 3, 1<<20, 0)
	if _, err := s.Run(10); err == nil {
		t.Error("budget overrun should fail")
	}
}

func TestPacketDeterministic(t *testing.T) {
	build := func() []Message {
		s := NewSim(Torus{W: 3, H: 3}, DefaultNoC())
		for i := 0; i < 10; i++ {
			inject(t, s, i%9, (i*4+1)%9, int64(1000*(i+1)), int64(i))
		}
		msgs, err := s.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return msgs
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at packet %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
