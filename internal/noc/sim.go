package noc

import "fmt"

// Sim is a flit-level simulator for the 2-D torus: dimension-ordered (X then
// Y) routing, single-flit buffers per input port, round-robin arbitration per
// output port. Traffic enters as messages that serialize into flits. It
// exists to validate the analytical latency model under contention (DESIGN.md,
// D5 companion for the interconnect).
type Sim struct {
	t     Torus
	p     Params
	nMsgs int
	flits []*flit
}

type flit struct {
	id        int // injection order: FIFO rank within a source's queue
	msg       int // owning message
	src, dst  int
	injectCyc int64
	doneCyc   int64
	// position: current node, or -1 when not yet injected / delivered
	at   int
	done bool
	// per-slot transient state (valid only inside Run's slot loop)
	want   int  // requested node this slot, or -1
	moving bool // granted and unblocked this slot
}

// Message is a delivered message report.
type Message struct {
	ID            int
	Src, Dst      int
	Flits         int64
	InjectCycle   int64
	DeliverCycle  int64 // when the message's last flit landed
	LatencyCycles int64
	MinHops       int
}

// NewSim creates a simulator over the torus with channel parameters p.
// Each flit carries one channel payload (BytesPerCycle bytes).
func NewSim(t Torus, p Params) *Sim {
	return &Sim{t: t, p: p}
}

// Inject schedules a message of the given payload from src to dst at the
// given cycle and returns its id. The payload serializes into
// ceil(bytes / BytesPerCycle) flits that queue at src in order, so a payload
// of at most BytesPerCycle bytes is a single flit; the message is delivered
// when its last flit lands. Flits addressed to their own source eject in the
// slot they are due, so such a message takes one slot whatever its size.
func (s *Sim) Inject(src, dst int, bytes, cycle int64) (int, error) {
	if src < 0 || dst < 0 || src >= s.t.Nodes() || dst >= s.t.Nodes() {
		return 0, fmt.Errorf("noc: inject (%d->%d) outside torus of %d nodes", src, dst, s.t.Nodes())
	}
	if bytes <= 0 {
		return 0, fmt.Errorf("noc: inject (%d->%d) of an empty payload", src, dst)
	}
	per := max(int64(s.p.BytesPerCycle()), 1)
	id := s.nMsgs
	s.nMsgs++
	for n := (bytes + per - 1) / per; n > 0; n-- {
		s.flits = append(s.flits, &flit{id: len(s.flits), msg: id, src: src, dst: dst, injectCyc: cycle, at: -1})
	}
	return id, nil
}

// nextHop returns the next node under dimension-ordered torus routing.
func (s *Sim) nextHop(at, dst int) int {
	ax, ay := s.t.Coord(at)
	dx, dy := s.t.Coord(dst)
	if ax != dx {
		// Move along X by the shorter ring direction.
		fwd := ((dx - ax) + s.t.W) % s.t.W
		if fwd <= s.t.W/2 {
			return s.t.ID(ax+1, ay)
		}
		return s.t.ID(ax-1, ay)
	}
	if ay != dy {
		fwd := ((dy - ay) + s.t.H) % s.t.H
		if fwd <= s.t.H/2 {
			return s.t.ID(ax, ay+1)
		}
		return s.t.ID(ax, ay-1)
	}
	return at
}

// Run simulates until all flits are delivered or maxCycles elapses, then
// returns one delivery report per message, indexed by message id. One flit
// advances one hop per RouterDelayCycles slot; each node holds a single-flit
// buffer.
//
// Arbitration is rotating round-robin per output node over its input ports
// (the node a request arrives from: the requester's current node, or its
// source node for flits still in the injection queue). A per-node grant
// pointer advances past each granted port, so after winning, a port becomes
// the lowest priority and every port is served within one rotation — the
// no-starvation property the old fixed lowest-flit-ID policy lacked. In-flight
// requesters take precedence over injection-queue requesters (the standard
// router rule: through-traffic holds the channel, new traffic merges into
// gaps), which is also what keeps chains of occupied nodes live; within one
// port's injection queue, flits leave in ID (FIFO) order.
//
// Occupancy: a granted flit enters its next node only once that node is free
// — vacated by delivery, or by an occupant that itself moves this slot
// (chains and simultaneous ring rotations advance together); a grant blocked
// by a stalled occupant is retried in a later slot.
func (s *Sim) Run(maxCycles int64) ([]Message, error) {
	step := int64(s.p.RouterDelayCycles)
	if step <= 0 {
		step = 1
	}
	n := s.t.Nodes()
	occ := make([]*flit, n)      // node -> occupying flit
	rr := make([]int, n)         // node -> round-robin grant pointer (a port index)
	reqs := make([][]*flit, n)   // node -> requesting flits this slot
	winner := make([]*flit, n)   // node -> granted flit this slot
	touched := make([]int, 0, n) // nodes with requests this slot
	portDist := func(port, ptr int) int {
		d := (port - ptr) % n
		if d < 0 {
			d += n
		}
		return d
	}
	pending := len(s.flits)
	for cyc := int64(0); pending > 0; cyc += step {
		if cyc > maxCycles {
			return nil, fmt.Errorf("noc: %d flits undelivered after %d cycles", pending, maxCycles)
		}
		// Deliver flits that reached their destination: ejection through the
		// local port costs one router slot and frees the node for this slot's
		// arbitration.
		for _, f := range s.flits {
			if !f.done && f.at >= 0 && f.at == f.dst {
				f.done = true
				f.doneCyc = cyc + step
				occ[f.at] = nil
				f.at = -1
				pending--
			}
		}
		// Collect move requests: in-flight flits toward their next hop, due
		// flits still in their source's injection queue toward their first hop
		// (injection and first hop share a slot, as does a src==dst flit's
		// immediate ejection — the timing of the uncontended analytical model).
		touched = touched[:0]
		for _, f := range s.flits {
			f.want, f.moving = -1, false
			if f.done {
				continue
			}
			if f.at < 0 {
				if f.injectCyc > cyc {
					continue
				}
				if f.src == f.dst {
					f.done = true
					f.doneCyc = cyc + step
					pending--
					continue
				}
				f.want = s.nextHop(f.src, f.dst)
			} else {
				f.want = s.nextHop(f.at, f.dst)
			}
			if len(reqs[f.want]) == 0 {
				touched = append(touched, f.want)
			}
			reqs[f.want] = append(reqs[f.want], f)
		}
		// Arbitrate each contested node over its input ports.
		for _, t := range touched {
			var win *flit
			winPort := -1
			inFlight := false
			for _, f := range reqs[t] {
				port, fly := f.src, f.at >= 0
				if fly {
					port = f.at
				}
				switch {
				case win == nil,
					fly && !inFlight:
					win, winPort, inFlight = f, port, fly
				case fly == inFlight && portDist(port, rr[t]) < portDist(winPort, rr[t]):
					win, winPort, inFlight = f, port, fly
				case fly == inFlight && port == winPort && f.id < win.id:
					// Same injection queue: FIFO order. (Two in-flight
					// requesters cannot share a port: single-flit buffers.)
					win = f
				}
			}
			rr[t] = winPort + 1
			win.moving = true
			winner[t] = win
			reqs[t] = reqs[t][:0]
		}
		// Occupancy: a winner moves only if its node is free or freed this
		// slot by an occupant that moves itself. Iterate to a fixed point so
		// chains resolve and simultaneous ring rotations all advance, while a
		// winner behind a stalled flit keeps waiting.
		for changed := true; changed; {
			changed = false
			for _, t := range touched {
				w := winner[t]
				if w == nil || !w.moving {
					continue
				}
				if o := occ[t]; o != nil && !o.moving {
					w.moving = false
					changed = true
				}
			}
		}
		// Apply all moves simultaneously: vacate first, then occupy.
		for _, t := range touched {
			if w := winner[t]; w != nil && w.moving && w.at >= 0 {
				occ[w.at] = nil
			}
		}
		for _, t := range touched {
			w := winner[t]
			if w != nil && w.moving {
				occ[t] = w
				w.at = t
			}
			winner[t] = nil
		}
	}
	msgs := make([]Message, s.nMsgs)
	for _, f := range s.flits {
		m := &msgs[f.msg]
		m.ID, m.Src, m.Dst, m.InjectCycle = f.msg, f.src, f.dst, f.injectCyc
		m.Flits++
		m.DeliverCycle = max(m.DeliverCycle, f.doneCyc)
	}
	for i := range msgs {
		msgs[i].LatencyCycles = msgs[i].DeliverCycle - msgs[i].InjectCycle
		msgs[i].MinHops = s.t.Hops(msgs[i].Src, msgs[i].Dst)
	}
	return msgs, nil
}
