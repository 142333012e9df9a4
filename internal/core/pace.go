package core

import (
	"math"
	"sync/atomic"
	"time"
)

// Virtual-clock pacing: a conservative time window.
//
// Virtual time (vtime.go) measures where work ran, but the Go scheduler
// decides where it runs: with cheap real-time methods a loaded node can
// race through its spawn queue before an idle node's steal request lands,
// which would misattribute almost all work to one node no matter what the
// load balancer could have done.  Pacing aligns real execution with
// virtual time using a window rule familiar from conservative parallel
// discrete-event simulation:
//
//	frontier F = min( clocks of nodes with runnable work,
//	                  stamps of all deferred creations awaiting pickup )
//
//	While any node is idle-polling for work, a node may only START new
//	work if its clock is within paceWindow of F.  A node paused by the
//	rule keeps serving its network (steal requests, name service), so
//	the stealable record defining the frontier is claimed within a real
//	round trip and F advances.
//
// Consequences: the machine executes as a loose virtual-time wavefront;
// an idle PE always gets the globally oldest stealable work, as it would
// on the real machine; and when no node is idle (or load balancing is
// off) the rule never engages and nodes run at full speed.
//
// Idle nodes do not advance their clocks while polling; the stolen
// record's stamp (spawn time plus the poll round trip) carries the
// causally required time, so a thief's clock jumps to a consistent point
// when it installs stolen work.

const infVT = math.MaxFloat64

// paceSlot is one node's published clock state, padded to a cache line.
// Every node stores into its slot before starting each task (publish), so
// with the former parallel []atomic arrays eight nodes' hottest stores
// landed on one line and invalidated each other — textbook false sharing,
// invisible at GOMAXPROCS=1 and a scaling cliff above it.
type paceSlot struct {
	clock atomic.Uint64 // Float64bits of the node's clock
	front atomic.Uint64 // Float64bits of the node's oldest spawn stamp
	busy  atomic.Bool   // node has runnable work right now
	_     [47]byte
}

// pacer holds the published clock state.
type pacer struct {
	window  float64 // µs; <= 0 disables pacing
	polling atomic.Int32
	slots   []paceSlot
}

// paceWindow bounds how far (in virtual µs) a node may run ahead of the
// frontier before pausing.
const paceWindow = 500.0

// init arms the window only with load balancing on: without steals no node
// ever idle-polls, so the rule could never engage.
func (p *pacer) init(nodes int, loadBalance bool) {
	if loadBalance {
		p.window = paceWindow
	}
	p.slots = make([]paceSlot, nodes)
}

func (p *pacer) reset() {
	p.polling.Store(0)
	for i := range p.slots {
		p.slots[i].clock.Store(0)
		p.slots[i].front.Store(math.Float64bits(infVT))
		p.slots[i].busy.Store(false)
	}
}

// frontier returns the virtual time of the machine's laggard: the minimum
// over busy nodes' clocks and — when an idle node is polling for work —
// the oldest stealable record's stamp plus one steal round trip (the time
// at which that idle node could be running it).
func (p *pacer) frontier(stealRTT float64) float64 {
	minBusy, minFront := infVT, infVT
	for i := range p.slots {
		s := &p.slots[i]
		if !s.busy.Load() {
			continue
		}
		if v := math.Float64frombits(s.clock.Load()); v < minBusy {
			minBusy = v
		}
		if v := math.Float64frombits(s.front.Load()); v < minFront {
			minFront = v
		}
	}
	f := minBusy
	if p.polling.Load() > 0 && minFront+stealRTT < f {
		f = minFront + stealRTT
	}
	return f
}

// publish refreshes this node's entry in the pacer.  Clocks are stored
// even with pacing disabled: they double as the running machine's
// VirtualTime snapshot.
func (n *node) publish() {
	s := &n.m.pace.slots[n.id]
	s.clock.Store(math.Float64bits(n.vclock))
	if n.m.pace.window <= 0 {
		return
	}
	front := infVT
	if rec, ok := n.spawnq.Front(); ok {
		front = rec.vt
	}
	s.front.Store(math.Float64bits(front))
	s.busy.Store(n.ready.Len() > 0 || n.spawnq.Len() > 0)
}

// paceGate holds the node while starting new work would run more than a
// window beyond the frontier and an idle node could take the frontier
// work instead.
func (n *node) paceGate() {
	p := &n.m.pace
	if p.window <= 0 {
		return
	}
	stealRTT := costSteal + 2*costNetLatency
	for !n.m.stopped() {
		if n.vclock <= p.frontier(stealRTT)+p.window {
			return
		}
		n.stats.PaceStalls++
		// Serve the network while waiting; steals move the frontier.
		if n.ep.PollAll() == 0 {
			n.settle()
			n.ep.Wait(n.m.stop, 5*time.Microsecond)
		}
		n.publish()
	}
}
