package core

import (
	"fmt"
	"io"
	"sort"

	"hal/internal/amnet"
)

// Event tracing.
//
// When Config.TraceBuffer is set, every node records its kernel events —
// sends, deliveries, creations, migrations, FIR traffic, steals — in a
// fixed-size ring (newest kept).  Tracing is node-local and lock-free;
// Machine.Trace merges the rings by virtual time after a run.  It exists
// for the same reason the paper instruments its runtime: the interesting
// behavior (cache repair, chains, steals) is distributed and invisible
// from any single actor.

// EventKind classifies a trace event.
type EventKind uint8

// Event kinds.
const (
	EvSendLocal EventKind = iota + 1
	EvSendRemote
	EvSendRouted
	EvDeliver
	EvCreate
	EvCreateServed
	EvSpawnQueued
	EvMigrateOut
	EvMigrateIn
	EvFIRSent
	EvFIRServed
	EvStealHit
	EvStolenFrom
	EvBroadcast
	EvDeadLetter
	// Fault injection (Config.Faults runs only).
	EvFaultCut   // an inbound packet cut its link here (Peer is the source)
	EvFaultPause // this node entered a pause window
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvSendLocal:
		return "send-local"
	case EvSendRemote:
		return "send-remote"
	case EvSendRouted:
		return "send-routed"
	case EvDeliver:
		return "deliver"
	case EvCreate:
		return "create"
	case EvCreateServed:
		return "create-served"
	case EvSpawnQueued:
		return "spawn-queued"
	case EvMigrateOut:
		return "migrate-out"
	case EvMigrateIn:
		return "migrate-in"
	case EvFIRSent:
		return "fir-sent"
	case EvFIRServed:
		return "fir-served"
	case EvStealHit:
		return "steal-hit"
	case EvStolenFrom:
		return "stolen-from"
	case EvBroadcast:
		return "broadcast"
	case EvDeadLetter:
		return "dead-letter"
	case EvFaultCut:
		return "fault-cut"
	case EvFaultPause:
		return "fault-pause"
	default:
		return "unknown"
	}
}

// Event is one recorded kernel action.
type Event struct {
	// VT is the node's virtual clock when the event happened (µs).
	VT float64
	// Node is where it happened.
	Node amnet.NodeID
	// Kind classifies it.
	Kind EventKind
	// Addr is the actor involved, when there is one.
	Addr Addr
	// Peer is the other node involved (send target, migration
	// destination, steal victim), or NoNode.
	Peer amnet.NodeID
}

// String formats one event line.
func (e Event) String() string {
	if e.Peer != amnet.NoNode {
		return fmt.Sprintf("[%10.2fµs] node%-2d %-13s %v -> node%d", e.VT, e.Node, e.Kind, e.Addr, e.Peer)
	}
	return fmt.Sprintf("[%10.2fµs] node%-2d %-13s %v", e.VT, e.Node, e.Kind, e.Addr)
}

// traceRing is a node's fixed-size event buffer (newest kept).
type traceRing struct {
	buf   []Event
	next  int
	total int
}

func (t *traceRing) init(capacity int) {
	if capacity > 0 {
		t.buf = make([]Event, 0, capacity)
	}
}

func (t *traceRing) reset() {
	t.buf = t.buf[:0]
	t.next, t.total = 0, 0
}

func (t *traceRing) add(e Event) {
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % cap(t.buf)
}

// newest returns the ring's events in record order, keeping only the
// newest max (all of them when max <= 0).  The returned slice aliases a
// fresh buffer, never the ring.
func (t *traceRing) newest(max int) []Event {
	var out []Event
	if len(t.buf) < cap(t.buf) || t.next == 0 {
		out = append(out, t.buf...)
	} else {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// TraceSink receives kernel trace events as they are recorded
// (Config.TraceSink).  TraceEvent is called from every node goroutine
// concurrently — including from inside active-message handlers — so
// implementations must be safe for concurrent use and must never block
// waiting on kernel progress.  Short internal locking (as in
// ChromeTraceWriter) is fine.
type TraceSink interface {
	TraceEvent(e Event)
}

// trace records an event if ring tracing or a streaming sink is enabled.
func (n *node) trace(kind EventKind, addr Addr, peer amnet.NodeID) {
	if cap(n.events.buf) == 0 && n.sink == nil {
		return
	}
	e := Event{VT: n.vclock, Node: n.id, Kind: kind, Addr: addr, Peer: peer}
	if cap(n.events.buf) != 0 {
		n.events.add(e)
	}
	if n.sink != nil {
		n.sink.TraceEvent(e)
	}
}

// Trace returns the recorded events of the last run, merged across nodes
// and sorted by virtual time.  Empty unless Config.TraceBuffer was set.
// Call only while the machine is stopped.
func (m *Machine) Trace() []Event {
	if m.running.Load() {
		panic("core: Trace while machine is running")
	}
	var out []Event
	for _, n := range m.nodes {
		out = append(out, n.events.buf...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].VT < out[j].VT })
	return out
}

// DumpTrace writes the merged trace to w, one event per line.
func (m *Machine) DumpTrace(w io.Writer) {
	for _, e := range m.Trace() {
		fmt.Fprintln(w, e)
	}
}
