package core

import (
	"fmt"
	"strings"

	"hal/internal/amnet"
	"hal/internal/hist"
)

// NodeStats counts one node kernel's activity.  Fields are owned by the
// node's goroutine; read them via Machine.Stats after Run returns.
type NodeStats struct {
	// Creation.
	CreatesLocal  uint64 // actors created by a local new
	CreatesRemote uint64 // creation requests sent to another node
	CreatesServed uint64 // creation requests instantiated here
	SpawnsQueued  uint64 // deferred (NewAuto) creations queued here

	// Message traffic.
	SendsLocal    uint64 // generic sends that resolved to this node
	SendsFast     uint64 // SendFast calls that ran on the caller's stack
	SendsFastMiss uint64 // SendFast calls that fell back to the generic path
	SendsRemote   uint64 // sends that left the node with a cached LD address
	SendsRouted   uint64 // sends routed via the birthplace/hint node
	Delivered     uint64 // messages dispatched to a local actor
	Disabled      uint64 // dispatches deferred by a synchronization constraint
	PendingRuns   uint64 // pending-queue messages that became enabled and ran
	DeadLetters   uint64 // messages dropped for dead actors

	// Name service.
	CacheUpdates uint64 // locality-descriptor addresses cached back
	FIRSent      uint64 // forwarding information requests issued
	FIRRelayed   uint64 // FIRs forwarded along a chain
	FIRServed    uint64 // FIRs answered (actor found here)
	HeldMessages uint64 // messages held on an unresolved descriptor
	Forwarded    uint64 // whole messages forwarded hop by hop (NaiveForwarding)

	// Control.
	Broadcasts  uint64 // broadcasts originated here
	BcastRelays uint64 // spanning-tree forwards
	Replies     uint64 // join-continuation slots filled
	JoinsRun    uint64 // join continuations fired
	Migrations  uint64 // actors migrated away from this node
	MigratedIn  uint64 // actors installed by migration
	StealReqs   uint64 // steal requests sent (idle polling)
	StealHits   uint64 // steals that returned work
	StealMisses uint64 // steals denied
	StolenFrom  uint64 // creations handed to a thief
	IdleYields  uint64 // waits a yield ended with a packet (mirrors Net.WaitYields)
	IdleParks   uint64 // waits that really parked the node (mirrors Net.WaitParks)
	PaceStalls  uint64 // pace-gate pauses (conservative window engaged)

	// Always zero: no layer above the link retries or filters a packet
	// (fault plans cut links, which replay; see Net.Cuts).  They stay
	// for the benchmark harness, which reads them.
	DupsFiltered uint64
	Retries      uint64

	// Latency distributions, host wall-clock microseconds (hist.H is
	// fixed-size and allocation-free, so observing on kernel paths keeps
	// the 0-alloc guards green).  Virtual time is unusable here: control
	// packets carry no VT stamp and an idle node's clock stands still.
	FIRRepair hist.H // FIR issue -> descriptor repaired (cache update applied)
	StealWait hist.H // steal request -> grant received (hits only)

	// Network layer (filled from amnet on snapshot).
	Net amnet.Stats
}

// add accumulates o into s.
func (s *NodeStats) add(o NodeStats) {
	s.CreatesLocal += o.CreatesLocal
	s.CreatesRemote += o.CreatesRemote
	s.CreatesServed += o.CreatesServed
	s.SpawnsQueued += o.SpawnsQueued
	s.SendsLocal += o.SendsLocal
	s.SendsFast += o.SendsFast
	s.SendsFastMiss += o.SendsFastMiss
	s.SendsRemote += o.SendsRemote
	s.SendsRouted += o.SendsRouted
	s.Delivered += o.Delivered
	s.Disabled += o.Disabled
	s.PendingRuns += o.PendingRuns
	s.DeadLetters += o.DeadLetters
	s.CacheUpdates += o.CacheUpdates
	s.FIRSent += o.FIRSent
	s.FIRRelayed += o.FIRRelayed
	s.FIRServed += o.FIRServed
	s.HeldMessages += o.HeldMessages
	s.Forwarded += o.Forwarded
	s.Broadcasts += o.Broadcasts
	s.BcastRelays += o.BcastRelays
	s.Replies += o.Replies
	s.JoinsRun += o.JoinsRun
	s.Migrations += o.Migrations
	s.MigratedIn += o.MigratedIn
	s.StealReqs += o.StealReqs
	s.StealHits += o.StealHits
	s.StealMisses += o.StealMisses
	s.StolenFrom += o.StolenFrom
	s.IdleYields += o.IdleYields
	s.IdleParks += o.IdleParks
	s.PaceStalls += o.PaceStalls
	s.FIRRepair.Merge(&o.FIRRepair)
	s.StealWait.Merge(&o.StealWait)
	s.Net.Add(o.Net)
}

// MachineStats aggregates per-node statistics.
type MachineStats struct {
	PerNode []NodeStats
	Total   NodeStats
	// Wire is this process's socket-transport counters; all zero on a
	// single-process machine.
	Wire amnet.TransportStats
}

// FaultSummary is the one-line account of a fault plan's work, in one
// format for both networks: the links cut (by the endpoints in memory, by
// the socket readers across processes), the packets a cut held and the
// link replayed, pause windows, what the kernel recovered above the link
// (nothing: retries and dedup stay zero) and the dead letters.
func (m MachineStats) FaultSummary() string {
	t, w := m.Total, m.Wire
	return fmt.Sprintf("cuts=%d held=%d pauses=%d retries=%d dedup=%d deadletters=%d",
		t.Net.Cuts+w.FaultCuts, t.Net.Held+w.Replayed, t.Net.Pauses, t.Retries, t.DupsFiltered, t.DeadLetters)
}

// String formats the totals compactly for reports.
func (m MachineStats) String() string {
	t := m.Total
	var b strings.Builder
	fmt.Fprintf(&b, "creates: local=%d remote=%d served=%d auto=%d\n",
		t.CreatesLocal, t.CreatesRemote, t.CreatesServed, t.SpawnsQueued)
	fmt.Fprintf(&b, "sends:   local=%d fast=%d(fastmiss=%d) remote=%d routed=%d delivered=%d\n",
		t.SendsLocal, t.SendsFast, t.SendsFastMiss, t.SendsRemote, t.SendsRouted, t.Delivered)
	fmt.Fprintf(&b, "sync:    disabled=%d pendingRuns=%d deadletters=%d\n",
		t.Disabled, t.PendingRuns, t.DeadLetters)
	fmt.Fprintf(&b, "names:   cacheupd=%d fir=%d/%d/%d held=%d\n",
		t.CacheUpdates, t.FIRSent, t.FIRRelayed, t.FIRServed, t.HeldMessages)
	fmt.Fprintf(&b, "ctl:     bcasts=%d relays=%d replies=%d joins=%d mig=%d/%d steal=%d/%d/%d given=%d\n",
		t.Broadcasts, t.BcastRelays, t.Replies, t.JoinsRun, t.Migrations, t.MigratedIn,
		t.StealReqs, t.StealHits, t.StealMisses, t.StolenFrom)
	fmt.Fprintf(&b, "net:     pkts=%d/%d stalls=%d bulk=%d/%d words=%d queued=%d\n",
		t.Net.Sent, t.Net.Received, t.Net.SendStalls,
		t.Net.BulkSends, t.Net.BulkRecvs, t.Net.BulkWords, t.Net.BulkQueued)
	fmt.Fprintf(&b, "wait:    yields=%d parks=%d pacestalls=%d\n", t.IdleYields, t.IdleParks, t.PaceStalls)
	w := m.Wire
	wired := w.WireSent+w.WireRecvd+w.CtlSent+w.CtlRecvd > 0
	if wired || t.Net.Cuts+t.Net.Pauses > 0 {
		fmt.Fprintf(&b, "faults:  %s\n", m.FaultSummary())
	}
	if wired {
		fmt.Fprintf(&b, "wire:    sent=%d recvd=%d out=%dB in=%dB dropped=%d cuts=%d redials=%d ctl-sent=%d ctl-recvd=%d replayed=%d ackframes=%d dupframes=%d\n",
			w.WireSent, w.WireRecvd, w.WireBytesOut, w.WireBytesIn, w.WireDropped, w.FaultCuts, w.Redials,
			w.CtlSent, w.CtlRecvd, w.Replayed, w.AckFrames, w.DupFrames)
	}
	if t.FIRRepair.N+t.StealWait.N+t.Net.GrantWait.N > 0 {
		fmt.Fprintf(&b, "lat:     fir(n=%d p50=%.0fµs p99=%.0fµs) steal(n=%d p50=%.0fµs p99=%.0fµs) grant(n=%d p50=%.0fµs p99=%.0fµs) flushocc(n=%d p50=%.0f max=%.0f)\n",
			t.FIRRepair.N, t.FIRRepair.Quantile(0.5), t.FIRRepair.Quantile(0.99),
			t.StealWait.N, t.StealWait.Quantile(0.5), t.StealWait.Quantile(0.99),
			t.Net.GrantWait.N, t.Net.GrantWait.Quantile(0.5), t.Net.GrantWait.Quantile(0.99),
			t.Net.FlushOcc.N, t.Net.FlushOcc.Quantile(0.5), t.Net.FlushOcc.Max)
	}
	return b.String()
}
