package core

import (
	"fmt"
	"strings"

	"hal/internal/names"
)

// DebugDump summarizes every node's kernel state — held messages, pending
// registrations, queue depths — for diagnosing stalled runs.  Call only
// after Run returns.  If the run ended in a stall, the snapshot taken at
// detection time (before shutdown purged the queues) is returned instead.
func (m *Machine) DebugDump() string {
	if m.running.Load() {
		panic("core: DebugDump while machine is running")
	}
	if m.stallDump != "" {
		return m.stallDump
	}
	return m.dumpLocked()
}

// dumpLocked renders the kernel state; callers must know the nodes are
// not mutating it (stopped, or parked at stall detection).
func (m *Machine) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live=%d\n", m.live.sum())
	for _, n := range m.nodes {
		fmt.Fprintf(&b, "node %d: vclock=%.1fus ready=%d spawnq=%d table=%d ldLive=%d inbox=%d\n",
			n.id, n.vclock, n.ready.Len(), n.spawnq.Len(), n.table.Len(), n.arena.Live(), n.ep.Pending())
		for addr, msgs := range n.pendingAddr {
			fmt.Fprintf(&b, "  pendingAddr %v: %d msg(s)\n", addr, len(msgs))
		}
		for gid, casts := range n.pendingCasts {
			fmt.Fprintf(&b, "  pendingCast group %d: %d cast(s)\n", gid, len(casts))
		}
		n.dumpHeld(&b)
		if n.jc.m.Len() > 0 {
			fmt.Fprintf(&b, "  join continuations outstanding: %d\n", n.jc.m.Len())
		}
	}
	return b.String()
}

// dumpHeld scans the arena for descriptors with parked traffic.
func (n *node) dumpHeld(b *strings.Builder) {
	n.arena.ForEach(func(seq uint64, ld *names.LD) {
		if len(ld.Held) > 0 || ld.State == names.LDInTransit {
			fmt.Fprintf(b, "  ld seq=%d state=%v rnode=%d rseq=%d held=%d fir=%v\n",
				seq, ld.State, ld.RNode, ld.RSeq, len(ld.Held), ld.FIRSent)
		}
		// Also surface actors with undispatched traffic.
		if ld.State == names.LDLocal {
			if a, ok := ld.Actor.(*Actor); ok {
				if a.mailq.Len() > 0 || a.npending() > 0 {
					fmt.Fprintf(b, "  actor %v: mailq=%d pending=%d queued=%v dead=%v\n",
						a.addr, a.mailq.Len(), a.npending(), a.queued, a.dead)
				}
				if seq == a.seq { // once, if a second descriptor points here too
					dumpOutOfTurn(b, a)
				}
			}
		}
	})
}

// dumpOutOfTurn lists the letters an actor holds out of turn, each with
// the number its stream waits for: a machine stalled on a gap in a stream
// shows it here.
func dumpOutOfTurn(b *strings.Builder, a *Actor) {
	if a.side == nil {
		return
	}
	for _, h := range a.side.held {
		fmt.Fprintf(b, "  actor %v: holds letter %d from node %d (ld %d) out of turn, waiting for letter %d\n",
			a.addr, h.num, h.origin(), h.originLD, a.turn(h.origin(), h.originLD))
	}
}
