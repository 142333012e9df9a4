package core

// Self-healing control plane (active only under fault injection on an
// in-memory machine; across processes the socket link recovers).
//
// The kernel's protocols — message delivery, FIR repair, cache updates,
// remote creation and alias binding, migration, stealing, broadcast
// fan-out, replies — were written for the CM-5's reliable network: a
// single lost hStealGrant wedges the thief forever, a duplicated
// hMigrate installs the actor twice, a lost hDeliverMsg silently leaks a
// live-work unit and the machine dies with ErrStalled.  When
// Config.Faults is set, this file layers exactly-once delivery under
// every kernel packet:
//
//   - Senders stamp each control packet with a per-(src,dst) sequence
//     number (Packet.Seq; 0 means unsequenced) and keep it in a retry
//     table until the receiver acknowledges it (hCtlAck).
//   - Receivers acknowledge every sequenced packet (acks are one of the
//     two things the kernel stages, see sendCtlStaged) and suppress
//     duplicates (retransmits, fault dups) before the handler runs, so
//     every handler behaves exactly-once without being individually
//     idempotent.
//   - Unacknowledged packets are re-sent with exponential backoff plus
//     jitter; after retryBudget attempts the packet is abandoned
//     and ESCALATED: the live-work units it carried (captured eagerly at
//     send time — payloads may be recycled by the receiver) retire as
//     dead letters so the program can still quiesce, and protocol state
//     pinned on the packet (an outstanding steal poll, an FIR in
//     flight) is released.  Escalation is a declared partial failure,
//     not a hang.
//
// Everything here is confined to the node's goroutine: sequence tables
// and the retry map are touched only by the owner (handlers run on the
// receiving node's goroutine, sends on the sender's), so the layer adds
// no locks.  With Faults unset none of this state is consulted beyond
// one branch per send and one per receive.  The send-side branch lives
// in the kernel's two send verbs below, sendCtl (in order and now) and
// sendCtlStaged (may wait for the next poll boundary); packets carrying
// several units call sequence themselves and then ep.Send.

import (
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
)

// relUnit is the live-work accounting carried by one unacknowledged
// packet: if the packet is abandoned, live units retire and letters
// count as dead letters.
type relUnit struct {
	prog    *Program
	live    int64
	letters uint64
}

type relKey struct {
	dst amnet.NodeID
	seq uint64
}

// relEntry is one unacknowledged control packet awaiting ack or retry.
type relEntry struct {
	pkt      amnet.Packet
	due      time.Time
	interval time.Duration
	tries    int
	unit     relUnit
	extra    []relUnit // additional units (migration bundles carry many)
}

// relState is a node's half of the reliable channel to every peer.
type relState struct {
	// Sender side: next sequence per destination, and the retry table.
	nextSeq []uint64
	pending map[relKey]*relEntry
	// nextDue is no later than the earliest due date in pending (zero
	// when nothing was noted since the last scan), so the run loop's
	// retry pump can return without walking the table.  Acks leave it
	// stale-early, which costs one scan that finds nothing due.
	nextDue time.Time
	// Receiver side: next expected sequence per source, plus the set of
	// out-of-order sequences already delivered ahead of it.
	recvNext []uint64
	ahead    []map[uint64]struct{}
}

func (r *relState) init(peers int) {
	r.nextSeq = make([]uint64, peers)
	r.pending = make(map[relKey]*relEntry)
	r.recvNext = make([]uint64, peers)
	for i := range r.recvNext {
		r.recvNext[i] = 1
	}
	r.ahead = make([]map[uint64]struct{}, peers)
}

// reset clears channel state between runs (called from purge, after the
// drain barrier, so both ends restart at sequence 1 together).
func (r *relState) reset() {
	for i := range r.nextSeq {
		r.nextSeq[i] = 0
	}
	clear(r.pending)
	r.nextDue = time.Time{}
	for i := range r.recvNext {
		r.recvNext[i] = 1
	}
	for i := range r.ahead {
		r.ahead[i] = nil
	}
}

// noteDue lowers nextDue to t if t is earlier.
func (r *relState) noteDue(t time.Time) {
	if r.nextDue.IsZero() || t.Before(r.nextDue) {
		r.nextDue = t
	}
}

// accept reports whether (src, seq) is new, advancing the receive window.
func (r *relState) accept(src amnet.NodeID, seq uint64) bool {
	next := r.recvNext[src]
	if seq < next {
		return false // already delivered and window advanced past it
	}
	if seq == next {
		next++
		if ah := r.ahead[src]; ah != nil {
			for {
				if _, ok := ah[next]; !ok {
					break
				}
				delete(ah, next)
				next++
			}
		}
		r.recvNext[src] = next
		return true
	}
	// Out of order (delay fault or loss ahead of us): deliver now, track
	// the gap.
	ah := r.ahead[src]
	if ah == nil {
		ah = make(map[uint64]struct{})
		r.ahead[src] = ah
	}
	if _, dup := ah[seq]; dup {
		return false
	}
	ah[seq] = struct{}{}
	return true
}

// emit puts p on the wire in order and now, after settling the ledger: a
// packet is the only way a unit of work (or any word of what this node did)
// reaches another node, so whoever reads it finds every unit it carries
// already counted.
func (n *node) emit(p amnet.Packet) {
	n.settle()
	n.ep.Send(p)
}

// sendCtl sends a kernel control packet carrying (at most) one live-work
// unit, in order and now.  With fault injection off this is a plain emit.
func (n *node) sendCtl(p amnet.Packet, prog *Program, live int64, letters uint64) {
	if n.m.relOn {
		n.sequence(&p, relUnit{prog: prog, live: live, letters: letters}, nil)
	}
	n.emit(p)
}

// sendCtlStaged is sendCtl for a packet that may wait in the link's
// staging buffer for this node's next poll boundary (amnet.SendBatched).
// The kernel stages exactly two things: a word-encoded reply (sendReply) —
// a burst of them leaves one node for one requester when a barrier or a
// join releases, and nothing routes by what a reply says — and the
// reliable layer's acks (ackCtl).  Everything else, location repair above
// all, goes through sendCtl: a repair that sat in a staging buffer would
// let routed traffic keep paying the forwarding chain it shortens.
func (n *node) sendCtlStaged(p amnet.Packet, prog *Program, live int64, letters uint64) {
	if n.m.relOn {
		n.sequence(&p, relUnit{prog: prog, live: live, letters: letters}, nil)
	}
	n.settle()
	n.ep.SendBatched(p)
}

// sequence stamps p with the next sequence number to its destination and
// files it in the retry table with the live-work units it carries (extra
// for packets carrying several: migration bundles).  Reliable path only;
// callers test m.relOn first, and take p by pointer so the fault-free
// path never copies a Packet it does not send.
func (n *node) sequence(p *amnet.Packet, unit relUnit, extra []relUnit) {
	r := &n.rel
	r.nextSeq[p.Dst]++
	p.Seq = r.nextSeq[p.Dst]
	//halvet:allowwallclock retransmit timers model host-time recovery, not simulated cost; the sender's VT does not advance while it waits
	due := time.Now().Add(retryBase)
	r.pending[relKey{dst: p.Dst, seq: p.Seq}] = &relEntry{
		pkt:      *p,
		due:      due,
		interval: retryBase,
		unit:     unit,
		extra:    extra,
	}
	r.noteDue(due)
}

// ackCtl acknowledges receipt of sequenced packet seq from src.  Acks
// are unsequenced (an ack of an ack would never terminate); a lost ack
// just costs one retransmission, which the receiver dedups.  They are
// staged: one handler burst acknowledges many packets from one peer.
func (n *node) ackCtl(src amnet.NodeID, seq uint64) {
	n.ep.SendBatched(amnet.Packet{Handler: hCtlAck, Dst: src, U0: seq})
}

func (n *node) handleCtlAck(src amnet.NodeID, seq uint64) {
	delete(n.rel.pending, relKey{dst: src, seq: seq})
}

// pumpRetries re-sends overdue unacknowledged packets and escalates the
// ones whose budget ran out.  Called from the node main loop; reentrant
// acks during ep.Send mutate the map mid-range, which Go's map
// iteration semantics permit.  The range runs only once the earliest due
// date has passed, and recomputes it: every entry it leaves behind is
// noted, and so is every entry a reentrant send inserts meanwhile.
//
//halvet:allowwallclock retransmit due-dates pace on the host clock: retries recover from injected faults, which are invisible to (and frozen in) VT
func (n *node) pumpRetries() {
	r := &n.rel
	now := time.Now()
	if now.Before(r.nextDue) {
		return
	}
	r.nextDue = time.Time{}
	for k, e := range r.pending {
		if now.Before(e.due) {
			r.noteDue(e.due)
			continue
		}
		if e.tries >= retryBudget {
			delete(r.pending, k)
			n.escalate(e)
			continue
		}
		e.tries++
		n.stats.Retries++
		n.trace(EvRetry, Nil, k.dst)
		iv := min(e.interval*2, retryMax)
		e.interval = iv
		// +-25% jitter so retransmit storms from many nodes decorrelate.
		jit := iv / 4
		e.due = now.Add(iv - jit + time.Duration(n.rng.Int63n(int64(2*jit)+1)))
		r.noteDue(e.due)
		n.emit(e.pkt)
	}
}

// escalate abandons an unacknowledgeable packet: its accounted work
// retires as dead letters and any protocol state pinned on it is
// released, so the machine quiesces (degraded) instead of stalling.
func (n *node) escalate(e *relEntry) {
	n.stats.RetryExhausted++
	n.m.relExhausted.Store(true)
	n.trace(EvRetryDrop, Nil, e.pkt.Dst)
	switch e.pkt.Handler {
	case hStealReq:
		// The poll is void; let the thief pick a new victim.
		n.stealOut = false
		//halvet:allowwallclock steal backoff paces on host time; the idle thief's VT is frozen
		n.nextSteal = time.Now().Add(n.stealBackoff)
	case hFIR:
		// The chain is unreachable; declare the messages held HERE dead.
		// (Chain nodes behind us time out on their own FIRs.)
		if req, ok := e.pkt.Payload.(firReq); ok {
			n.abandonFIR(req.addr)
		} else { // word-encoded FIR: the address rides in U0/U1
			addr, _, _ := decodeLoc(e.pkt)
			n.abandonFIR(addr)
		}
	}
	n.retireUnit(e.unit)
	for _, u := range e.extra {
		n.retireUnit(u)
	}
}

func (n *node) retireUnit(u relUnit) {
	if u.live == 0 {
		return
	}
	n.stats.DeadLetters += u.letters
	n.retire(u.prog, u.live)
}

// abandonFIR gives up locating addr: messages parked on its descriptor
// become dead letters, and parked chain requests are answered "dead" so
// the nodes behind us can release theirs too.
func (n *node) abandonFIR(addr Addr) {
	ld := n.arena.Get(n.seqFor(addr))
	if ld == nil {
		return
	}
	ld.FIRSent = false
	if ld.State != names.LDRemote {
		return
	}
	held := ld.Held
	ld.Held = nil
	for _, h := range held {
		switch v := h.(type) {
		case *Message:
			n.dropMsg(v)
		case firReq:
			n.answerFIR(v, amnet.NoNode, 0)
			n.freePath(v.path)
		}
	}
}

// subtreeMembers counts the members of g homed on nodes inside child's
// subtree of the broadcast tree rooted at root — the work units a lost
// tree fan-out packet strands.
func subtreeMembers(g Group, root, child amnet.NodeID, p int) int64 {
	lo, size := amnet.TreeSubtree(root, child, p)
	var cnt int64
	for rel := lo; rel < lo+size; rel++ {
		cnt += g.membersOn(amnet.NodeID((int(root) + rel) % p))
	}
	return cnt
}
