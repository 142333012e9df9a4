package core

import (
	"hal/internal/amnet"
	"hal/internal/names"
)

// Actor migration (§ 4.3).
//
// Migration is the mechanism beneath both user-directed placement changes
// and dynamic load balancing.  The protocol tolerates the name server's
// relaxed consistency: when an actor leaves, its descriptor on the old
// node becomes a forwarding entry ("migration history"); messages that
// arrive during the move are held until the new home acknowledges, and
// the new location is proactively cached at the old node AND the
// birthplace node, which § 4.3 notes cuts most forwarding traffic.
// Senders with stale caches are repaired lazily by the FIR protocol in
// delivery.go.

// migBundle carries a moving actor: identity, behavior, every message it
// had not yet processed, and its place in each numbered stream (order.go).
// side brings the letters its constraints disabled and those it holds out
// of turn.
type migBundle struct {
	addr     Addr
	alias    Addr
	behavior Behavior
	msgs     []*Message
	prog     *Program // the program whose method asked for the move
	in       inStream
	side     *actorSide
}

// startMigration detaches a (after its current method, of prog, returned)
// and ships it to the requested node; the move is a unit of prog's work.
func (n *node) startMigration(a *Actor, prog *Program) {
	dst := a.migrate
	a.migrate = amnet.NoNode
	if dst == n.id || dst < 0 || int(dst) >= len(n.m.nodes) {
		return
	}
	n.stats.Migrations++
	n.trace(EvMigrateOut, a.addr, dst)
	ld := n.arena.Get(a.seq)
	ld.State = names.LDInTransit
	ld.Actor = nil
	ld.RNode, ld.RSeq = dst, 0
	// A deferred or group creation executed on its own birth node has a
	// SECOND descriptor here — the alias — pointing at the actor
	// directly; it must start forwarding too.
	if !a.alias.IsNil() && a.alias.Birth == n.id {
		if ald := n.arena.Get(a.alias.Seq); ald != nil && ald.State == names.LDLocal {
			ald.State = names.LDInTransit
			ald.Actor = nil
			ald.RNode, ald.RSeq = dst, 0
		}
	}

	b := a.behavior
	if c, ok := b.(Cloner); ok {
		b = c.CloneBehavior()
	}
	bundle := &migBundle{addr: a.addr, alias: a.alias, behavior: b, prog: prog, in: a.in, side: a.side}
	for {
		msg, ok := a.mailq.PopFront()
		if !ok {
			break
		}
		bundle.msgs = append(bundle.msgs, msg)
	}
	a.side = nil
	a.dead = true // the local husk; the identity lives on at dst

	n.incLive(prog, 1)
	n.emit(amnet.Packet{Handler: hMigrate, Dst: dst, VT: n.stamp(0), Payload: bundle})
}

// handleMigrate installs a migrated-in actor, re-registers its addresses,
// replays its queues, acknowledges the old home, and caches the new
// location at the birthplace(s).
func (n *node) handleMigrate(src amnet.NodeID, bundle *migBundle, vt float64) {
	n.syncTo(vt)
	n.charge(costMigrate)

	// An actor migrating back to its birth node must reclaim its DEFINING
	// descriptor: lookups by address go straight to that arena slot, so a
	// freshly allocated one would leave the defining slot as a stale
	// forwarder — and a forwarding cycle makes FIRs chase their own tail.
	var seq uint64
	var ld *names.LD
	if bundle.addr.Birth == n.id {
		if dld := n.arena.Get(bundle.addr.Seq); dld != nil {
			seq, ld = bundle.addr.Seq, dld
		}
	}
	// Migrating back to any node it lived on before: reuse the slot the
	// table still binds, so remote caches carrying that slot's address
	// stay valid and messages parked on it are not orphaned.
	if ld == nil {
		if old := n.table.Lookup(bundle.addr); old != 0 {
			if dld := n.arena.Get(old); dld != nil {
				seq, ld = old, dld
			}
		}
	}
	if ld == nil && !bundle.alias.IsNil() {
		if old := n.table.Lookup(bundle.alias); old != 0 {
			if dld := n.arena.Get(old); dld != nil {
				seq, ld = old, dld
			}
		}
	}
	if ld == nil {
		seq, ld = n.arena.Alloc()
	}
	a := &Actor{
		behavior: bundle.behavior,
		addr:     bundle.addr,
		alias:    bundle.alias,
		seq:      seq,
		migrate:  amnet.NoNode,
	}
	a.in, a.side = bundle.in, bundle.side
	held := ld.Held
	ld.State = names.LDLocal
	ld.Actor = a
	ld.Held = nil
	ld.FIRSent = false
	n.table.Bind(a.addr, seq)
	if !a.alias.IsNil() {
		n.table.Bind(a.alias, seq)
		// A co-located alias descriptor (deferred creation that ran
		// here) must point home again too.
		if a.alias.Birth == n.id {
			if ald := n.arena.Get(a.alias.Seq); ald != nil && ald != ld {
				held = append(held, ald.Held...)
				ald.State = names.LDLocal
				ald.Actor = a
				ald.Held = nil
				ald.FIRSent = false
			}
		}
	}
	// The bundle's mail was taken in turn at the old home, so it goes
	// first.  Whatever was parked on the reclaimed descriptors reached
	// this node since: it is deliverable right here, behind that mail and
	// in its own turn.
	for _, msg := range bundle.msgs {
		n.queue(a, msg)
	}
	for _, h := range held {
		switch v := h.(type) {
		case *Message:
			n.enqueueLocal(a, v)
		case firReq:
			n.stats.FIRServed++
			n.answerFIR(v, n.id, seq)
			n.freePath(v.path)
		}
	}
	n.stats.MigratedIn++
	n.trace(EvMigrateIn, a.addr, src)

	if a.npending() > 0 {
		// Constraints may evaluate differently than they did when these
		// were parked; give them a chance immediately.
		n.flushPending(a)
		if !a.dead && !a.queued && a.mailq.Len() > 0 {
			a.queued = true
			n.ready.Push(a, n.headVT(a))
		}
	}

	n.sendLoc(hMigrateAck, src, a.addr, n.id, seq)
	if a.addr.Birth != src && a.addr.Birth != n.id {
		n.sendCacheUpdate(a.addr.Birth, a.addr, n.id, seq)
	}
	// The alias's birthplace needs the update even when it IS the old
	// home (src): the ack above only names the ordinary address, and a
	// co-located alias descriptor forwards independently.
	if !a.alias.IsNil() && a.alias.Birth != n.id {
		n.sendCacheUpdate(a.alias.Birth, a.alias, n.id, seq)
	}
	n.flushPendingAddr(a.addr)
	if !a.alias.IsNil() {
		n.flushPendingAddr(a.alias)
	}
	n.decLiveProg(bundle.prog)
}
