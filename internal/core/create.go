package core

import (
	"hal/internal/amnet"
	"hal/internal/names"
)

// Remote actor creation with alias-based latency hiding (§ 5).
//
// An actor that requests a remote creation may continue its computation as
// long as it can uniquely identify the new actor.  The kernel therefore
// allocates an ALIAS — a mail address whose birthplace is the REQUESTING
// node and whose hint field encodes the node where the actor will actually
// be created — injects the creation request, and returns immediately; no
// context switch, no waiting for the remote node.  The creating node
// registers the new actor under the alias and sends the locality
// descriptor's address back as background processing.

// Alias-bind and cache-update notices ("the memory address of the
// locality descriptor in the receiving node is sent back") are pure
// location triples and travel word-encoded — see wire.go.

// newAlias allocates an alias descriptor for a creation targeted at hint.
func (n *node) newAlias(hint amnet.NodeID) Addr {
	seq, ld := n.arena.Alloc()
	ld.State = names.LDAliasPending
	ld.RNode = hint
	return Addr{Birth: n.id, Hint: hint, Seq: seq}
}

// createRemote issues a creation request to node dst and returns the new
// actor's alias immediately (the paper's 5.83 µs path; the 20.83 µs
// creation happens on dst when the request arrives).
func (n *node) createRemote(dst amnet.NodeID, t TypeID, args []any, prog *Program) Addr {
	alias := n.newAlias(dst)
	n.stats.CreatesRemote++
	n.charge(costCreateAlias)
	n.incLive(prog, 1)
	rec := n.newSpawn()
	rec.alias, rec.typ, rec.args, rec.prog = alias, t, args, prog
	n.sendCtl(amnet.Packet{Handler: hCreate, Dst: dst, VT: n.stamp(0), Payload: rec}, prog, 1, 1)
	return alias
}

// createDeferred queues a creation in the local spawn queue, where an idle
// node's steal may claim it (dynamic load balancing); the alias makes the
// new actor addressable wherever it ends up.
func (n *node) createDeferred(t TypeID, args []any, prog *Program) Addr {
	alias := n.newAlias(n.id)
	n.stats.SpawnsQueued++
	n.charge(costCreateAlias)
	n.incLive(prog, 1)
	rec := n.newSpawn()
	rec.alias, rec.typ, rec.args, rec.vt, rec.prog = alias, t, args, n.vclock, prog
	n.spawnq.PushBack(rec)
	return alias
}

// resolveAlias installs the creation answer on the alias's descriptor and
// releases held traffic.
func (n *node) resolveAlias(ld *names.LD, alias Addr, node amnet.NodeID, seq uint64) {
	if node == n.id {
		// Deferred creation executed at home: point the alias at the
		// local actor directly.
		if ald := n.arena.Get(seq); ald != nil && ald.State == names.LDLocal {
			ld.State = names.LDLocal
			ld.Actor = ald.Actor
			ld.FIRSent = false
			n.releaseHeld(ld, alias)
			return
		}
	}
	ld.State = names.LDRemote
	ld.RNode, ld.RSeq = node, seq
	ld.FIRSent = false
	n.releaseHeld(ld, alias)
}
