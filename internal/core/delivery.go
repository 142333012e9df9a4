package core

import (
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
)

// This file implements the message send and delivery algorithm of Fig. 3,
// including the forwarding-information-request (FIR) repair protocol of
// § 4.3.
//
// Sender side: consult only the local name table.  If the receiver is
// local, enqueue directly.  If a remote locality descriptor address is
// cached, send directly with that address so the receiving node manager
// skips its name table.  Otherwise allocate a best-guess descriptor and
// route the message via the node encoded in the mail address (birthplace,
// or for an alias the creation-target node); the receiving node sends its
// descriptor's address back to be cached.
//
// Receiver side: a node manager asked to deliver to an actor that has
// migrated away does not forward the whole message; it holds the message
// and sends a small FIR along the forwarding chain.  When the FIR reaches
// the actor, the location is propagated back to every chain node, which
// update their tables and release held messages directly to the new home.

// sendMsg routes msg, whose live unit the caller has already accounted.
func (n *node) sendMsg(msg *Message) {
	addr := msg.To
	var seq uint64
	if addr.Birth == n.id && (!addr.IsAlias() || !n.m.cfg.DisableLDCache) {
		// The defining descriptor lives in our arena; its slot is the
		// address ("the use of real addresses in mail addresses").
		// (An ALIAS descriptor at the requesting node is a location
		// cache, so the caching ablation routes around it too.)
		seq = addr.Seq
	} else if n.m.cfg.DisableLDCache {
		// Ablation: no sender-side caching; everything routes via the
		// address's hint node, and with originLD zero no descriptor
		// address comes back.
		n.routeVia(addr.Hint, msg, 0)
		return
	} else {
		seq = n.table.Lookup(addr)
	}

	if seq == 0 {
		// First send to this address: allocate a descriptor to cache
		// the reply, then route via the hint node.
		seq, ld := n.arena.Alloc()
		ld.State = names.LDUnresolved
		ld.RNode = addr.Hint
		n.table.Bind(addr, seq)
		n.number(msg, ld, seq)
		n.routeVia(addr.Hint, msg, seq)
		return
	}

	ld := n.arena.Get(seq)
	if ld == nil {
		// Stale binding for a freed descriptor: the actor died here.
		n.table.Unbind(addr, seq)
		n.dropMsg(msg)
		return
	}
	if ld.State != names.LDLocal || ld.Out != 0 {
		// Once a letter has left the node through this descriptor, a
		// later one may reach the actor first: number them all (order.go).
		n.number(msg, ld, seq)
	}
	switch ld.State {
	case names.LDLocal:
		n.stats.SendsLocal++
		n.charge(costLocalSend)
		msg.vt = maxf(msg.vt, n.vclock)
		n.trace(EvSendLocal, addr, amnet.NoNode)
		n.enqueueLocal(ld.Actor.(*Actor), msg)
	case names.LDRemote:
		if ld.RNode == amnet.NoNode { // known dead
			n.dropMsg(msg)
			return
		}
		n.sendDirect(ld, msg, seq)
	case names.LDUnresolved, names.LDAliasPending:
		n.routeVia(ld.RNode, msg, seq)
	case names.LDInTransit:
		// We are the old home of a migrating actor; hold until the new
		// location is acknowledged.
		n.hold(ld, msg)
	default: // LDDead, LDFree
		n.dropMsg(msg)
	}
}

// sendDirect transmits msg straight to the receiver's node with the cached
// descriptor address, so the receiving node manager skips its name table.
func (n *node) sendDirect(ld *names.LD, msg *Message, senderSeq uint64) {
	msg.setSrc(n.id, false)
	msg.originLD, msg.dstSeq = senderSeq, ld.RSeq
	n.stats.SendsRemote++
	n.charge(costRemoteSend)
	msg.vt = maxf(msg.vt, n.vclock)
	n.trace(EvSendRemote, msg.To, ld.RNode)
	n.netSendMsg(ld.RNode, msg)
}

// routeVia transmits msg to the best-guess node by address; the delivery
// there is "routed", so the receiver propagates its descriptor address
// back to us (cache update).
func (n *node) routeVia(via amnet.NodeID, msg *Message, senderSeq uint64) {
	msg.setSrc(n.id, true)
	msg.originLD, msg.dstSeq = senderSeq, 0
	n.charge(costRemoteSend)
	msg.vt = maxf(msg.vt, n.vclock)
	if via == n.id {
		n.deliverHere(msg)
		return
	}
	n.stats.SendsRouted++
	n.trace(EvSendRouted, msg.To, via)
	n.netSendMsg(via, msg)
}

// netSendMsg puts msg on the wire; payloads beyond a segment ride the
// three-phase bulk protocol (§ 6.5).
// netSendMsg's virtual timing: the packet's arrival stamp is the message's
// last-departure time plus one hop plus the payload transfer time, so
// forwarding chains accumulate latency naturally.
func (n *node) netSendMsg(dst amnet.NodeID, msg *Message) {
	vt := msg.vt + costNetLatency + float64(len(msg.Data))*costPerWord
	if len(msg.Data) > amnet.SegWords {
		data := msg.Data
		msg.Data = nil
		if n.m.cfg.Flow == amnet.FlowEager {
			// Without flow control the eager injection stalls this PE
			// for the whole transfer (Table 1's pathology).
			n.charge(float64(len(data)) * costPerWord)
		}
		n.settle()
		n.ep.BulkSend(dst, data, amnet.Packet{Handler: hDeliverMsg, VT: vt, Payload: msg})
		return
	}
	n.emit(amnet.Packet{Handler: hDeliverMsg, Dst: dst, VT: vt, Payload: msg})
}

// hold parks msg on an unresolved descriptor.
func (n *node) hold(ld *names.LD, msg *Message) {
	ld.Held = append(ld.Held, msg)
	n.stats.HeldMessages++
}

// deliverHere is the receiving node manager's half of Fig. 3.
func (n *node) deliverHere(msg *Message) {
	if msg.dstSeq != 0 {
		// Direct delivery: the sender cached our descriptor's address.
		ld := n.arena.Get(msg.dstSeq)
		if ld == nil {
			n.dropMsg(msg) // descriptor freed: actor died
			return
		}
		n.deliverVia(ld, msg.dstSeq, msg)
		return
	}
	// Routed delivery: find the actor in the name table — the receiver-
	// side work that § 4.1's descriptor-address caching eliminates.  The
	// consultation delays THIS delivery, so it extends the message's
	// arrival stamp (the PE catches up to it at dispatch).
	msg.vt += costLookup
	addr := msg.To
	seq := n.seqFor(addr)
	if seq == 0 {
		// Not registered yet: the creation (or group create) is still
		// in flight from a third party's perspective.  Hold by address.
		n.pendingAddr[addr] = append(n.pendingAddr[addr], msg)
		n.stats.HeldMessages++
		return
	}
	ld := n.arena.Get(seq)
	if ld == nil {
		n.dropMsg(msg)
		return
	}
	n.deliverVia(ld, seq, msg)
}

// deliverVia completes delivery through a resolved descriptor.
func (n *node) deliverVia(ld *names.LD, seq uint64, msg *Message) {
	switch ld.State {
	case names.LDLocal:
		if msg.routed() {
			n.cacheBack(msg, seq)
		}
		n.enqueueLocal(ld.Actor.(*Actor), msg)
	case names.LDRemote:
		if ld.RNode == amnet.NoNode {
			n.dropMsg(msg)
			return
		}
		if n.m.cfg.NaiveForwarding {
			// Ablation: push the whole message one hop along the
			// chain.  No FIR, no cache repair — the sender stays stale
			// and bulk payloads cross every hop.
			n.stats.Forwarded++
			msg.dstSeq = ld.RSeq
			msg.src &^= srcRouted
			n.netSendMsg(ld.RNode, msg)
			return
		}
		// The actor has moved on.  Hold the message and locate the
		// actor with an FIR instead of forwarding the whole message.
		n.hold(ld, msg)
		n.maybeSendFIR(ld, msg.To)
	case names.LDInTransit, names.LDUnresolved, names.LDAliasPending:
		n.hold(ld, msg)
	default:
		n.dropMsg(msg)
	}
}

// cacheBack propagates this node's descriptor address for msg.To back to
// the original sender, to be cached in the descriptor it allocated
// (§ 4.1).
func (n *node) cacheBack(msg *Message, seq uint64) {
	origin := msg.origin()
	if msg.originLD == 0 || origin == n.id {
		return
	}
	n.stats.CacheUpdates++
	n.sendCacheUpdate(origin, msg.To, n.id, seq)
}

// applyCacheUpdate installs a remote descriptor address learned from a
// cache-update, alias-bind, migration notice, or FIR answer, and releases
// any held traffic.  A found.node of NoNode marks the actor dead.
//
// A node can hold TWO descriptors for one address: the defining slot (the
// address itself, on its birth node) and a residence slot bound in the
// name table while the actor lived here (stale remote caches still
// deliver straight to it).  Both must learn the new location, or messages
// parked on one of them are stranded.
func (n *node) applyCacheUpdate(addr Addr, node amnet.NodeID, rseq uint64) {
	var seqs [2]uint64
	k := 0
	if addr.Birth == n.id {
		seqs[k] = addr.Seq
		k++
	}
	if s := n.table.Lookup(addr); s != 0 && (k == 0 || s != seqs[0]) {
		seqs[k] = s
		k++
	}
	for _, seq := range seqs[:k] {
		ld := n.arena.Get(seq)
		if ld == nil || ld.State == names.LDLocal {
			continue
		}
		ld.State = names.LDRemote
		ld.RNode, ld.RSeq = node, rseq
		if ld.FIRSent {
			// Repair round trip: from the FIR leaving to the descriptor
			// learning the actor's location (whichever update lands first).
			//halvet:allowwallclock FIRRepair is a host-microsecond latency histogram (observability plane, not simulation state)
			n.stats.FIRRepair.Observe(float64(time.Now().UnixNano()-ld.FIRSentAt) / 1e3)
		}
		ld.FIRSent = false
		n.releaseHeld(ld, addr)
	}
}

// firReq is a forwarding information request parked on a descriptor or
// traveling a forwarding chain.  path lists every node that has held
// messages waiting on this request, in visit order.
type firReq struct {
	addr Addr
	path []amnet.NodeID
}

// maybeSendFIR launches an FIR along the forwarding chain unless one is
// already outstanding for this descriptor.
func (n *node) maybeSendFIR(ld *names.LD, addr Addr) {
	if ld.FIRSent || ld.RNode == amnet.NoNode {
		return
	}
	ld.FIRSent = true
	//halvet:allowwallclock FIRSentAt anchors the FIRRepair host-latency histogram, not any simulation decision
	ld.FIRSentAt = time.Now().UnixNano()
	n.stats.FIRSent++
	n.trace(EvFIRSent, addr, ld.RNode)
	n.sendFIR(ld.RNode, firReq{addr: addr, path: append(n.newPath(), n.id)})
}

// handleFIR processes a forwarding information request at this node.
func (n *node) handleFIR(req firReq) {
	addr := req.addr
	seq := n.seqFor(addr)
	ld := n.arena.Get(seq)
	if ld == nil || seq == 0 {
		// No trace of the actor: it died (or never existed).  Tell the
		// whole chain so held messages become dead letters.
		n.answerFIR(req, amnet.NoNode, 0)
		n.freePath(req.path)
		return
	}
	switch ld.State {
	case names.LDLocal:
		// Found: propagate the location back along the chain.
		n.stats.FIRServed++
		n.trace(EvFIRServed, addr, amnet.NoNode)
		n.answerFIR(req, n.id, seq)
		n.freePath(req.path)
	case names.LDRemote:
		if ld.RNode == amnet.NoNode {
			n.answerFIR(req, amnet.NoNode, 0)
			n.freePath(req.path)
			return
		}
		// Relay one hop further along the migration history.
		n.stats.FIRRelayed++
		req.path = append(req.path, n.id)
		n.sendFIR(ld.RNode, req)
	case names.LDInTransit, names.LDUnresolved, names.LDAliasPending:
		// We don't know the answer yet either; park the request, it is
		// re-relayed when this descriptor resolves.
		ld.Held = append(ld.Held, req)
	default: // LDDead, LDFree: the chain's held messages are dead letters
		n.answerFIR(req, amnet.NoNode, 0)
		n.freePath(req.path)
	}
}

// answerFIR sends the located (or dead) address to every chain node.  The
// request's path is still the caller's to free.
func (n *node) answerFIR(req firReq, node amnet.NodeID, seq uint64) {
	for _, p := range req.path {
		if p == n.id {
			n.applyCacheUpdate(req.addr, node, seq)
			continue
		}
		n.sendLoc(hFIRFound, p, req.addr, node, seq)
	}
}

// releaseHeld flushes everything parked on a descriptor after it resolves
// to Remote (with a known descriptor address), Local, or dead.
func (n *node) releaseHeld(ld *names.LD, addr Addr) {
	if len(ld.Held) == 0 {
		return
	}
	held := ld.Held
	ld.Held = nil
	for _, h := range held {
		switch v := h.(type) {
		case *Message:
			switch {
			case ld.State == names.LDLocal:
				n.enqueueLocal(ld.Actor.(*Actor), v)
			case ld.RNode == amnet.NoNode:
				n.dropMsg(v)
			default:
				// Send directly to the discovered home; mark routed so
				// the receiver refreshes the ORIGINAL sender's cache
				// (v.origin is preserved from the first hop) — unless
				// that is us: this descriptor has just learned it.
				v.dstSeq = ld.RSeq
				if v.origin() != n.id {
					v.src |= srcRouted
				}
				n.netSendMsg(ld.RNode, v)
			}
		case firReq:
			switch {
			case ld.State == names.LDLocal:
				n.stats.FIRServed++
				n.answerFIR(v, n.id, n.seqFor(addr))
				n.freePath(v.path)
			case ld.RNode == amnet.NoNode:
				n.answerFIR(v, amnet.NoNode, 0)
				n.freePath(v.path)
			default:
				n.stats.FIRRelayed++
				v.path = append(v.path, n.id)
				n.sendFIR(ld.RNode, v)
			}
		}
	}
}

// seqFor returns this node's descriptor slot for addr: the address itself
// on its birth node, the name table's binding elsewhere (0 if none).
func (n *node) seqFor(addr Addr) uint64 {
	if addr.Birth == n.id {
		return addr.Seq
	}
	return n.table.Lookup(addr)
}
