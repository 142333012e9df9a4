package core

import "hal/internal/amnet"

// Packet word-encoding for the kernel's small control payloads.
//
// CMAM messages carry a handler plus four words; the kernel's most
// frequent control packets — cache updates, alias bindings, FIR hops, and
// scalar replies — fit that budget exactly, so boxing them through
// Packet.Payload (one heap allocation plus an interface dispatch per
// packet) is pure overhead on the hot path the paper prices in Tables
// 2–3.  This file is the single place the encodings live: every encoder
// has its decoder next to it, and the send helpers below are the only
// call sites that build these packets.
//
// Layouts (all unconditional — the receiver never guesses):
//
//	location triple (hCacheUpdate, hFIRFound, hMigrateAck, hAliasBind):
//	  U0 = addr.Seq   U1 = Birth<<32|Hint   U2 = node   U3 = seq
//	FIR (hFIR, when the path fits; else boxed firReq):
//	  U0 = addr.Seq   U1 = Birth<<32|Hint
//	  U2 = hops[0..3] (16 bits each)   U3 = hops[4..6] | count<<48
//	reply (hReply; one-word values only, else boxed replyEnvelope):
//	  U0 = jc   U1 = slot | tag<<32   U2 = value bits
//	  (tag and bits are wordOf's, types.go: the same tv* tag and word a
//	  message argument of that value carries)
//	  Payload = the reply's *Program, a pointer that boxes nothing
//	  (across processes, payloadwire.go's wtProg)
//
// Node ids round-trip through uint32 so NoNode (-1) survives; FIR hop
// slots are 16-bit, wide enough for any partition this simulator runs.

// packNodes packs two node ids into one word (a in the high half).
func packNodes(a, b amnet.NodeID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// unpackNodes is the inverse of packNodes.
func unpackNodes(w uint64) (a, b amnet.NodeID) {
	return amnet.NodeID(int32(uint32(w >> 32))), amnet.NodeID(int32(uint32(w)))
}

// locPacket word-encodes a location triple: addr is known to live on node
// under descriptor slot seq.
func locPacket(h amnet.HandlerID, dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) amnet.Packet {
	return amnet.Packet{
		Handler: h,
		Dst:     dst,
		U0:      addr.Seq,
		U1:      packNodes(addr.Birth, addr.Hint),
		U2:      uint64(uint32(node)),
		U3:      seq,
	}
}

// decodeLoc is the inverse of locPacket.
func decodeLoc(p amnet.Packet) (addr Addr, node amnet.NodeID, seq uint64) {
	birth, hint := unpackNodes(p.U1)
	return Addr{Birth: birth, Hint: hint, Seq: p.U0},
		amnet.NodeID(int32(uint32(p.U2))), p.U3
}

// emit puts p on the wire in order and now, after settling the ledger: a
// packet is the only way a unit of work (or any word of what this node did)
// reaches another node, so whoever reads it finds every unit it carries
// already counted.
func (n *node) emit(p amnet.Packet) {
	n.settle()
	n.ep.Send(p)
}

// sendLoc transmits a word-encoded location triple as a control packet.
func (n *node) sendLoc(h amnet.HandlerID, dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) {
	n.emit(locPacket(h, dst, addr, node, seq))
}

// sendCacheUpdate tells dst that addr lives on node under descriptor slot
// seq — the one place the cache-update encoding is built.
func (n *node) sendCacheUpdate(dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) {
	n.sendLoc(hCacheUpdate, dst, addr, node, seq)
}

// --- FIR encoding ------------------------------------------------------

// firMaxHops is the longest forwarding path that word-encodes; longer
// chains (or node ids past 16 bits) fall back to a boxed firReq.
const firMaxHops = 7

// encodeFIRPacket word-encodes an FIR if its path fits.
func encodeFIRPacket(dst amnet.NodeID, addr Addr, path []amnet.NodeID) (amnet.Packet, bool) {
	if len(path) > firMaxHops {
		return amnet.Packet{}, false
	}
	var u2, u3 uint64
	for i, h := range path {
		if h < 0 || h >= 1<<16 {
			return amnet.Packet{}, false
		}
		if i < 4 {
			u2 |= uint64(uint16(h)) << (16 * i)
		} else {
			u3 |= uint64(uint16(h)) << (16 * (i - 4))
		}
	}
	u3 |= uint64(len(path)) << 48
	return amnet.Packet{
		Handler: hFIR,
		Dst:     dst,
		U0:      addr.Seq,
		U1:      packNodes(addr.Birth, addr.Hint),
		U2:      u2,
		U3:      u3,
	}, true
}

// decodeFIRWords is the pure inverse of encodeFIRPacket: it unpacks the
// word form into path (appending the decoded hops) and returns the
// reconstructed request.
func decodeFIRWords(p amnet.Packet, path []amnet.NodeID) firReq {
	addr, _, _ := decodeLoc(p)
	cnt := int(p.U3 >> 48)
	for i := 0; i < cnt; i++ {
		if i < 4 {
			path = append(path, amnet.NodeID(uint16(p.U2>>(16*i))))
		} else {
			path = append(path, amnet.NodeID(uint16(p.U3>>(16*(i-4)))))
		}
	}
	return firReq{addr: addr, path: path}
}

// decodeFIR reconstructs a firReq from either wire form.  A word-encoded
// path is copied into a pooled slice owned by this node; a boxed path
// arrives with the packet and this node owns it from here on.  Either
// way the caller must consume the request exactly once (relay, answer, or
// park) and free-or-transfer its path.
func (n *node) decodeFIR(p amnet.Packet) firReq {
	if req, ok := p.Payload.(firReq); ok {
		return req
	}
	return decodeFIRWords(p, n.newPath())
}

// sendFIR transmits one FIR hop, consuming req: a word-encoded path is
// copied into the packet and freed here; a boxed path transfers to the
// packet (and on to the receiver).
func (n *node) sendFIR(dst amnet.NodeID, req firReq) {
	if p, ok := encodeFIRPacket(dst, req.addr, req.path); ok {
		n.emit(p)
		n.freePath(req.path)
		return
	}
	n.emit(amnet.Packet{Handler: hFIR, Dst: dst, Payload: req})
}

// --- per-node control-plane arenas --------------------------------------
//
// The node.msgFree freelist pattern, extended to the two other
// per-control-packet allocations: spawn records and FIR path slices.
// Recycling is OWNERSHIP-BASED: whichever node consumes the object frees
// it into its own pool (objects may be allocated on one node and freed on
// another — a pool entry is just memory, not node state, and the handoff
// through the network channel orders the accesses).  A freed object is
// poisoned, so breaking the rule fails loudly in any test that runs it: a
// freed spawn record is zeroed and a freed path holds NoNode in every hop,
// which no live path does.  Reading a freed path sends to a node that does
// not exist, and freeing either object twice panics.

const (
	spawnPoolCap = 1024
	pathPoolCap  = 256
)

// newSpawn returns a spawn record from the node-local pool.
func (n *node) newSpawn() *spawnRecord {
	if k := len(n.spawnFree); k > 0 {
		rec := n.spawnFree[k-1]
		n.spawnFree = n.spawnFree[:k-1]
		return rec
	}
	return &spawnRecord{}
}

// freeSpawn recycles a consumed spawn record.  A live record always names
// its alias, and arena seq 0 is never handed out, so a zero alias.Seq
// marks a record that was already freed.
func (n *node) freeSpawn(rec *spawnRecord) {
	if rec.alias.Seq == 0 {
		panic("core: spawn record freed twice")
	}
	*rec = spawnRecord{}
	if len(n.spawnFree) < spawnPoolCap {
		n.spawnFree = append(n.spawnFree, rec)
	}
}

// newPath returns an empty FIR path slice from the node-local pool.
func (n *node) newPath() []amnet.NodeID {
	if k := len(n.pathFree); k > 0 {
		p := n.pathFree[k-1]
		n.pathFree = n.pathFree[:k-1]
		return p
	}
	return make([]amnet.NodeID, 0, firMaxHops+1)
}

// freePath recycles a consumed FIR path, poisoning its hops.
func (n *node) freePath(p []amnet.NodeID) {
	if cap(p) == 0 {
		return
	}
	if len(p) > 0 && p[0] == amnet.NoNode {
		panic("core: FIR path freed twice")
	}
	for i := range p {
		p[i] = amnet.NoNode
	}
	if len(n.pathFree) < pathPoolCap {
		n.pathFree = append(n.pathFree, p[:0])
	}
}
