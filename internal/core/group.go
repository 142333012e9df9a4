package core

import (
	"fmt"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Actor groups and broadcast (grpnew, § 2.2 and § 6.4).
//
// grpnew creates a group of actors with the same behavior template and
// returns a handle that identifies the group.  Creation is itself a
// broadcast: the request fans out along the binomial spanning tree and
// every node creates the members placed on it, so group creation costs
// O(log P) latency rather than O(N).  Member addresses are aliases whose
// descriptors are pre-allocated contiguously on the creating node, so the
// creator — or anyone it tells — can message members before they exist.
//
// A message broadcast to the group is replicated along the same tree and a
// copy is delivered to each member.  The local deliveries of one broadcast
// run consecutively as a single dispatcher task (the TAM-inspired
// quasi-dynamic scheduling of § 6.4), exploiting the temporal locality of
// logically related actors.

// groupEntry records a node's share of a group.
type groupEntry struct {
	g     Group
	idxs  []int  // member indices homed here
	addrs []Addr // their alias addresses
}

// groupCreate fans out along the spanning tree rooted at g.Birth.
type groupCreate struct {
	g    Group
	typ  TypeID
	args []any
	prog *Program
}

// bcastWork is one broadcast traveling the tree rooted at root.  It is
// shared read-only among every node it visits.
type bcastWork struct {
	g    Group
	root amnet.NodeID
	msg  *Message
}

// newGroup implements grpnew: allocate the member aliases, account the
// member creations, and start the creation fan-out from this node.
func (n *node) newGroup(t TypeID, count int, base amnet.NodeID, args []any, prog *Program) Group {
	if count <= 0 {
		panic(fmt.Sprintf("core: group size must be positive, got %d", count))
	}
	n.groupSeq++
	g := Group{
		ID:    uint64(n.id)<<40 | n.groupSeq,
		N:     count,
		Birth: n.id,
		Base:  base,
		Nodes: len(n.m.nodes),
		slot0: n.arena.AllocRange(count),
	}
	for i := 0; i < count; i++ {
		ld := n.arena.Get(names.MakeSeq(g.slot0+uint64(i), 0))
		ld.State = names.LDAliasPending
		ld.RNode = g.home(i)
	}
	n.incLive(prog, int64(count))
	n.charge(costCreateAlias * float64(count))
	n.handleGroupCreate(groupCreate{g: g, typ: t, args: args, prog: prog}, n.vclock)
	return g
}

// handleGroupCreate relays the creation along the tree and instantiates
// the members homed on this node.  vt is the request's virtual arrival
// time; each tree hop adds one network latency.
func (n *node) handleGroupCreate(gc groupCreate, vt float64) {
	p := len(n.m.nodes)
	n.treeBuf = amnet.TreeChildren(n.treeBuf[:0], gc.g.Birth, n.id, p)
	for _, c := range n.treeBuf {
		pkt := amnet.Packet{Handler: hGroupCreate, Dst: c, VT: vt + costNetLatency, Payload: gc}
		if n.m.relOn {
			// A lost fan-out packet strands one accounted creation per
			// member homed anywhere in the child's subtree.
			cnt := subtreeMembers(gc.g, gc.g.Birth, c, p)
			n.sequence(&pkt, relUnit{prog: gc.prog, live: cnt, letters: uint64(cnt)}, nil)
		}
		n.emit(pkt)
	}
	e := &groupEntry{g: gc.g}
	for i := gc.g.firstOn(n.id); i < gc.g.N; i += gc.g.Nodes {
		alias := gc.g.Member(i)
		args := make([]any, 0, len(gc.args)+2)
		args = append(args, i, gc.g)
		args = append(args, gc.args...)
		rec := n.newSpawn()
		rec.alias, rec.typ, rec.args, rec.vt, rec.prog = alias, gc.typ, args, vt, gc.prog
		n.instantiate(rec)
		e.idxs = append(e.idxs, i)
		e.addrs = append(e.addrs, alias)
	}
	n.groups[gc.g.ID] = e
	if casts := n.pendingCasts[gc.g.ID]; casts != nil {
		delete(n.pendingCasts, gc.g.ID)
		for _, pc := range casts {
			n.deliverBcastLocal(pc.bw, pc.vt)
		}
	}
}

// broadcast replicates msg to every member of g.
func (n *node) broadcast(g Group, msg *Message) {
	msg.shared = true
	n.stats.Broadcasts++
	n.trace(EvBroadcast, Nil, amnet.NoNode)
	n.charge(costLocalSend + float64(len(msg.Data))*costPerWord)
	n.incLive(msg.prog, int64(g.N))
	n.handleBcast(&bcastWork{g: g, root: n.id, msg: msg}, n.vclock)
}

// pendingCast parks a broadcast that raced ahead of its group's creation.
type pendingCast struct {
	bw *bcastWork
	vt float64
}

// handleBcast relays the broadcast to tree children, then delivers to the
// local members (or parks the cast until the group create arrives).  vt is
// the cast's virtual arrival time at this node.
func (n *node) handleBcast(bw *bcastWork, vt float64) {
	p := len(n.m.nodes)
	n.treeBuf = amnet.TreeChildren(n.treeBuf[:0], bw.root, n.id, p)
	hopVT := vt + costNetLatency + float64(len(bw.msg.Data))*costPerWord
	for _, c := range n.treeBuf {
		n.stats.BcastRelays++
		pkt := amnet.Packet{Handler: hGroupCast, Dst: c, VT: hopVT, Payload: bw}
		if n.m.relOn {
			// One accounted delivery per member in the child's subtree.
			cnt := subtreeMembers(bw.g, bw.root, c, p)
			n.sequence(&pkt, relUnit{prog: bw.msg.prog, live: cnt, letters: uint64(cnt)}, nil)
		}
		n.emit(pkt)
	}
	if _, known := n.groups[bw.g.ID]; !known {
		n.pendingCasts[bw.g.ID] = append(n.pendingCasts[bw.g.ID], pendingCast{bw: bw, vt: vt})
		return
	}
	n.deliverBcastLocal(bw, vt)
}

func (n *node) deliverBcastLocal(bw *bcastWork, vt float64) {
	e := n.groups[bw.g.ID]
	if e == nil || len(e.addrs) == 0 {
		return
	}
	n.ready.Push(bw, vt)
}

// runBcast delivers one broadcast to all local members consecutively —
// collective scheduling.  Members whose methods are enabled run back to
// back on this stack; the rest are enqueued normally.
func (n *node) runBcast(bw *bcastWork, vt float64) {
	e := n.groups[bw.g.ID]
	for _, addr := range e.addrs {
		n.deliverBcastMember(addr, bw.msg, vt)
	}
}

// deliverBcastMember routes one member's copy.  Each member gets a private
// clone of the traveling message (the shared original must not take
// per-destination stamps).  A member that is local, idle, and enabled runs
// its method immediately on this stack.
func (n *node) deliverBcastMember(addr Addr, msg *Message, vt float64) {
	clone := n.newMsg()
	*clone = *msg
	clone.shared = false
	clone.To = addr
	clone.vt = vt
	a := n.localActorFor(addr)
	if a == nil {
		// Member migrated away (or its creation was load-balanced
		// elsewhere): route the copy through the name service, which
		// keeps the later of the arrival stamp and this node's clock.
		n.sendMsg(clone)
		return
	}
	if a.dead {
		n.stats.DeadLetters++
		prog := clone.prog
		n.freeMsg(clone)
		n.decLiveProg(prog)
		return
	}
	if a.mailq.Empty() && n.enabled(a, clone.Sel) {
		n.invoke(a, clone)
		n.flushPending(a)
		return
	}
	n.enqueueLocal(a, clone)
}

// localActorFor resolves addr to a local actor, or nil.
func (n *node) localActorFor(addr Addr) *Actor {
	ld := n.arena.Get(n.seqFor(addr))
	if ld == nil || ld.State != names.LDLocal {
		return nil
	}
	return ld.Actor.(*Actor)
}
