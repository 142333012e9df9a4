package core

import (
	"fmt"

	"hal/internal/amnet"
	"hal/internal/slotmap"
)

// Join continuations (§ 6.2, Fig. 4).
//
// The HAL compiler transforms a blocking request into an asynchronous send
// whose continuation is separated out; sends with no mutual dependence
// share one continuation.  The runtime represents such a continuation as a
// join continuation: a counter, a function, the creating actor, and a set
// of argument slots.  Replies fill empty slots and decrement the counter;
// when it reaches zero the function runs with the slots as arguments.
// This API is exactly what the compiler would emit, which is how programs
// written against this kernel express call/return.

// JoinFunc is the code a join continuation runs once every slot is full.
// It executes on the creating actor's node with slots in declaration
// order.  ctx.Self reports the creating actor's address; Become, Migrate,
// and Die are not available inside a continuation.  Like Receive's ctx and
// msg, slots must not be retained beyond the call: the kernel clears and
// reuses it.
type JoinFunc func(ctx *Context, slots []any)

// joinCont is Fig. 4's structure: counter, function, creator, slots.
type joinCont struct {
	counter int32
	fn      JoinFunc
	creator Addr
	slots   []any
	seq     uint64
	readyVT float64 // virtual time the last slot filled
	prog    *Program
}

// Join is a handle to a pending join continuation, used to address reply
// slots when issuing requests.
type Join struct {
	node *node
	seq  uint64
}

// jcArena stores a node's pending continuations, and the ones that have
// run: a continuation is born and dies on one node, so runJoin returns it
// (slots cleared, capacity kept) to free and newJoin takes it from there.
// Replies find a continuation through m's generation-checked key, never by
// pointer, so a late reply to a recycled one is the dead letter it always
// was.
type jcArena struct {
	m    *slotmap.Map[*joinCont]
	free []*joinCont
}

const joinPoolCap = 1024

func (ja *jcArena) init() { ja.m = slotmap.New[*joinCont]() }

// newJoin allocates a continuation expecting nslots fills.
func (n *node) newJoin(nslots int, creator Addr, fn JoinFunc, prog *Program) Join {
	if nslots <= 0 {
		panic(fmt.Sprintf("core: join continuation needs at least 1 slot, got %d", nslots))
	}
	if fn == nil {
		panic("core: nil join continuation function")
	}
	var j *joinCont
	if k := len(n.jc.free); k > 0 {
		j = n.jc.free[k-1]
		n.jc.free = n.jc.free[:k-1]
	} else {
		j = &joinCont{}
	}
	if cap(j.slots) < nslots {
		j.slots = make([]any, nslots)
	}
	j.counter, j.fn, j.creator, j.slots, j.prog = int32(nslots), fn, creator, j.slots[:nslots], prog
	j.seq = n.jc.m.Insert(j)
	return Join{node: n, seq: j.seq}
}

// fillSlot stores v in slot and, on the final fill, schedules the
// continuation.  external reports whether the fill consumed an accounted
// reply message; the completing fill's unit transfers to the continuation
// task, so the counts balance.
func (n *node) fillSlot(jcSeq uint64, slot int32, v any, external bool, vt float64, unitProg *Program) {
	j, ok := n.jc.m.Get(jcSeq)
	if !ok {
		// Stale continuation (double reply): drop.
		if external {
			n.stats.DeadLetters++
			n.decLiveProg(unitProg)
		}
		return
	}
	if slot < 0 || int(slot) >= len(j.slots) {
		panic(fmt.Sprintf("core: join slot %d out of range [0,%d)", slot, len(j.slots)))
	}
	if j.counter <= 0 {
		panic("core: join continuation overfilled")
	}
	j.slots[slot] = v
	j.counter--
	n.stats.Replies++
	if vt > j.readyVT {
		j.readyVT = vt
	}
	if j.counter == 0 {
		// The continuation task is a fresh unit of the JOIN's program;
		// the completing reply's unit (possibly another program's)
		// retires normally.  Increment before decrement so a program's
		// count cannot graze zero mid-handoff.
		n.incLive(j.prog, 1)
		n.ready.Push(j, j.readyVT)
		if external {
			n.decLiveProg(unitProg)
		}
		return
	}
	if external {
		n.decLiveProg(unitProg)
	}
}

// runJoin executes a completed continuation on this node's stack.
func (n *node) runJoin(j *joinCont) {
	n.syncTo(j.readyVT)
	n.charge(costDispatch)
	ctx := &n.ctx
	prevSelf, prevAddr, prevProg := ctx.self, ctx.selfAddr, ctx.prog
	ctx.self, ctx.selfAddr, ctx.prog = nil, j.creator, j.prog
	j.fn(ctx, j.slots)
	ctx.self, ctx.selfAddr, ctx.prog = prevSelf, prevAddr, prevProg
	n.jc.m.Delete(j.seq)
	n.stats.JoinsRun++
	n.decLiveProg(j.prog)
	clear(j.slots)
	*j = joinCont{slots: j.slots}
	if len(n.jc.free) < joinPoolCap {
		n.jc.free = append(n.jc.free, j)
	}
}

// replyEnvelope carries a reply value that does not word-encode, with its
// work-accounting program (the boxed fallback of the hReply wire format in
// wire.go).
type replyEnvelope struct {
	v    any
	prog *Program
}

// applyReply handles an incoming reply.
func (n *node) applyReply(jcSeq uint64, slot int32, v any, prog *Program, vt float64) {
	n.fillSlot(jcSeq, slot, v, true, vt, prog)
}

// sendReply routes a reply value to the requester's continuation slot.
func (n *node) sendReply(rt ReplyTo, v any, prog *Program) {
	n.charge(costReply)
	n.incLive(prog, 1)
	if rt.Node == n.id {
		n.applyReply(rt.JC, rt.Slot, ownValue(v), prog, n.vclock)
		return
	}
	pkt := amnet.Packet{
		Handler: hReply,
		Dst:     rt.Node,
		U0:      rt.JC,
		U1:      uint64(uint32(rt.Slot)),
		VT:      n.stamp(0),
	}
	tag, w, ok := wordOf(v)
	if !ok {
		pkt.Payload = replyEnvelope{v: ownValue(v), prog: prog}
		n.emit(pkt)
		return
	}
	pkt.U1 |= uint64(tag) << 32
	pkt.U2 = w
	if prog != nil {
		pkt.U3 = prog.id
	}
	// The one packet the kernel stages (amnet.SendBatched): a burst of
	// replies leaves one node for one requester when a barrier or a join
	// releases, and nothing routes by what a reply says.  Everything else,
	// location repair above all, is emitted now: a repair that sat in a
	// staging buffer would let routed traffic keep paying the forwarding
	// chain it shortens.
	n.settle()
	n.ep.SendBatched(pkt)
}
