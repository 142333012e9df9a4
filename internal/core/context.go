package core

import (
	"fmt"
	"math/rand"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Context is the actor interface exported to programs — the analog of the
// paper's runtime interface exported to the HAL compiler.  One Context
// exists per node; the kernel threads it through every method invocation.
// Receive implementations must not retain it.
type Context struct {
	n        *node
	self     *Actor // nil inside a join continuation
	selfAddr Addr
	prog     *Program // the program the current method belongs to
	depth    int      // stack-based scheduling depth (SendFast)
}

// Self returns the current actor's ordinary mail address.  Inside a join
// continuation it returns the creating actor's address.
func (c *Context) Self() Addr { return c.selfAddr }

// Node returns the node this method is executing on.
func (c *Context) Node() int { return int(c.n.id) }

// Nodes returns the partition size.
func (c *Context) Nodes() int { return len(c.n.m.nodes) }

// Rand returns the node-local deterministic RNG (placement decisions,
// synthetic workloads).
func (c *Context) Rand() *rand.Rand { return c.n.rng }

// --- communication -----------------------------------------------------

// Send delivers an asynchronous message: the generic send mechanism of
// Fig. 3 (name-table consultation, direct or routed transmission).  Every
// argument is a member of the kernel's value set (types.go) or a Ref; the
// message takes a copy of each, so the call allocates nothing for scalars.
func (c *Context) Send(to Addr, sel Selector, args ...any) {
	c.sendInternal(to, sel, args, nil, invalidReply)
}

// SendData is Send with a bulk float payload; payloads beyond one segment
// ride the flow-controlled three-phase transfer protocol.
func (c *Context) SendData(to Addr, sel Selector, data []float64, args ...any) {
	c.sendInternal(to, sel, args, data, invalidReply)
}

func (c *Context) sendInternal(to Addr, sel Selector, args []any, data []float64, reply ReplyTo) {
	if to.IsNil() {
		panic("core: send to nil address")
	}
	n := c.n
	msg := n.newMsg()
	msg.To, msg.Sel, msg.Data, msg.Reply = to, sel, data, reply
	msg.setArgs(args)
	msg.prog = c.prog
	n.incLive(c.prog, 1)
	n.sendMsg(msg)
}

// SendFast is the compiler-controlled fast path (§ 6.3): a locality check
// using only local information, an enabledness check, and — when both pass
// and the stack budget allows — static dispatch of the method directly on
// the caller's stack, skipping the mail queue and the dispatcher.  It
// falls back to the generic send otherwise.  It reports whether the fast
// path ran.
//
// Like the compiler-emitted code it models, SendFast may run the method
// before messages already queued for the receiver; use it where ordering
// with queued traffic is immaterial (or gated by constraints).
func (c *Context) SendFast(to Addr, sel Selector, args ...any) bool {
	n := c.n
	if c.depth < n.m.cfg.FastPathDepth {
		if ld := n.arena.Get(n.seqFor(to)); ld != nil && ld.State == names.LDLocal {
			a := ld.Actor.(*Actor)
			if !a.dead && n.enabled(a, sel) {
				n.stats.SendsFast++
				n.charge(costFastSend)
				msg := n.newMsg()
				msg.To, msg.Sel, msg.Reply = to, sel, invalidReply
				msg.setArgs(args)
				msg.prog = c.prog
				c.invokeInline(a, msg)
				return true
			}
		}
	}
	n.stats.SendsFastMiss++
	c.Send(to, sel, args...)
	return false
}

// invokeInline runs a method on the current stack (no live accounting —
// the message was never queued).
func (c *Context) invokeInline(a *Actor, msg *Message) {
	n := c.n
	prog := msg.prog
	prevSelf, prevAddr, prevProg := c.self, c.selfAddr, c.prog
	c.self, c.selfAddr, c.prog = a, a.addr, prog
	c.depth++
	a.behavior.Receive(c, msg)
	c.depth--
	c.self, c.selfAddr, c.prog = prevSelf, prevAddr, prevProg

	n.stats.Delivered++
	n.freeMsg(msg)
	n.afterMethod(a, prog)
	if !a.dead {
		n.flushPending(a)
	}
}

// --- creation ----------------------------------------------------------

// New creates an actor with the given behavior value on this node and
// returns its mail address — the paper's local `new`.
func (c *Context) New(b Behavior) Addr {
	if b == nil {
		panic("core: New with nil behavior")
	}
	return c.n.createLocal(b).addr
}

// NewType creates an actor of a registered type on this node.
func (c *Context) NewType(t TypeID, args ...any) Addr {
	return c.n.createLocal(c.n.m.construct(t, args)).addr
}

// NewOn requests creation of an actor of a registered type on the given
// node and returns its alias immediately; the requester continues without
// waiting for the remote creation (§ 5's latency hiding).
func (c *Context) NewOn(nodeID int, t TypeID, args ...any) Addr {
	n := c.n
	if nodeID < 0 || nodeID >= len(n.m.nodes) {
		panic(fmt.Sprintf("core: NewOn node %d out of range [0,%d)", nodeID, len(n.m.nodes)))
	}
	if amnet.NodeID(nodeID) == n.id {
		return c.NewType(t, args...)
	}
	if t <= 0 || int(t) >= len(n.m.types) {
		panic(fmt.Sprintf("core: unknown behavior type %d", t))
	}
	return n.createRemote(amnet.NodeID(nodeID), t, args, c.prog)
}

// NewAuto defers the creation to the dynamic load balancer: the record
// enters this node's spawn queue, where it is executed locally or stolen
// by an idle node.  The returned alias is valid immediately either way.
func (c *Context) NewAuto(t TypeID, args ...any) Addr {
	n := c.n
	if t <= 0 || int(t) >= len(n.m.types) {
		panic(fmt.Sprintf("core: unknown behavior type %d", t))
	}
	return n.createDeferred(t, args, c.prog)
}

// NewGroup creates a group of count actors of a registered type (grpnew).
// Member i runs on node (base+i) mod P and its constructor receives the
// member index as args[0] and the group handle as args[1], followed by
// the supplied args — so members can address their peers (e.g. grid
// neighbors) without a second initialization round.  The handle (and
// every member address) is usable immediately.
func (c *Context) NewGroup(t TypeID, count, base int, args ...any) Group {
	n := c.n
	if t <= 0 || int(t) >= len(n.m.types) {
		panic(fmt.Sprintf("core: unknown behavior type %d", t))
	}
	p := len(n.m.nodes)
	if base < 0 || base >= p {
		panic(fmt.Sprintf("core: group base node %d out of range [0,%d)", base, p))
	}
	return n.newGroup(t, count, amnet.NodeID(base), args, c.prog)
}

// Broadcast replicates a message to every member of g along the spanning
// tree.
func (c *Context) Broadcast(g Group, sel Selector, args ...any) {
	c.BroadcastData(g, sel, nil, args...)
}

// BroadcastData is Broadcast with a bulk payload.
func (c *Context) BroadcastData(g Group, sel Selector, data []float64, args ...any) {
	msg := &Message{Sel: sel, Data: data, Reply: invalidReply, prog: c.prog}
	msg.setArgs(args)
	c.n.broadcast(g, msg)
}

// --- call/return -------------------------------------------------------

// NewJoin allocates a join continuation with nslots reply slots running fn
// when full (§ 6.2).  Slots the caller already knows are filled with Set.
func (c *Context) NewJoin(nslots int, fn JoinFunc) Join {
	return c.n.newJoin(nslots, c.selfAddr, fn, c.prog)
}

// Set fills a slot with a locally known value: what Reply accepts, a member
// of the kernel's value set or a Ref.
func (j Join) Set(slot int, v any) {
	j.node.fillSlot(j.seq, int32(slot), ownValue(v), false, j.node.vclock, nil)
}

// Request sends a call/return message whose reply fills slot of j — the
// compiled form of HAL's `request`, which the compiler transforms into an
// asynchronous send plus a continuation.
func (c *Context) Request(to Addr, sel Selector, j Join, slot int, args ...any) {
	if j.node != c.n {
		panic("core: Request with a join continuation from another node")
	}
	c.sendInternal(to, sel, args, nil, ReplyTo{Node: c.n.id, JC: j.seq, Slot: int32(slot)})
}

// RequestData is Request with a bulk payload.
func (c *Context) RequestData(to Addr, sel Selector, j Join, slot int, data []float64, args ...any) {
	if j.node != c.n {
		panic("core: Request with a join continuation from another node")
	}
	c.sendInternal(to, sel, args, data, ReplyTo{Node: c.n.id, JC: j.seq, Slot: int32(slot)})
}

// Reply sends v — a member of the kernel's value set, or a Ref — to the
// requester's continuation slot (HAL's `reply`).  Replying to a message
// that was not a request is a silent no-op, matching the model's "dropped
// on the floor" semantics.
func (c *Context) Reply(msg *Message, v any) {
	if !msg.Reply.Valid() {
		return
	}
	c.n.sendReply(msg.Reply, v, c.prog)
}

// --- actor state -------------------------------------------------------

// Become replaces the actor's behavior for subsequent messages, effective
// after the current method returns.
func (c *Context) Become(b Behavior) {
	if c.self == nil {
		panic("core: Become outside an actor method")
	}
	if b == nil {
		panic("core: Become with nil behavior")
	}
	c.self.become = b
}

// Die terminates the actor after the current method: remaining and future
// messages become dead letters and its name-server state is freed.
func (c *Context) Die() {
	if c.self == nil {
		panic("core: Die outside an actor method")
	}
	c.self.dead = true
}

// Migrate moves the actor to nodeID after the current method returns.
// The actor keeps its mail address; the name service forwards and repairs
// as described in § 4.3.
func (c *Context) Migrate(nodeID int) {
	if c.self == nil {
		panic("core: Migrate outside an actor method")
	}
	if nodeID < 0 || nodeID >= len(c.n.m.nodes) {
		panic(fmt.Sprintf("core: Migrate node %d out of range [0,%d)", nodeID, len(c.n.m.nodes)))
	}
	c.self.migrate = amnet.NodeID(nodeID)
}

// --- front end ---------------------------------------------------------

// Exit records the current program's result; its Wait (and Run) returns v
// once the program quiesces.  Use ExitNow to complete without draining.
func (c *Context) Exit(v any) {
	c.prog.setResult(v)
	if d := c.n.m.dist; d != nil && !d.leader {
		// The result must reach the leader's Wait; it rides every
		// report until the leader confirms (dist.go), so a lost frame
		// cannot strand it.
		d.boxResult(c.prog, v, false)
	}
}

// ExitNow completes the current program immediately; its remaining
// in-flight messages are abandoned.  Prefer Exit.
func (c *Context) ExitNow(v any) {
	c.prog.setResult(v)
	if d := c.n.m.dist; d != nil && !d.leader {
		d.boxResult(c.prog, v, true)
		return // completion is the leader's call; it forces done on receipt
	}
	c.prog.finishProg() // on a multi-process leader, also tells the workers
}

// Printf writes to the front end's output stream (the partition manager
// handles all I/O requests from the node kernels).
func (c *Context) Printf(format string, args ...any) {
	c.n.m.frontPrintf(format, args...)
}
