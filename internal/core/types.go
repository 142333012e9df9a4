// Package core implements the HAL runtime kernel — the paper's primary
// contribution.  A Machine simulates a CM-5 partition: P node kernels
// (one goroutine each, package amnet) plus a front end.  Each kernel is a
// passive substrate on which actors execute: it drains the network, pops
// an actor off the dispatcher's ready queue, and runs one method to
// completion on the node's stack, so scheduling needs no context switch.
//
// The kernel provides:
//
//   - the distributed name server (locality descriptors, per-node name
//     tables, the Fig. 3 message send & delivery algorithm, FIR repair),
//   - remote actor creation with alias-based latency hiding (§ 5),
//   - local synchronization constraints via pending queues (§ 6.1),
//   - join continuations for the call/return abstraction (§ 6.2, Fig. 4),
//   - compiler-controlled intra-node scheduling: SendFast runs a local
//     enabled method directly on the caller's stack (§ 6.3),
//   - actor groups with broadcast over a binomial spanning tree and
//     collective scheduling (§ 6.4),
//   - minimal flow control for bulk transfers (§ 6.5, package amnet),
//   - actor migration and receiver-initiated random-polling dynamic load
//     balancing.
package core

import (
	"fmt"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Selector names a method of a behavior, the actor analog of a message
// name.  Programs define their own selector constants.
type Selector int32

// TypeID identifies a registered behavior type — the analog of a class in
// a dynamically loaded HAL executable.  TypeIDs are only meaningful within
// the Machine that issued them.
type TypeID int32

// Addr re-exports the mail address type for users of this package.
type Addr = names.Addr

// Nil is the invalid mail address.
var Nil = names.Nil

// Behavior is an actor behavior: state plus a method dispatcher.  Receive
// is invoked by the kernel with one message at a time; within Receive the
// actor may send messages, create actors, become a new behavior, migrate,
// or die.  Receive must not block and must not retain ctx or msg beyond
// the call.
type Behavior interface {
	Receive(ctx *Context, msg *Message)
}

// Constrained is implemented by behaviors with local synchronization
// constraints (disabling conditions).  When Enabled reports false for a
// message's selector, the kernel moves the message to the actor's pending
// queue and retries it after each subsequent method execution, as in
// § 6.1 of the paper.
type Constrained interface {
	Behavior
	Enabled(sel Selector) bool
}

// Cloner is implemented by behaviors that must be deep-copied when they
// cross a node boundary (remote creation by value or migration).  Without
// it the behavior value is handed off by reference — safe only if the
// sender never touches it again, which the kernel's callers guarantee by
// convention (the simulated nodes share one address space).
type Cloner interface {
	Behavior
	CloneBehavior() Behavior
}

// ReplyTo addresses a join-continuation slot: the reply to a request is
// delivered to slot Slot of continuation JC on node Node.
type ReplyTo struct {
	Node amnet.NodeID
	JC   uint64
	Slot int32
}

// Valid reports whether r names a continuation slot.
func (r ReplyTo) Valid() bool { return r.Node != amnet.NoNode && r.JC != 0 }

// invalidReply is the zero reply descriptor.
var invalidReply = ReplyTo{Node: amnet.NoNode}

// Message is an actor message.  All HAL messages carry a destination mail
// address and a method selector; call/return messages additionally carry
// a continuation address (Reply).  Args are small scalar arguments; Data
// is an optional bulk payload that rides the three-phase transfer protocol
// when it exceeds a segment.
//
// A Message must be treated as immutable once sent: broadcasts share one
// Message among every member of a group.
type Message struct {
	To   Addr
	Sel  Selector
	Args []any
	Data []float64
	// Reply is the continuation slot a server's ctx.Reply fills.
	Reply ReplyTo

	// origin/originLD identify the sending node and its cached locality
	// descriptor so the receiving node can send the descriptor's memory
	// address back ("cached in the newly allocated locality
	// descriptor", § 4.1).
	origin   amnet.NodeID
	originLD uint64
	// dstSeq is the receiver-node LD slot when the sender has it cached;
	// it lets the receiving node manager skip its name table.
	dstSeq uint64
	// routed marks a delivery that did not go directly to the actor's
	// node (first send via the birthplace, or a release after FIR); the
	// receiving node then propagates its LD address back to origin.
	routed bool
	// shared marks a broadcast message delivered to many actors; shared
	// messages are never pooled or mutated.
	shared bool
	// vt is the virtual time at which the message last left a PE
	// (sender side) or arrived (receiver side); dispatch synchronizes
	// the executing node's virtual clock to it.
	vt float64
	// prog is the program whose work this message is (§ 3: several
	// programs share the kernels; each quiesces independently).
	prog *Program
}

// Int returns argument i as an int.  It panics with a descriptive message
// on type mismatch, as a misdelivered argument is a program bug.
func (m *Message) Int(i int) int {
	v, ok := m.Args[i].(int)
	if !ok {
		panic(fmt.Sprintf("core: message %v arg %d is %T, want int", m.Sel, i, m.Args[i]))
	}
	return v
}

// Float returns argument i as a float64.
func (m *Message) Float(i int) float64 {
	v, ok := m.Args[i].(float64)
	if !ok {
		panic(fmt.Sprintf("core: message %v arg %d is %T, want float64", m.Sel, i, m.Args[i]))
	}
	return v
}

// Addr returns argument i as a mail address.
func (m *Message) Addr(i int) Addr {
	v, ok := m.Args[i].(Addr)
	if !ok {
		panic(fmt.Sprintf("core: message %v arg %d is %T, want Addr", m.Sel, i, m.Args[i]))
	}
	return v
}

// Group returns argument i as a group handle.
func (m *Message) Group(i int) Group {
	v, ok := m.Args[i].(Group)
	if !ok {
		panic(fmt.Sprintf("core: message %v arg %d is %T, want Group", m.Sel, i, m.Args[i]))
	}
	return v
}

// Group is a handle for a set of actors created together with grpnew.
// Member i's alias address is computable from the handle alone (see
// Member), so a group can be used for point-to-point sends immediately
// after creation, before any member actually exists — the same latency
// hiding aliases give single creations.
type Group struct {
	// ID is unique within the machine.
	ID uint64
	// N is the member count.
	N int
	// Birth is the creating node, where the member alias descriptors
	// live.
	Birth amnet.NodeID
	// Base: member i is placed on node (Base + i) mod Nodes.
	Base amnet.NodeID
	// Nodes is the machine size the group was created on.
	Nodes int
	// slot0 is the first of N consecutive alias arena slots on Birth.
	slot0 uint64
}

// Member returns member i's alias mail address.
func (g Group) Member(i int) Addr {
	if i < 0 || i >= g.N {
		panic(fmt.Sprintf("core: group member %d out of range [0,%d)", i, g.N))
	}
	return Addr{Birth: g.Birth, Hint: g.home(i), Seq: names.MakeSeq(g.slot0+uint64(i), 0)}
}

func (g Group) home(i int) amnet.NodeID { return amnet.NodeID((int(g.Base) + i) % g.Nodes) }

// firstOn inverts home: node x is home to members firstOn(x),
// firstOn(x)+Nodes, … below N (to none when firstOn(x) >= N).
func (g Group) firstOn(x amnet.NodeID) int {
	return (int(x) - int(g.Base) + g.Nodes) % g.Nodes
}

// membersOn counts the members homed on node x.
func (g Group) membersOn(x amnet.NodeID) int64 {
	i0 := g.firstOn(x)
	if i0 >= g.N {
		return 0
	}
	return int64((g.N - i0 + g.Nodes - 1) / g.Nodes)
}

// spawnRecord is a deferred (load-balanceable) or remote creation request.
type spawnRecord struct {
	alias Addr
	typ   TypeID
	args  []any
	vt    float64 // virtual time the creation becomes available
	prog  *Program
}
