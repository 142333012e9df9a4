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
	"math"
	"reflect"

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
// delivered to slot Slot of continuation JC on node Node.  (JC first: the
// two 32-bit fields then share a word and the descriptor is 16 bytes of
// Message's 144, see TestMessageSize.)
type ReplyTo struct {
	JC   uint64
	Node amnet.NodeID
	Slot int32
}

// Valid reports whether r names a continuation slot.
func (r ReplyTo) Valid() bool { return r.Node != amnet.NoNode && r.JC != 0 }

// invalidReply is the zero reply descriptor.
var invalidReply = ReplyTo{Node: amnet.NoNode}

// Message is an actor message.  All HAL messages carry a destination mail
// address and a method selector; call/return messages additionally carry
// a continuation address (Reply).  The arguments are read with NArgs, Arg
// and the typed accessors; Data is an optional bulk payload that rides the
// three-phase transfer protocol when it exceeds a segment.
//
// An argument is a member of the kernel's value set (below) and is stored
// by value: a list of at most four one-word values lives in the struct
// itself (tags, w), any other list in a private overflow list (more).  The
// layout is budgeted: one more word moves Message from the 144- to the
// 192-byte size class (TestMessageSize).
//
// A Message must be treated as immutable once sent: broadcasts share one
// Message among every member of a group.
type Message struct {
	To  Addr
	Sel Selector
	// tags[i] is inline argument i's value tag (a tv* constant) and w[i]
	// its word.
	tags [maxInline]byte
	Data []float64
	// Reply is the continuation slot a server's ctx.Reply fills.
	Reply ReplyTo

	// origin/originLD identify the sending node and its cached locality
	// descriptor so the receiving node can send the descriptor's memory
	// address back ("cached in the newly allocated locality
	// descriptor", § 4.1).
	originLD uint64
	// dstSeq is the receiver-node LD slot when the sender has it cached;
	// it lets the receiving node manager skip its name table.
	dstSeq uint64
	// vt is the virtual time at which the message last left a PE
	// (sender side) or arrived (receiver side); dispatch synchronizes
	// the executing node's virtual clock to it.
	vt float64
	// prog is the program whose work this message is (§ 3: several
	// programs share the kernels; each quiesces independently).
	prog *Program
	w    [maxInline]uint64
	// more, when set, holds every argument and the inline words are
	// unused.  Read-only once the message is sent: a broadcast's clones
	// share it.
	more   *[]any
	origin amnet.NodeID
	// routed marks a delivery that did not go directly to the actor's
	// node (first send via the birthplace, or a release after FIR); the
	// receiving node then propagates its LD address back to origin.
	routed bool
	// shared marks a broadcast message delivered to many actors; shared
	// messages are never pooled or mutated.
	shared bool
	nargs  uint8 // inline arguments
}

// The kernel's value set is closed: nil, int, int64, uint64, float64, bool,
// Selector and TypeID (one word each), and Addr, string, Group, ReplyTo,
// []float64 and the node-local Join — the tv* tags of payloadwire.go.
// Whatever a send or a reply is given is converted on
// entry by a type switch that copies the value out of its interface; the
// interface itself is never stored, so escape analysis leaves the caller's
// boxes on the caller's stack (`go build -gcflags=-m=2`: "parameter args
// leaks to {heap} with derefs=2" — what the boxes point at, not the boxes;
// the 0-allocs guards of alloc_test.go hold it there).  The analysis tags
// the parameter, not the path: one arm that keeps the interface, or hands
// it to fmt, and every caller allocates again.

// maxInline is the number of argument words a Message stores in itself.
const maxInline = 4

// wordTags has bit t set when a value tagged t is one word.
const wordTags = 1<<tvNil | 1<<tvInt | 1<<tvInt64 | 1<<tvUint64 | 1<<tvFloat64 | 1<<tvBool | 1<<tvSelector | 1<<tvTypeID

func isWordTag(tag byte) bool { return wordTags>>tag&1 != 0 }

// Ref passes a value of a type outside the kernel's value set as a message
// argument, a reply or a Join.Set value: ctx.Send(to, sel, Ref{V: x}).  The receiver reads x
// itself (msg.Arg(i), slots[i]), not the wrapper.  x moves by reference
// inside one process and as its gob encoding between processes, so its
// concrete type is registered with gob.Register in every process.
type Ref struct{ V any }

// wordOf converts a one-word member of the value set to its tag and bits;
// ok is false for everything else.
func wordOf(a any) (tag byte, w uint64, ok bool) {
	switch x := a.(type) {
	case nil:
		return tvNil, 0, true
	case int:
		return tvInt, uint64(x), true
	case int64:
		return tvInt64, uint64(x), true
	case uint64:
		return tvUint64, x, true
	case float64:
		return tvFloat64, math.Float64bits(x), true
	case bool:
		if x {
			return tvBool, 1, true
		}
		return tvBool, 0, true
	case Selector:
		return tvSelector, uint64(uint32(x)), true
	case TypeID:
		return tvTypeID, uint64(uint32(x)), true
	}
	return 0, 0, false
}

// wordValue is the inverse of wordOf (nil for a tag that is no word's).
func wordValue(tag byte, w uint64) any {
	switch tag {
	case tvInt:
		return int(w)
	case tvInt64:
		return int64(w)
	case tvUint64:
		return w
	case tvFloat64:
		return math.Float64frombits(w)
	case tvBool:
		return w != 0
	case tvSelector:
		return Selector(uint32(w))
	case tvTypeID:
		return TypeID(uint32(w))
	}
	return nil
}

// ownValue returns a's value in an interface of the kernel's own: a member
// of the set is copied out and boxed afresh, a Ref gives up its V, and
// anything else is a program bug.
func ownValue(a any) any {
	if tag, w, ok := wordOf(a); ok {
		return wordValue(tag, w)
	}
	switch x := a.(type) {
	case Addr:
		return x
	case string:
		return x
	case []float64:
		return x
	case Group:
		return x
	case ReplyTo:
		return x
	case Join:
		return x
	case Ref:
		return x.V
	}
	// Not fmt's %T: handing a to fmt makes every caller's boxes escape.
	panic("core: a value of type " + reflect.TypeOf(a).String() +
		" is outside the kernel's value set; pass it as Ref{V: x}")
}

// setArgs stores args in a message that has none yet.  (Small enough to
// inline: a send without arguments pays one compare.)
func (m *Message) setArgs(args []any) {
	if len(args) != 0 {
		m.storeArgs(args)
	}
}

// storeArgs puts args in the inline words when they fit, else by value in
// a private overflow list.
func (m *Message) storeArgs(args []any) {
	if len(args) <= maxInline && m.setInline(args) {
		return
	}
	m.tags, m.w = [maxInline]byte{}, [maxInline]uint64{}
	list := make([]any, len(args))
	for i, a := range args {
		list[i] = ownValue(a)
	}
	m.more = &list
}

// setInline fills the inline words from args and reports whether they
// fit: one-word values only (payloadReader's inlineArgs is the same loop
// over a list on the wire).
func (m *Message) setInline(args []any) bool {
	for i, a := range args {
		tag, w, ok := wordOf(a)
		if !ok {
			return false
		}
		m.tags[i], m.w[i] = tag, w
	}
	m.nargs = uint8(len(args))
	return true
}

// NArgs returns the number of arguments.
func (m *Message) NArgs() int {
	if m.more != nil {
		return len(*m.more)
	}
	return int(m.nargs)
}

// Arg returns argument i (a Ref's V for an argument passed as a Ref).  It
// panics when i is out of range.  The typed accessors below read a scalar
// without boxing it.
func (m *Message) Arg(i int) any {
	if m.more != nil {
		return (*m.more)[i]
	}
	return wordValue(m.tags[:m.nargs][i], m.w[i])
}

// argAs is the typed accessors' slow path: it panics with a descriptive
// message on type mismatch, as a misdelivered argument is a program bug.
func argAs[T any](m *Message, i int) T {
	v, ok := m.Arg(i).(T)
	if !ok {
		panic(fmt.Sprintf("core: message %v arg %d is %T, want %T", m.Sel, i, m.Arg(i), v))
	}
	return v
}

// Int returns argument i as an int.
func (m *Message) Int(i int) int {
	if uint(i) < maxInline && m.tags[i] == tvInt { // unused tags are tvNil
		return int(m.w[i])
	}
	return argAs[int](m, i)
}

// Float returns argument i as a float64.
func (m *Message) Float(i int) float64 {
	if uint(i) < maxInline && m.tags[i] == tvFloat64 {
		return math.Float64frombits(m.w[i])
	}
	return argAs[float64](m, i)
}

// Addr returns argument i as a mail address.
func (m *Message) Addr(i int) Addr { return argAs[Addr](m, i) }

// Group returns argument i as a group handle.
func (m *Message) Group(i int) Group { return argAs[Group](m, i) }

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
