package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// Per-pair order across forwarding hops (order.go).  The first two tests
// replay, step by step, the two interleavings that broke the order before
// letters were numbered; the rest pin the reorder hold as work.
//
// orderRig drives an unstarted machine's kernels from the test goroutine,
// as the allocation guards do: each step polls one node's inbox and runs
// what it queued, so the test fixes the order every inbox is read in.

type orderRig struct {
	t    *testing.T
	m    *Machine
	prog *Program
	got  []int // the letters the receiver ran, in the order it ran them
}

func newOrderRig(t *testing.T, nodes int) *orderRig {
	m, prog := allocMachine(t, nodes)
	return &orderRig{t: t, m: m, prog: prog}
}

// receiver creates, on node at, an actor that records the number of each
// selWork letter, migrates on selPing and dies on selStop.
func (r *orderRig) receiver(at int) Addr {
	return r.m.nodes[at].createLocal(&funcBehavior{f: func(ctx *Context, msg *Message) {
		switch msg.Sel {
		case selWork:
			r.got = append(r.got, msg.Int(0))
		case selPing:
			ctx.Migrate(msg.Int(0))
		case selStop:
			ctx.Die()
		}
	}}).addr
}

// send sends (sel, k) to `to` from node from, as a method there would.
func (r *orderRig) send(from int, to Addr, sel Selector, k int) {
	ctx := &r.m.nodes[from].ctx
	ctx.prog = r.prog
	ctx.Send(to, sel, k)
}

// step lets each node in turn read its inbox once and run what it queued.
func (r *orderRig) step(nodes ...int) {
	for _, id := range nodes {
		drainNode(r.m.nodes[id])
	}
}

// poll lets node id read its inbox without running what that queued; run
// runs its queued work without reading the inbox.
func (r *orderRig) poll(id int) { r.m.nodes[id].ep.PollAll() }

func (r *orderRig) run(id int) {
	n := r.m.nodes[id]
	for {
		tk, vt, ok := n.ready.PopKey()
		if !ok {
			return
		}
		n.execute(tk, vt)
	}
}

// migrate moves the receiver a from node from, where it lives, to node to.
func (r *orderRig) migrate(a Addr, from, to int) {
	r.send(from, a, selPing, to)
	r.step(from)
}

func (r *orderRig) want(letters ...int) {
	r.t.Helper()
	if !slices.Equal(r.got, letters) {
		r.t.Fatalf("the receiver ran letters %v, want %v", r.got, letters)
	}
}

// TestOrderActorReturnsToReRouter: node 1's inbox reads [letter 2,
// answer, migrate-in, 3, 4].  Letter 2 meets node 1's forwarder and, once
// the FIR answer lands, chases the receiver to node 0; the receiver comes
// back into the slot letter 2 left from, so 3 and 4 reach it directly
// while 2 is still on its way back.
func TestOrderActorReturnsToReRouter(t *testing.T) {
	r := newOrderRig(t, 3)
	a := r.receiver(1)
	r.send(2, a, selWork, 1) // routed via node 1, which caches back to node 2
	r.step(1, 2)
	r.migrate(a, 1, 0)
	r.step(0, 1) // node 1 takes the ack: it forwards to node 0 now
	r.send(2, a, selWork, 2)
	r.step(1)          // letter 2 waits on the forwarder; FIR to node 0
	r.step(0)          // node 0 answers: here
	r.migrate(a, 0, 1) // and the receiver leaves for node 1 at once
	r.step(1)          // the answer releases letter 2 toward node 0, then the receiver moves back in
	r.send(2, a, selWork, 3)
	r.send(2, a, selWork, 4)
	r.step(1) // 3 and 4 meet the receiver itself
	r.step(0) // letter 2 waits for the ack, then goes back to node 1
	r.step(1)
	r.want(1, 2, 3, 4)
}

// TestOrderLateReleaseToLeftNode: node 1 holds letters 2 and 3 until an
// FIR answer that says node 0, which the receiver has left for node 3;
// letter 4, sent later, reaches node 3 first by the fresh location.
func TestOrderLateReleaseToLeftNode(t *testing.T) {
	r := newOrderRig(t, 4)
	a := r.receiver(1)
	r.send(2, a, selWork, 1)
	r.step(1, 2)
	r.migrate(a, 1, 0)
	r.step(0, 1)
	r.send(2, a, selWork, 2)
	r.send(2, a, selWork, 3)
	r.step(1)          // 2 and 3 wait on node 1's forwarder; FIR to node 0
	r.step(0)          // node 0 answers: here
	r.migrate(a, 0, 3) // the receiver leaves for node 3
	r.step(3)          // node 3 installs it and tells node 1, behind the answer
	r.step(1)          // the late answer sends 2 and 3 to node 0; the update points node 1 at node 3
	r.send(2, a, selWork, 4)
	r.step(1) // 4 waits on the forwarder; FIR to node 3
	r.step(3)
	r.step(1) // 4 goes to node 3
	r.step(3) // and reaches the receiver
	r.step(0) // 2 and 3 meet node 0's forwarder; FIR to node 3
	r.step(3)
	r.step(0)
	r.step(3)
	r.want(1, 2, 3, 4)
}

// TestOrderBundleMailBeforeParked: the receiver moves back to node 1 with
// letter 2 still in its mail queue, while letter 3, sent later, waits on
// node 1's forwarder.  The bundle's mail was taken in turn at node 0, so
// it runs before what the reclaimed descriptor parked.
func TestOrderBundleMailBeforeParked(t *testing.T) {
	r := newOrderRig(t, 3)
	a := r.receiver(1)
	r.send(2, a, selWork, 1)
	r.step(1, 2)
	r.migrate(a, 1, 0)
	r.step(0, 1)
	r.send(2, a, selWork, 2)
	r.step(1) // letter 2 waits on the forwarder; FIR to node 0
	r.step(0)
	r.step(1) // the answer sends letter 2 on to node 0
	r.send(0, a, selPing, 1)
	r.poll(0) // letter 2 joins the receiver's queue behind the ping
	r.send(2, a, selWork, 3)
	r.poll(1) // node 2's cache is stale: letter 3 waits on node 1's forwarder
	r.run(0)  // the receiver leaves for node 1 with letter 2 in its bundle
	r.step(1)
	r.step(0, 1)
	r.want(1, 2, 3)
}

// skipLetter makes node from's next letter to a the one after next, as if
// a letter had been sent and lost: what follows waits for it for good.
func skipLetter(n *node, a Addr) {
	ld := n.arena.Get(n.seqFor(a))
	ld.Out = nextNum(ld.Out)
}

// TestOrderHeldLettersDieWithActor: a letter held out of turn is work
// like any queued letter — when its actor dies it becomes a dead letter
// and its unit retires.
func TestOrderHeldLettersDieWithActor(t *testing.T) {
	r := newOrderRig(t, 3)
	a := r.receiver(1)
	r.send(2, a, selWork, 1)
	r.step(1, 2)
	skipLetter(r.m.nodes[2], a)
	r.send(2, a, selWork, 3)
	r.step(1)
	n1 := r.m.nodes[1]
	act := n1.localActorFor(a)
	if n1.stats.Reordered != 1 || !strings.Contains(r.m.dumpLocked(), "holds letter 3 from node 2") {
		t.Fatalf("letter 3 is not held out of turn (reordered=%d):\n%s", n1.stats.Reordered, r.m.dumpLocked())
	}
	r.send(1, a, selStop, 0) // node 1 has only ever delivered locally: unnumbered
	r.step(1)
	r.want(1)
	if n1.stats.DeadLetters != 1 || act.side != nil {
		t.Fatalf("dead letters %d, reorder state %+v; want the held letter dropped", n1.stats.DeadLetters, act.side)
	}
	for _, n := range r.m.nodes {
		n.settle()
	}
	if live := r.prog.live.Load(); live != 1 { // allocMachine's base unit
		t.Fatalf("program live count %d after the actor died, want 1", live)
	}
}

// TestOrderStallShowsGapAndRunEndsIt: a stream with a gap stalls the
// machine, the dump names the letter the stream waits for, and the run's
// end clears the hold and every count, so the next run starts clean: its
// letters arrive and its work ledger closes at zero.
func TestOrderStallShowsGapAndRunEndsIt(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2, StallTimeout: 100 * time.Millisecond})
	var got []int
	recvT := m.RegisterType("recv", func([]any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) { got = append(got, msg.Int(0)) }}
	})
	var a Addr
	_, err := m.Run(func(ctx *Context) {
		a = ctx.NewOn(1, recvT)
		ctx.Send(a, selWork, 1)
		skipLetter(ctx.n, a)
		ctx.Send(a, selWork, 3)
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if d := m.DebugDump(); !strings.Contains(d, "holds letter 3 from node 0") || !strings.Contains(d, "waiting for letter 2") {
		t.Fatalf("the stall dump does not show the gap:\n%s", d)
	}
	run(t, m, func(ctx *Context) {
		for k := 1; k <= 3; k++ {
			ctx.Send(a, selWork, k)
		}
	})
	if !slices.Equal(got, []int{1, 1, 2, 3}) {
		t.Fatalf("the receiver ran %v, want [1 1 2 3]", got)
	}
	if live := m.live.sum(); live != 0 {
		t.Fatalf("live gauge %d after the second run, want 0", live)
	}
}

// TestOrderLocalHopUnnumbered: letters to an actor that has always lived
// beside its senders carry no number and take no turn; once one left the
// node, the descriptor numbers every later letter, local ones too.
func TestOrderLocalHopUnnumbered(t *testing.T) {
	r := newOrderRig(t, 2)
	a := r.receiver(0)
	r.send(0, a, selWork, 1)
	n0 := r.m.nodes[0]
	ld := n0.arena.Get(a.Seq)
	if ld.Out != 0 || n0.ready.Len() != 1 {
		t.Fatalf("a local letter was numbered (out=%d)", ld.Out)
	}
	r.step(0)
	r.migrate(a, 0, 1)
	r.step(1, 0)
	r.send(0, a, selWork, 2) // through the forwarder: numbered
	r.step(1)
	r.migrate(a, 1, 0)
	r.step(0)
	r.send(0, a, selWork, 3) // local again, and numbered after 2
	if ld.Out != 2 {
		t.Fatalf("descriptor numbered %d letters, want 2", ld.Out)
	}
	r.step(0)
	r.want(1, 2, 3)
}
