package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// Tests of the node-local work ledger (program.go): what a node created
// and retired is published only when it settles, and these pin the three
// things that must survive that — no program completes early, every
// program completes, and a local hop settles nothing.

// spinUntil yields until cond holds; it reports false after a deadline so
// a broken kernel fails the test instead of hanging it.
func spinUntil(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestLedgerNoFalseZero: a continuation that is its program's only live
// unit sends one message to another node and then stays on the processor
// until the receiver has run it, retired it, settled and parked.  The
// receiver's -1 is published by then; the program must still be open,
// which it is only if the sender's +1 was published before the packet
// left.  (Delete the settle in emit and this goes red.)
func TestLedgerNoFalseZero(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	var ran atomic.Bool
	sink := m.RegisterType("sink", func([]any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selEcho:
				ctx.Reply(msg, 0)
			case selWork:
				ran.Store(true)
			}
		}}
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var returned atomic.Bool
	prog, err := m.Launch(func(ctx *Context) {
		a := ctx.NewOn(1, sink)
		j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
			ctx.Send(a, selWork)
			// ran is set inside the method; node 1 cannot count as parked
			// again until it has retired that method and settled.
			if !spinUntil(func() bool { return ran.Load() && m.parked.shards[1].v.Load() == 1 }) {
				t.Error("node 1 never ran the message and parked")
			}
			if ctx.prog.isDone() {
				t.Error("program completed while its only live unit was still running")
			}
			returned.Store(true)
		})
		ctx.Request(a, selEcho, j, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Wait(); err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Error("Wait returned before the last method did")
	}
}

// TestLedgerTwoProgramsInterleave: two programs stream messages at actors
// on the same node, each message causing a local send there, so that
// node's ledger changes program over and over.  Both must complete and
// the machine-wide gauge must end at zero.
func TestLedgerTwoProgramsInterleave(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	var handled atomic.Int64
	worker := m.RegisterType("worker", func([]any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			handled.Add(1)
			if msg.Sel == selWork {
				ctx.Send(ctx.Self(), selInc)
			}
		}}
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	const msgs = 500
	root := func(ctx *Context) {
		a := ctx.NewOn(1, worker)
		for i := 0; i < msgs; i++ {
			ctx.Send(a, selWork)
		}
	}
	var progs [2]*Program
	for i := range progs {
		p, err := m.Launch(root)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	for i, p := range progs {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	m.Shutdown()
	if got := handled.Load(); got != 2*2*msgs {
		t.Errorf("handled %d messages, want %d", got, 2*2*msgs)
	}
	if live := m.live.sum(); live != 0 {
		t.Errorf("live gauge = %d after both programs completed, want 0", live)
	}
}

// TestLedgerDistLocalRing: on a two-process machine the follower runs a
// ring whose every hop nets to zero in its ledger while the leader idles.
// The leader decides termination from the cumulative counters the ledger
// publishes (Mattern); its Wait must not return before the last hop.
func TestLedgerDistLocalRing(t *testing.T) {
	const hops = 200_000
	var done atomic.Int64
	rig := startDistRig(t, 2, 2, nil, func(m *Machine) {
		m.RegisterType("ring", func([]any) Behavior {
			next := Nil
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				if next.IsNil() { // first message: close a ring of four behind us
					next = ctx.Self()
					for i := 0; i < 3; i++ {
						to := next
						next = ctx.New(BehaviorFunc(func(ctx *Context, msg *Message) {
							done.Add(1)
							if left := msg.Int(0); left > 1 {
								ctx.Send(to, selWork, left-1)
							}
						}))
					}
				}
				done.Add(1)
				if left := msg.Int(0); left > 1 {
					ctx.Send(next, selWork, left-1)
				}
			})
		})
	})
	typ := rig.leader().TypeByName("ring")
	if _, err := runOn(rig, t, func(ctx *Context) {
		ctx.Send(ctx.NewOn(1, typ), selWork, hops)
	}); err != nil {
		t.Fatalf("after %d hops: %v", done.Load(), err)
	}
	if got := done.Load(); got != hops {
		t.Errorf("leader's Wait returned after %d of %d hops", got, hops)
	}
	rig.shutdown(t)
}

// TestLedgerLocalHopSettlesPerEpoch: a chain of self-sends on one node
// publishes its accounting once per run-loop epoch, not once per hop.
func TestLedgerLocalHopSettlesPerEpoch(t *testing.T) {
	const sends = 10_000
	m := testMachine(t, Config{Nodes: 1})
	run(t, m, func(ctx *Context) {
		a := ctx.New(BehaviorFunc(func(ctx *Context, msg *Message) {
			if left := msg.Int(0); left > 1 {
				ctx.Send(ctx.Self(), selWork, left-1)
			}
		}))
		ctx.Send(a, selWork, sends)
	})
	n := m.nodes[0]
	if got := n.stats.Delivered; got < sends {
		t.Fatalf("delivered %d messages, want at least %d", got, sends)
	}
	if limit := sends/64 + 8; n.led.settles > limit {
		t.Errorf("%d sends settled %d times, want at most %d", sends, n.led.settles, limit)
	}
}

// TestLedgerRestartAfterExitNow: a run cut short by ExitNow leaves work
// queued and ledgers unsettled; neither may leak into the next Start.
func TestLedgerRestartAfterExitNow(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	sink := m.RegisterType("sink", func([]any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.Sel == selWork {
				ctx.Send(ctx.Self(), selInc)
			}
		}}
	})
	if _, err := m.Run(func(ctx *Context) {
		a, b := ctx.NewOn(1, sink), ctx.NewOn(0, sink)
		for i := 0; i < 100; i++ {
			ctx.Send(a, selWork)
			ctx.Send(b, selWork)
		}
		ctx.ExitNow(nil)
	}); err != nil {
		t.Fatal(err)
	}
	v := run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, sink)
		for i := 0; i < 100; i++ {
			ctx.Send(a, selWork)
		}
		ctx.Exit("second")
	})
	if v != "second" {
		t.Errorf("second run returned %v", v)
	}
	if live := m.live.sum(); live != 0 {
		t.Errorf("live gauge = %d after the second run, want 0", live)
	}
}

// TestTaskEntrySize pins the dispatcher's heap entry the way TestLDSize
// pins names.LD: sched's heap stores 16 bytes (key, tie-break) beside the
// value (TestHeapItemOverhead there), and every local hop moves one entry
// down and one up the heap.
func TestTaskEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 32-byte pin is for 64-bit hosts")
	}
	var tk task
	if got := unsafe.Sizeof(tk) + 16; got > 32 {
		t.Errorf("dispatcher heap entry is %d bytes, want at most 32", got)
	}
}
