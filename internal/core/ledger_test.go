package core

import (
	"maps"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hal/internal/amnet"
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

// launchWait runs root as one program on the started machine m and
// returns its result.
func launchWait(t *testing.T, m *Machine, root func(ctx *Context)) any {
	t.Helper()
	p, err := m.Launch(root)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// programTableSize is how many programs m's table holds.
func programTableSize(m *Machine) int {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	return len(m.progs)
}

// tableIDs returns the ids of the programs in m's table, sorted.
func tableIDs(m *Machine) []uint64 {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	ids := slices.Collect(maps.Keys(m.progs))
	slices.Sort(ids)
	return ids
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

// TestLedgerServiceProgramsCountToCaller: the kernel does not tell
// actors of different programs apart (§ 3), so one program's actor may
// serve every later program.  Program 1 leaves a counter on node 1; 200
// sequential programs each request from it and exit with the reply.  The
// counter's method is the requesting program's work, and so is its reply:
// no program may finish before its join ran.
func TestLedgerServiceProgramsCountToCaller(t *testing.T) {
	const programs = 200
	m := testMachine(t, Config{Nodes: 2})
	counter := m.RegisterType("counter", func([]any) Behavior {
		n := 0
		return BehaviorFunc(func(ctx *Context, msg *Message) {
			n++
			ctx.Reply(msg, n)
		})
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	svc := launchWait(t, m, func(ctx *Context) { ctx.Exit(ctx.NewOn(1, counter)) }).(Addr)
	for i := 1; i <= programs; i++ {
		v := launchWait(t, m, func(ctx *Context) {
			j := ctx.NewJoin(1, func(ctx *Context, vs []any) { ctx.Exit(vs[0]) })
			ctx.Request(svc, selEcho, j, 0)
		})
		if v != i {
			t.Fatalf("program %d of %d returned %v, want the counter's %d", i, programs, v, i)
		}
	}
	if live := m.live.sum(); live != 0 {
		t.Errorf("live gauge = %d after every program completed, want 0", live)
	}
	if n := programTableSize(m); n != 0 {
		t.Errorf("%d finished programs left in the table", n)
	}
}

// TestLedgerMigrationCountsToAsker: a later program's method migrates an
// actor an earlier program created.  The move is a unit of the program
// that asked, so that program's Wait returns only after the actor landed
// and every unit is retired.
func TestLedgerMigrationCountsToAsker(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	nomad := launchWait(t, m, func(ctx *Context) {
		ctx.Exit(ctx.New(BehaviorFunc(func(ctx *Context, msg *Message) { ctx.Migrate(1) })))
	}).(Addr)
	launchWait(t, m, func(ctx *Context) { ctx.Send(nomad, selWork) })
	// Exact at this instant: every node settles its ledger before the
	// program's own count can reach zero.
	if live := m.live.sum(); live != 0 {
		t.Errorf("live gauge = %d when the asking program's Wait returned, want 0", live)
	}
	// The node that took the actor in republishes its counters at its next
	// epoch or park, which may come just after the Wait.
	if !spinUntil(func() bool { return m.StatsNow().Total.MigratedIn == 1 }) {
		t.Errorf("MigratedIn = %d, want 1", m.StatsNow().Total.MigratedIn)
	}
}

// TestLedgerManyProgramsLeaveTableEmpty: the program table holds running
// programs only, so a kept machine that ran 20,000 programs holds none.
func TestLedgerManyProgramsLeaveTableEmpty(t *testing.T) {
	const programs = 20_000
	m := testMachine(t, Config{Nodes: 2})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var batch []*Program
	for i := 0; i < programs; i++ {
		p, err := m.Launch(func(*Context) {})
		if err != nil {
			t.Fatal(err)
		}
		if batch = append(batch, p); len(batch) == 1000 {
			for _, p := range batch {
				if _, err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			batch = batch[:0]
		}
	}
	if n, seq := programTableSize(m), m.progSeq.Load(); n != 0 || seq != programs {
		t.Errorf("after %d programs the table holds %d, progSeq %d", programs, n, seq)
	}
}

// TestLedgerDistServiceAcrossProcesses: program 2 requests from an actor
// program 1 left in the worker process, and gets its value: the word reply
// crosses carrying program 2 (wtProg).  Once both programs finished,
// the worker's table is empty, and a late wtProg or dcDone for a finished
// id resolves to nothing and leaves it so.
func TestLedgerDistServiceAcrossProcesses(t *testing.T) {
	const nodes = 4
	rig := startDistRig(t, nodes, 2, nil, func(m *Machine) {
		m.RegisterType("counter", func([]any) Behavior {
			n := 0
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				n++
				ctx.Reply(msg, n)
			})
		})
	})
	counter := rig.leader().TypeByName("counter")
	svc, err := runOn(rig, t, func(ctx *Context) { ctx.Exit(ctx.NewOn(nodes-1, counter)) })
	if err != nil {
		t.Fatal(err)
	}
	v, err := runOn(rig, t, func(ctx *Context) {
		j := ctx.NewJoin(1, func(ctx *Context, vs []any) { ctx.Exit(vs[0]) })
		ctx.Request(svc.(Addr), selEcho, j, 0)
	})
	if err != nil || v != 1 {
		t.Fatalf("program 2 returned %v (%v), want the counter's 1", v, err)
	}
	w := rig.machines[1]
	if !spinUntil(func() bool { return programTableSize(w) == 0 }) {
		t.Fatalf("worker table holds %d programs after both finished", programTableSize(w))
	}
	late, err := (&payloadCodec{m: rig.leader()}).AppendPayload(nil, &amnet.Packet{Payload: &Program{id: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := (&payloadCodec{m: w}).DecodePayload(late); err != nil || p.(*Program) != nil {
		t.Errorf("a late wtProg for a finished program decoded as %v (%v), want nil", p, err)
	}
	for id := uint64(1); id <= 2; id++ {
		w.dist.onCtl(0, dcDone, doneMsg{Prog: id}.appendTo(nil))
	}
	if n, seq := programTableSize(w), w.progSeq.Load(); n != 0 || seq != 2 {
		t.Errorf("after late messages the worker table holds %d programs, progSeq %d; want 0 and 2", n, seq)
	}
	if n := programTableSize(rig.leader()); n != 0 {
		t.Errorf("leader table holds %d finished programs", n)
	}
	rig.shutdown(t)
}

// TestLedgerDistLeaderExitNowEmptiesWorkers: a program that sent work to
// a worker process and then ends by ExitNow on the leader is dropped from
// the worker's table too (the leader's dcDone), instead of riding every
// report for the life of the machine.
func TestLedgerDistLeaderExitNowEmptiesWorkers(t *testing.T) {
	const nodes = 4
	rig := startDistRig(t, nodes, 2, nil, registerDistTypes)
	sleeper := rig.leader().TypeByName("dist-sleeper")
	v, err := runOn(rig, t, func(ctx *Context) {
		ctx.Send(ctx.NewOn(nodes-1, sleeper), 1)
		ctx.ExitNow("early")
	})
	if err != nil || v != "early" {
		t.Fatalf("Wait returned %v, %v; want early", v, err)
	}
	w := rig.machines[1]
	if !spinUntil(func() bool { return w.progSeq.Load() == 1 && programTableSize(w) == 0 }) {
		t.Fatalf("worker heard of %d programs and still holds %v", w.progSeq.Load(), tableIDs(w))
	}
	rig.shutdown(t)
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
