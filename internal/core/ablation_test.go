package core

import (
	"testing"
	"time"
)

// TestTombstoneDeadLetterRouted: a message ROUTED via the birthplace to a
// dead actor becomes a dead letter (the tombstone answers), rather than
// waiting forever for a registration.
func TestTombstoneDeadLetterRouted(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	dumpFlightOnFailure(t, m)
	p := &probe{}
	mortal := m.RegisterType("mortal", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selStop:
				ctx.Die()
			case selEcho:
				ctx.Reply(msg, ctx.Node())
			case selWork:
				p.add(ctx.Node())
			}
		}}
	})
	// A third party with no cached descriptor sends AFTER death: the
	// message routes to the birthplace and must die there cleanly.
	third := m.RegisterType("third", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Send(msg.Addr(0), selWork)
		}}
	})
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, mortal)
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
			// Confirmed dead (the echo below raced ahead of nothing:
			// selStop was sent first on the same link).
			th := ctx.NewOn(2, third)
			ctx.Send(th, selInit, a)
		})
		ctx.Send(a, selStop)
		// Quiesce-confirm via a second actor on node 1 so the join
		// fires only after selStop was processed.
		probe1 := ctx.NewOn(1, mortal)
		ctx.Request(probe1, selEcho, j, 0)
	})
	if p.len() != 0 {
		t.Fatalf("dead actor processed %d messages", p.len())
	}
	if dl := m.Stats().Total.DeadLetters; dl == 0 {
		t.Fatal("no dead letters recorded for posthumous send")
	}
}

// TestTombstoneAnswersFIR: a stale cache chasing a dead actor gets a
// "dead" answer and drops its held messages instead of stalling.
func TestTombstoneAnswersFIR(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	dumpFlightOnFailure(t, m)
	wanderer := m.RegisterType("wanderer", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selPing:
				ctx.Migrate(msg.Int(0))
			case selStop:
				ctx.Die()
			case selEcho:
				ctx.Reply(msg, ctx.Node())
			}
		}}
	})
	driver := m.RegisterType("driver", func(args []any) Behavior {
		var w Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w = msg.Addr(0)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
					ctx.Send(ctx.Self(), selPong)
				})
				ctx.Request(w, selEcho, j, 0) // cache node 1 location
			case selPong:
				// Walk it away and kill it, then send with the stale
				// cache: node 1 must FIR to node 2, learn "dead", and
				// drop.
				ctx.Send(w, selPing, 2)
				ctx.Send(w, selStop)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) {})
				_ = j
				ctx.Send(w, selWork)
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		w := ctx.NewOn(1, wanderer)
		d := ctx.NewOn(0, driver)
		ctx.Send(d, selInit, w)
	})
	s := m.Stats()
	if s.Total.DeadLetters == 0 {
		t.Fatal("stale send to dead wanderer did not become a dead letter")
	}
}

// TestNaiveForwardingDelivers: the ablation still delivers chased
// messages, only by pushing the whole message along the chain instead of
// repairing with an FIR.  A fresh sender routes to the wanderer's old
// home after two migrations; the old home's stale forwarder must push
// the message onward rather than hold it.
func TestNaiveForwardingDelivers(t *testing.T) {
	m := testMachine(t, Config{Nodes: 5, NaiveForwarding: true})
	dumpFlightOnFailure(t, m)
	p := &probe{}
	wanderer := m.RegisterType("wanderer", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selEcho:
				ctx.Reply(msg, ctx.Node())
			case selPing:
				ctx.Migrate(msg.Int(0))
			case selWork:
				p.add(ctx.Node())
			}
		}}
	})
	// A stale-cache sender: it caches the wanderer at node 1, then stays
	// out of the loop while the wanderer moves on, then sends again.
	stale := m.RegisterType("stale", func(args []any) Behavior {
		var w Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w = msg.Addr(0)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) {}) // cache only
				ctx.Request(w, selEcho, j, 0)
			case selPong:
				ctx.Send(w, selWork) // direct to the stale location
			}
		}}
	})
	driver := m.RegisterType("driver", func(args []any) Behavior {
		var w, s Addr
		step := 0
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w, s = msg.Addr(0), msg.Addr(1)
				ctx.Send(s, selInit, w)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) { ctx.Send(ctx.Self(), selPong) })
				ctx.Request(w, selEcho, j, 0) // after the stale echo (FIFO to w)
			case selPong:
				step++
				switch step {
				case 1:
					// Walk 1 -> 3 -> 4, avoiding the stale sender's
					// node (a migration through it would refresh its
					// name table).
					ctx.Send(w, selPing, 3)
					ctx.Send(w, selPing, 4)
					j := ctx.NewJoin(1, func(ctx *Context, _ []any) { ctx.Send(ctx.Self(), selPong) })
					ctx.Request(w, selEcho, j, 0) // confirm arrival at 3
				case 2:
					ctx.Send(s, selPong) // wake the stale sender
				}
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		w := ctx.NewOn(1, wanderer)
		s := ctx.NewOn(2, stale)
		d := ctx.NewOn(0, driver)
		ctx.Send(d, selInit, w, s)
	})
	vals := p.snapshot()
	if len(vals) != 1 || vals[0] != 4 {
		t.Fatalf("chased message deliveries %v, want [4]", vals)
	}
	s := m.Stats()
	if s.Total.Forwarded == 0 {
		t.Error("no hop-by-hop forwards counted")
	}
	if s.Total.FIRSent != 0 {
		t.Errorf("FIRs sent (%d) despite naive forwarding", s.Total.FIRSent)
	}
}

// TestNodeSpeedValidation rejects malformed speed vectors.
func TestNodeSpeedValidation(t *testing.T) {
	if _, err := NewMachine(Config{Nodes: 2, NodeSpeed: []float64{1}}); err == nil {
		t.Error("accepted wrong-length NodeSpeed")
	}
	if _, err := NewMachine(Config{Nodes: 2, NodeSpeed: []float64{1, -1}}); err == nil {
		t.Error("accepted negative NodeSpeed")
	}
}

// TestNodeSpeedScalesCharges: work on a half-speed node takes twice the
// virtual time.
func TestNodeSpeedScalesCharges(t *testing.T) {
	elapsed := func(speed float64) time.Duration {
		m := testMachine(t, Config{Nodes: 2, NodeSpeed: []float64{1, speed}})
		worker := m.RegisterType("w", func(args []any) Behavior {
			return &funcBehavior{f: func(ctx *Context, msg *Message) {
				ctx.Charge(time.Millisecond)
			}}
		})
		run(t, m, func(ctx *Context) {
			a := ctx.NewOn(1, worker)
			ctx.Send(a, selWork)
		})
		return m.VirtualTime()
	}
	fast := elapsed(2)
	slow := elapsed(0.5)
	if !(slow > 3*fast/2) {
		t.Fatalf("speed scaling broken: fast=%v slow=%v", fast, slow)
	}
}

// TestHeterogeneousLoadBalancing: with one fast and three slow nodes,
// dynamic balancing should put more work on the fast node than a slow
// one — the behavior that matters on the networks of workstations the
// paper's conclusions target.
func TestHeterogeneousLoadBalancing(t *testing.T) {
	m := testMachine(t, Config{
		Nodes:        4,
		LoadBalance:  true,
		NodeSpeed:    []float64{4, 1, 1, 1},
		StallTimeout: 20 * time.Second,
	})
	perNode := make([]int64, 4)
	p := &probe{}
	_ = p
	worker := m.RegisterType("w", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Charge(200 * time.Microsecond)
			perNode[ctx.Node()]++ // node-confined increment... see note
			ctx.Die()
		}}
	})
	run(t, m, func(ctx *Context) {
		for i := 0; i < 400; i++ {
			ctx.Send(ctx.NewAuto(worker), selWork)
		}
	})
	// perNode entries are each written by one node goroutine only and
	// read after Run returns, so no synchronization is needed.
	total := int64(0)
	for _, v := range perNode {
		total += v
	}
	if total != 400 {
		t.Fatalf("ran %d tasks, want 400", total)
	}
	slowMax := max(perNode[1], max(perNode[2], perNode[3]))
	if perNode[0] <= slowMax {
		t.Errorf("fast node ran %d tasks, no more than slowest-best %d (dist %v)",
			perNode[0], slowMax, perNode)
	}
}

// TestRepairTrafficNeverStaged: the kernel stages two things — a
// word-encoded reply (sendReply) and an ack under faults (ackCtl) — so a
// workload that migrates an actor and chases it with stale sends, but
// never Requests, must leave every staging buffer untouched: creation,
// migration bundles, acks of them, FIRs and cache updates all went out
// in order and at once.  This is the property the retired repairplane
// analyzer guarded; a repair packet that reached SendBatched would show
// here as a flush.
func TestRepairTrafficNeverStaged(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	dumpFlightOnFailure(t, m)
	p := &probe{}
	wanderer := m.RegisterType("wanderer", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selPing:
				ctx.Migrate(msg.Int(0))
			case selWork:
				p.add(ctx.Node())
			}
		}}
	})
	const chasers = 8
	run(t, m, func(ctx *Context) {
		w := ctx.NewOn(1, wanderer)
		ctx.Send(w, selPing, 2)
		ctx.Send(w, selPing, 3)
		for i := 0; i < chasers; i++ {
			ctx.Send(w, selWork) // lands on a forwarder more often than not
		}
	})
	if p.len() != chasers {
		t.Fatalf("%d of %d chasing messages delivered", p.len(), chasers)
	}
	s := m.Stats().Total
	if s.Migrations != 2 || s.CacheUpdates == 0 {
		t.Fatalf("workload carried no repair traffic: migrations=%d cache updates=%d", s.Migrations, s.CacheUpdates)
	}
	if s.Net.Batches != 0 || s.Net.FlushOcc.N != 0 {
		t.Fatalf("staging engaged without a Request: %d batches, %d staged-buffer flushes", s.Net.Batches, s.Net.FlushOcc.N)
	}
}
