package core

import (
	"sync/atomic"
	"testing"
)

// TestRemoteSendAndCacheUpdate: the first send to a remote actor routes via
// the birthplace/hint; once the receiving node's locality descriptor
// address is cached back (which happens before any reply can arrive on the
// same link), subsequent sends go direct.
func TestRemoteSendAndCacheUpdate(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := &probe{}
	echo := m.RegisterType("echo", func(args []any) Behavior { return &echoBehavior{p: p} })
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(3, echo)
		// Round trip first: the delivery of the request sends the cache
		// update, which precedes the reply on the FIFO link home.
		j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
			for i := 0; i < 50; i++ {
				ctx.Send(a, selWork, i)
			}
		})
		ctx.Request(a, selEcho, j, 0)
	})
	if p.len() != 51 { // 1 echo + 50 works
		t.Fatalf("delivered %d messages, want 51", p.len())
	}
	s := m.Stats()
	if s.Total.SendsRemote < 50 {
		t.Errorf("SendsRemote=%d, want >=50: caching never engaged", s.Total.SendsRemote)
	}
	if s.Total.CacheUpdates == 0 {
		t.Error("no cache updates propagated")
	}
}

// TestDisableLDCacheRoutesEverything: the ablation must deliver the same
// messages but with zero direct sends.
func TestDisableLDCacheRoutesEverything(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4, DisableLDCache: true})
	p := &probe{}
	echo := m.RegisterType("echo", func(args []any) Behavior { return &echoBehavior{p: p} })
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(3, echo)
		for i := 0; i < 50; i++ {
			ctx.Send(a, selWork, i)
		}
	})
	if p.len() != 50 {
		t.Fatalf("delivered %d, want 50", p.len())
	}
	s := m.Stats()
	if s.Total.SendsRemote != 0 {
		t.Errorf("SendsRemote=%d, want 0 with caching disabled", s.Total.SendsRemote)
	}
	if s.Total.SendsRouted < 50 {
		t.Errorf("SendsRouted=%d, want >=50", s.Total.SendsRouted)
	}
}

// TestFIFOBetweenPair: messages from one actor to another arrive in order
// even across a node boundary.
func TestFIFOBetweenPair(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	echo := m.RegisterType("echo", func(args []any) Behavior { return &echoBehavior{p: p} })
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, echo)
		for i := 0; i < 200; i++ {
			ctx.Send(a, selWork, i)
		}
	})
	vals := p.snapshot()
	if len(vals) != 200 {
		t.Fatalf("got %d", len(vals))
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
}

// TestPingPong exercises bidirectional traffic and reply-free
// request/response via plain sends.
func TestPingPong(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	var rounds atomic.Int64
	const target = 100
	ponger := m.RegisterType("ponger", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Send(msg.Addr(0), selPong, ctx.Node())
		}}
	})
	pinger := m.RegisterType("pinger", func(args []any) Behavior {
		var peer Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				peer = msg.Addr(0)
				ctx.Send(peer, selPing, ctx.Self())
			case selPong:
				if rounds.Add(1) < target {
					ctx.Send(peer, selPing, ctx.Self())
				}
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		po := ctx.NewOn(1, ponger)
		pi := ctx.NewOn(0, pinger)
		ctx.Send(pi, selInit, po)
	})
	if rounds.Load() != target {
		t.Fatalf("rounds=%d want %d", rounds.Load(), target)
	}
}

// TestMigrationMessagesFollow: messages sent to a migrated actor reach it,
// via forwarding, FIR repair, and birthplace cache updates.
func TestMigrationMessagesFollow(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := &probe{}
	wanderer := m.RegisterType("wanderer", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selWork:
				p.add([2]int{ctx.Node(), msg.Int(0)})
			case selPing: // migrate to the node in arg 0
				ctx.Migrate(msg.Int(0))
			}
		}}
	})
	sender := m.RegisterType("sender", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Send(msg.Addr(1), selWork, msg.Int(0))
		}}
	})
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, wanderer)
		ctx.Send(a, selWork, 0)
		ctx.Send(a, selPing, 2) // 1 -> 2
		ctx.Send(a, selWork, 1)
		ctx.Send(a, selPing, 3) // 2 -> 3
		ctx.Send(a, selWork, 2)
		// A third party that has never talked to the actor sends late:
		// routes via birthplace, which must know the newest location.
		s := ctx.NewOn(2, sender)
		ctx.Send(s, selInit, 3, a)
	})
	vals := p.snapshot()
	if len(vals) != 4 {
		t.Fatalf("delivered %d messages, want 4: %v", len(vals), vals)
	}
	got := map[int]int{}
	for _, v := range vals {
		nv := v.([2]int)
		got[nv[1]] = nv[0]
	}
	if got[0] != 1 {
		t.Errorf("msg 0 ran on node %d, want 1", got[0])
	}
	// msgs 1..3 must run wherever the actor was after migrations; the
	// final location is node 3.
	if got[3] != 3 {
		t.Errorf("late msg ran on node %d, want 3", got[3])
	}
	if m.Stats().Total.Migrations != 2 {
		t.Errorf("Migrations=%d want 2", m.Stats().Total.Migrations)
	}
}

// TestFIRChainRepair builds a real forwarding chain 0 -> 1 -> 2 -> 3 and
// then has a node that cached the original location send: the old node
// must hold the message, chase the chain with an FIR, and release the
// message directly to the final home.
//
// Cast: wanderer W (starts on node 0); controller C (node 0) walks W
// across the machine with migrate+echo round trips (each echo confirms
// arrival, because it is held during transit and only answered from the
// new home); driver D (node 4) caches W@node0 up front and sends again
// only after the walk finishes.
func TestFIRChainRepair(t *testing.T) {
	m := testMachine(t, Config{Nodes: 5})
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
	controller := m.RegisterType("controller", func(args []any) Behavior {
		var w, d Addr
		step := 0
		var hop func(ctx *Context)
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.Sel != selInit {
				return
			}
			w, d = msg.Addr(0), msg.Addr(1)
			hop = func(ctx *Context) {
				step++
				if step > 3 {
					ctx.Send(d, selStop)
					return
				}
				ctx.Send(w, selPing, step)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) { hop(ctx) })
				ctx.Request(w, selEcho, j, 0)
			}
			hop(ctx)
		}}
	})
	driver := m.RegisterType("driver", func(args []any) Behavior {
		var w, c Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w, c = msg.Addr(0), msg.Addr(1)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
					ctx.Send(c, selInit, w, ctx.Self())
				})
				ctx.Request(w, selEcho, j, 0)
			case selStop:
				ctx.Send(w, selWork)
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		w := ctx.NewOn(0, wanderer)
		c := ctx.NewOn(0, controller)
		d := ctx.NewOn(4, driver)
		ctx.Send(d, selInit, w, c)
	})
	vals := p.snapshot()
	if len(vals) != 1 || vals[0] != 3 {
		t.Fatalf("late message deliveries %v, want [3]", vals)
	}
	s := m.Stats()
	if s.Total.FIRSent == 0 {
		t.Error("no FIR issued despite stale cache")
	}
	if s.Total.FIRServed == 0 {
		t.Error("no FIR served")
	}
	if s.Total.Migrations != 3 {
		t.Errorf("Migrations=%d want 3", s.Total.Migrations)
	}
}

// TestFIRChainPastWordPath walks an actor along a chain longer than a
// word-encoded FIR path holds, so the repair travels boxed between nodes.
//
// Cast: wanderer W (born on node 0, so its birthplace learns every move);
// controller C (node 0) moves W to node 1, has driver D (node 11) cache W
// there, then walks W on through nodes 2..10.  D's late letter goes to
// node 1, which holds it and sends an FIR that nodes 2..9 relay; from node
// 8 on the path has more than firMaxHops hops and rides the packet boxed.
func TestFIRChainPastWordPath(t *testing.T) {
	const last = 10 // W's final node; the chain is nodes 1..last
	m := testMachine(t, Config{Nodes: last + 2})
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
	controller := m.RegisterType("controller", func(args []any) Behavior {
		var w, d Addr
		step := 0
		var hop func(ctx *Context)
		hop = func(ctx *Context) {
			step++
			if step > last {
				ctx.Send(d, selStop)
				return
			}
			ctx.Send(w, selPing, step)
			j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
				if step == 1 {
					ctx.Send(d, selInit, w, ctx.Self()) // D caches W@1
					return
				}
				hop(ctx)
			})
			ctx.Request(w, selEcho, j, 0)
		}
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w, d = msg.Addr(0), msg.Addr(1)
				hop(ctx)
			case selPong:
				hop(ctx)
			}
		}}
	})
	driver := m.RegisterType("driver", func(args []any) Behavior {
		var w Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				w = msg.Addr(0)
				c := msg.Addr(1)
				j := ctx.NewJoin(1, func(ctx *Context, _ []any) { ctx.Send(c, selPong) })
				ctx.Request(w, selEcho, j, 0)
			case selStop:
				ctx.Send(w, selWork)
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		w := ctx.NewOn(0, wanderer)
		c := ctx.NewOn(0, controller)
		d := ctx.NewOn(last+1, driver)
		ctx.Send(c, selInit, w, d)
	})
	if vals := p.snapshot(); len(vals) != 1 || vals[0] != last {
		t.Fatalf("late letter deliveries %v, want [%d]", vals, last)
	}
	s := m.Stats().Total
	if s.FIRRelayed < last-2 {
		t.Errorf("FIRRelayed=%d, want >= %d: the FIR did not walk the chain", s.FIRRelayed, last-2)
	}
	if s.DeadLetters != 0 {
		t.Errorf("DeadLetters=%d want 0", s.DeadLetters)
	}
	if s.Migrations != last {
		t.Errorf("Migrations=%d want %d", s.Migrations, last)
	}
}

// TestSynchronizationConstraints: disabled messages wait in the pending
// queue and run once the actor's state enables them.
func TestSynchronizationConstraints(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	gate := m.RegisterType("gate", func(args []any) Behavior { return &gateBehavior{p: p} })
	run(t, m, func(ctx *Context) {
		a := ctx.NewType(gate)
		ctx.Send(a, selWork, 1) // disabled until opened
		ctx.Send(a, selWork, 2)
		ctx.Send(a, selPing) // opens the gate
		ctx.Send(a, selWork, 3)
	})
	vals := p.snapshot()
	if len(vals) != 4 {
		t.Fatalf("got %d events: %v", len(vals), vals)
	}
	if vals[0] != "open" {
		t.Fatalf("gate events out of order: %v", vals)
	}
	// After opening, pending work 1 and 2 must run before new work 3.
	if vals[1] != 1 || vals[2] != 2 || vals[3] != 3 {
		t.Fatalf("pending queue order wrong: %v", vals)
	}
	if m.Stats().Total.Disabled == 0 {
		t.Error("constraint never deferred anything")
	}
	if m.Stats().Total.PendingRuns != 2 {
		t.Errorf("PendingRuns=%d want 2", m.Stats().Total.PendingRuns)
	}
}

type gateBehavior struct {
	open bool
	p    *probe
}

func (b *gateBehavior) Enabled(sel Selector) bool {
	return sel != selWork || b.open
}

func (b *gateBehavior) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selPing:
		b.open = true
		b.p.add("open")
	case selWork:
		b.p.add(msg.Arg(0))
	}
}

// TestBecome swaps behaviors mid-stream.
func TestBecome(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	run(t, m, func(ctx *Context) {
		var second Behavior = &funcBehavior{f: func(ctx *Context, msg *Message) {
			p.add("second")
		}}
		first := &funcBehavior{}
		first.f = func(ctx *Context, msg *Message) {
			p.add("first")
			ctx.Become(second)
		}
		a := ctx.New(first)
		ctx.Send(a, selWork)
		ctx.Send(a, selWork)
	})
	vals := p.snapshot()
	if len(vals) != 2 || vals[0] != "first" || vals[1] != "second" {
		t.Fatalf("become sequence wrong: %v", vals)
	}
}

// TestDieDropsRemainingMessages: messages behind a Die become dead
// letters, and stale cached senders are repaired by descriptor
// generations.
func TestDieDropsRemainingMessages(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	run(t, m, func(ctx *Context) {
		a := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			p.add(msg.Int(0))
			ctx.Die()
		}})
		ctx.Send(a, selWork, 1)
		ctx.Send(a, selWork, 2)
		ctx.Send(a, selWork, 3)
	})
	if p.len() != 1 {
		t.Fatalf("dead actor processed %d messages, want 1", p.len())
	}
	if dl := m.Stats().Total.DeadLetters; dl != 2 {
		t.Errorf("DeadLetters=%d want 2", dl)
	}
}

// TestSendToDeadRemote: a sender with a cached descriptor for a dead actor
// gets its messages dropped, not delivered to a recycled slot.
func TestSendToDeadRemote(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	mortal := m.RegisterType("mortal", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.Sel == selStop {
				ctx.Die()
				return
			}
			p.add(msg.Int(0))
		}}
	})
	driver := m.RegisterType("driver", func(args []any) Behavior {
		var target Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				target = msg.Addr(0)
				ctx.Send(target, selWork, 1)
				ctx.Send(target, selStop)
				ctx.Send(ctx.Self(), selPong)
			case selPong:
				ctx.Send(target, selWork, 2) // direct send to freed slot
			}
		}}
	})
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, mortal)
		d := ctx.NewOn(0, driver)
		ctx.Send(d, selInit, a)
	})
	if p.len() != 1 {
		t.Fatalf("delivered %d, want 1", p.len())
	}
	if m.Stats().Total.DeadLetters == 0 {
		t.Error("no dead letters recorded")
	}
}

// TestBulkDataMessage: a large float payload rides the three-phase
// protocol and arrives intact.
func TestBulkDataMessage(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		m := testMachine(t, Config{Nodes: nodes})
		var got []float64
		sink := m.RegisterType("sink", func(args []any) Behavior {
			return &funcBehavior{f: func(ctx *Context, msg *Message) {
				got = msg.Data
			}}
		})
		data := make([]float64, 1000)
		for i := range data {
			data[i] = float64(i) * 0.5
		}
		run(t, m, func(ctx *Context) {
			a := ctx.NewOn(nodes-1, sink)
			ctx.SendData(a, selWork, data)
		})
		if len(got) != 1000 {
			t.Fatalf("nodes=%d: payload length %d", nodes, len(got))
		}
		for i, v := range got {
			if v != float64(i)*0.5 {
				t.Fatalf("nodes=%d: payload[%d]=%v", nodes, i, v)
			}
		}
	}
}

// TestSendFastInline: a local enabled target runs on the caller's stack.
func TestSendFastInline(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	run(t, m, func(ctx *Context) {
		a := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) { p.add(msg.Int(0)) }})
		if !ctx.SendFast(a, selWork, 7) {
			t.Error("SendFast did not take the fast path for a local actor")
		}
		if p.len() != 1 {
			t.Error("fast path did not run inline")
		}
	})
	if m.Stats().Total.SendsFast != 1 {
		t.Errorf("SendsFast=%d want 1", m.Stats().Total.SendsFast)
	}
}

// TestSendFastFallsBackRemote: a remote target falls back to the generic
// send but still delivers.
func TestSendFastFallsBackRemote(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	echo := m.RegisterType("echo", func(args []any) Behavior { return &echoBehavior{p: p} })
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, echo)
		if ctx.SendFast(a, selWork, 1) {
			t.Error("SendFast claimed fast path for a remote actor")
		}
	})
	if p.len() != 1 {
		t.Fatal("fallback message lost")
	}
	if m.Stats().Total.SendsFastMiss != 1 {
		t.Errorf("SendsFastMiss=%d want 1", m.Stats().Total.SendsFastMiss)
	}
}

// TestSendFastRespectsConstraints: a disabled target cannot run inline.
func TestSendFastRespectsConstraints(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	run(t, m, func(ctx *Context) {
		a := ctx.New(&gateBehavior{p: p})
		if ctx.SendFast(a, selWork, 1) {
			t.Error("SendFast ran a disabled method inline")
		}
		ctx.Send(a, selPing)
	})
	vals := p.snapshot()
	if len(vals) != 2 || vals[0] != "open" {
		t.Fatalf("constraint violated: %v", vals)
	}
}

// TestSendFastDepthLimit: recursion through SendFast falls back once the
// stack budget is exhausted instead of overflowing.
func TestSendFastDepthLimit(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1, FastPathDepth: 8})
	var count int
	run(t, m, func(ctx *Context) {
		var self Addr
		a := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			count++
			if count < 100 {
				ctx.SendFast(self, selWork)
			}
		}})
		self = a
		ctx.SendFast(a, selWork)
	})
	if count != 100 {
		t.Fatalf("count=%d want 100", count)
	}
	s := m.Stats()
	if s.Total.SendsFastMiss == 0 {
		t.Error("depth limit never engaged")
	}
}
