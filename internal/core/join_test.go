package core

import (
	"strings"
	"testing"

	"hal/internal/amnet"
)

// TestJoinSingleSlot: the simplest call/return — one request, one reply.
func TestJoinSingleSlot(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	doubler := m.RegisterType("doubler", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Reply(msg, msg.Int(0)*2)
		}}
	})
	v := run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, doubler)
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
			ctx.Exit(slots[0])
		})
		ctx.Request(a, selWork, j, 0, 21)
	})
	if v != 42 {
		t.Fatalf("got %v want 42", v)
	}
}

// TestJoinMultiSlot: independent requests share one continuation (the
// compiler groups dependence-free sends, § 6.2); the function fires only
// after every slot fills, with slots in declaration order.
func TestJoinMultiSlot(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	ider := m.RegisterType("ider", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Reply(msg, ctx.Node()*100+msg.Int(0))
		}}
	})
	v := run(t, m, func(ctx *Context) {
		j := ctx.NewJoin(4, func(ctx *Context, slots []any) {
			sum := 0
			for _, s := range slots {
				sum += s.(int)
			}
			ctx.Exit(sum)
		})
		for i := 0; i < 4; i++ {
			a := ctx.NewOn(i, ider)
			ctx.Request(a, selWork, j, i, i)
		}
	})
	want := 0 + 101 + 202 + 303
	if v != want {
		t.Fatalf("got %v want %d", v, want)
	}
}

// TestJoinPresetSlots: slots whose values are known at creation are filled
// with Set (Fig. 4 shows such pre-filled argument slots).
func TestJoinPresetSlots(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	ider := m.RegisterType("ider", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) { ctx.Reply(msg, 5) }}
	})
	v := run(t, m, func(ctx *Context) {
		j := ctx.NewJoin(3, func(ctx *Context, slots []any) {
			ctx.Exit(slots[0].(int) + slots[1].(int) + slots[2].(int))
		})
		j.Set(0, 10)
		j.Set(2, 30)
		a := ctx.NewOn(1, ider)
		ctx.Request(a, selWork, j, 1)
	})
	if v != 45 {
		t.Fatalf("got %v want 45", v)
	}
}

// TestJoinChained: continuations issuing further requests (the fib
// pattern).
func TestJoinChained(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	inc := m.RegisterType("inc", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Reply(msg, msg.Int(0)+1)
		}}
	})
	v := run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, inc)
		var chase func(ctx *Context, v int)
		chase = func(ctx *Context, v int) {
			if v >= 10 {
				ctx.Exit(v)
				return
			}
			j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
				chase(ctx, slots[0].(int))
			})
			ctx.Request(a, selWork, j, 0, v)
		}
		chase(ctx, 0)
	})
	if v != 10 {
		t.Fatalf("got %v want 10", v)
	}
}

// TestReplyFromJoinContinuation: a continuation can itself reply upward,
// forming reply chains across nodes (how fib propagates sums).
func TestReplyJoinPipeline(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	// leaf replies v+1; mid requests leaf and replies leaf's answer +100.
	leaf := m.RegisterType("leaf", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Reply(msg, msg.Int(0)+1)
		}}
	})
	mid := m.RegisterType("mid", func(args []any) Behavior {
		var leafAddr Addr
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			switch msg.Sel {
			case selInit:
				leafAddr = msg.Addr(0)
			case selWork:
				reply := *msg // capture reply descriptor by value
				j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
					ctx.Reply(&reply, slots[0].(int)+100)
				})
				ctx.Request(leafAddr, selWork, j, 0, msg.Int(0))
			}
		}}
	})
	v := run(t, m, func(ctx *Context) {
		l := ctx.NewOn(2, leaf)
		md := ctx.NewOn(1, mid)
		ctx.Send(md, selInit, l)
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) { ctx.Exit(slots[0]) })
		ctx.Request(md, selWork, j, 0, 7)
	})
	if v != 108 {
		t.Fatalf("got %v want 108", v)
	}
}

// TestJoinOverfillPanics: filling more slots than declared is a bug.
func TestJoinOverfillPanics(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	_, err := m.Run(func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("overfill did not panic")
			}
			ctx.ExitNow(nil)
		}()
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {})
		j.Set(0, 1)
		j.Set(0, 2)
	})
	_ = err
}

// TestJoinZeroSlotsPanics: a join continuation needs at least one slot.
func TestJoinZeroSlotsPanics(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	_, _ = m.Run(func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("NewJoin(0) did not panic")
			}
			ctx.ExitNow(nil)
		}()
		ctx.NewJoin(0, func(ctx *Context, slots []any) {})
	})
}

// TestReplyToPlainSendIsNoop: replying to a message that carried no
// continuation address is silently dropped.
func TestReplyToPlainSendIsNoop(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	run(t, m, func(ctx *Context) {
		a := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Reply(msg, 1) // no-op
			p.add("ran")
		}})
		ctx.Send(a, selWork)
	})
	if p.len() != 1 {
		t.Fatal("actor did not run")
	}
}

// TestJoinSlotsClearedAfterRun: a JoinFunc that (wrongly) keeps its slots
// finds them cleared once it has returned, not holding values the pooled
// continuation's next request could be confused with.
func TestJoinSlotsClearedAfterRun(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	var kept []any
	seen := 0
	run(t, m, func(ctx *Context) {
		j := ctx.NewJoin(2, func(ctx *Context, slots []any) {
			kept = slots
			seen = slots[0].(int) + slots[1].(int)
		})
		j.Set(0, 1000)
		j.Set(1, 2000)
	})
	if seen != 3000 {
		t.Fatalf("the continuation saw a sum of %d, want 3000", seen)
	}
	if len(kept) != 2 || kept[0] != nil || kept[1] != nil {
		t.Fatalf("retained slots read %v after the call, want them cleared", kept)
	}
}

// TestJoinLateReplyAfterRecycle: a reply that arrives for a continuation
// that has run — and whose pooled structure another request has since
// taken — is one dead letter and fills nothing; a stale Join handle's Set
// is as inert.  The server answers its first request twice: at once, and
// again when poked by a second request that was made on the recycled
// continuation.
func TestJoinLateReplyAfterRecycle(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	var first ReplyTo
	server := m.RegisterType("twice", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.Sel == selPing {
				first = msg.Reply
				ctx.Reply(msg, 1)
				return
			}
			ctx.Reply(&Message{Reply: first}, 666) // late: that continuation is gone
			ctx.Reply(msg, 2)
		}}
	})
	var got []any
	v := run(t, m, func(ctx *Context) {
		n := ctx.n
		srv := ctx.NewOn(1, server)
		var j1 Join
		// The second request is made from a method of its own, after the
		// first continuation has returned and been recycled.
		again := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			if len(n.jc.free) != 1 {
				t.Errorf("%d continuations pooled after the first ran, want 1", len(n.jc.free))
			}
			pooled := n.jc.free[0]
			j2 := ctx.NewJoin(2, func(ctx *Context, slots []any) {
				got = append(got, slots...)
				ctx.Exit(len(got))
			})
			if jc, _ := n.jc.m.Get(j2.seq); jc != pooled {
				t.Error("the second continuation did not take the pooled structure")
			}
			j1.Set(0, 777) // stale handle: no continuation, no effect
			j2.Set(0, "mine")
			ctx.Request(srv, selPong, j2, 1)
		}})
		j1 = ctx.NewJoin(1, func(ctx *Context, slots []any) {
			got = append(got, slots[0])
			ctx.Send(again, selWork)
		})
		ctx.Request(srv, selPing, j1, 0)
	})
	if v != 3 || len(got) != 3 || got[0] != 1 || got[1] != "mine" || got[2] != 2 {
		t.Fatalf("continuations saw %v (exit %v), want [1 mine 2]", got, v)
	}
	if s := m.Stats().Total; s.DeadLetters != 1 || s.JoinsRun != 2 || s.Replies != 3 {
		t.Fatalf("dead letters %d, joins run %d, slots filled %d; want 1, 2, 3", s.DeadLetters, s.JoinsRun, s.Replies)
	}
}

// refPoint is a value outside the kernel's set.
type refPoint struct{ X, Y int }

// TestRefOutsideSetPanics: a bare value of a type the kernel does not know
// is refused where it enters — as an argument of a short list, of a long
// one, as a reply and as a Set — by a panic that names the type and the way
// out.
func TestRefOutsideSetPanics(t *testing.T) {
	m, prog := allocMachine(t, 2)
	ctx := &m.nodes[0].ctx
	ctx.prog = prog
	to := m.nodes[0].createLocal(&allocSink{}).Addr()
	j := ctx.NewJoin(1, func(*Context, []any) {})
	req := &Message{Reply: ReplyTo{Node: 0, JC: j.seq}}
	for _, tc := range []struct {
		name, typ string
		f         func()
	}{
		{"Send", "core.refPoint", func() { ctx.Send(to, 1, 1, refPoint{X: 1}) }},
		{"Send, 5 args", "int32", func() { ctx.Send(to, 1, 1, 2, 3, 4, int32(5)) }},
		{"SendFast", "*core.refPoint", func() { ctx.SendFast(to, 1, &refPoint{}) }},
		{"Request", "[]int", func() { ctx.Request(to, 1, j, 0, []int{1}) }},
		{"Broadcast", "core.refPoint", func() { ctx.Broadcast(Group{N: 1, Nodes: 1}, 1, refPoint{}) }},
		{"Reply", "core.refPoint", func() { ctx.Reply(req, refPoint{}) }},
		{"Set", "core.refPoint", func() { j.Set(0, refPoint{}) }},
		{"Reply across nodes", "uint8", func() { ctx.Reply(&Message{Reply: ReplyTo{Node: 1, JC: 1}}, uint8(1)) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Ref{V: x}") || !strings.Contains(msg, "type "+tc.typ+" ") {
					t.Errorf("%s: panic %q, want one naming %s and Ref", tc.name, msg, tc.typ)
				}
			}()
			tc.f()
		}()
	}
}

// TestRefArrivesUnwrapped: Ref{V: x} reaches the receiver as x — on the
// sender's node, on another in-memory node, through the codec — and the
// same holds for a reply.
func TestRefArrivesUnwrapped(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	mirror := m.RegisterType("mirror", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			p.add(msg.Arg(1))
			pt := msg.Arg(1).(refPoint)
			ctx.Reply(msg, Ref{V: refPoint{X: pt.Y, Y: pt.X}})
		}}
	})
	v := run(t, m, func(ctx *Context) {
		j := ctx.NewJoin(3, func(ctx *Context, slots []any) {
			ctx.Exit(slots[0] == refPoint{X: 2, Y: 1} && slots[1] == refPoint{X: 4, Y: 3} && slots[2] == refPoint{X: 5, Y: 6})
		})
		j.Set(2, Ref{V: refPoint{X: 5, Y: 6}})
		ctx.Request(ctx.NewOn(0, mirror), selWork, j, 0, 7, Ref{V: refPoint{X: 1, Y: 2}})
		ctx.Request(ctx.NewOn(1, mirror), selWork, j, 1, 7, Ref{V: refPoint{X: 3, Y: 4}})
	})
	if v != true {
		t.Error("the replies and the Set did not arrive as the values their Refs held")
	}
	for _, got := range p.snapshot() {
		if got != (refPoint{X: 1, Y: 2}) && got != (refPoint{X: 3, Y: 4}) {
			t.Errorf("an argument arrived as %#v, want the refPoint itself", got)
		}
	}
	if p.len() != 2 {
		t.Errorf("%d deliveries, want 2", p.len())
	}

	c, _ := wireCodec()
	enc, err := c.AppendPayload(nil, &amnet.Packet{Payload: msgWith(&Message{}, Ref{V: wirePoint{X: 5, Y: 6}}, Ref{V: 9})})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if msg := out.(*Message); msg.NArgs() != 2 || msg.Arg(0) != (wirePoint{X: 5, Y: 6}) || msg.Int(1) != 9 {
		t.Errorf("through the codec the arguments read %#v, %#v", msg.Arg(0), msg.Arg(1))
	}
}

// TestSpillOneWayStream: a one-way flow long enough to fill the consumer's
// freelist and spill, on a running machine — the producer and the consumer
// are different goroutines, so the machine-wide pool really is crossed (and
// under -race, checked).  Every message arrives with its own arguments.
func TestSpillOneWayStream(t *testing.T) {
	const k = 8 * msgPoolCap
	m := testMachine(t, Config{Nodes: 2})
	sum, count := 0, 0
	sink := m.RegisterType("sink", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.Int(1) != 3*msg.Int(0) || msg.Arg(2) != "tail" {
				t.Errorf("message %d arrived with %d, %v", msg.Int(0), msg.Int(1), msg.Arg(2))
			}
			sum += msg.Int(0)
			count++
		}}
	})
	run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, sink)
		feeder := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			// In bursts, so the consumer frees while the producer allocates.
			i := msg.Int(0)
			for end := i + 64; i < end; i++ {
				ctx.Send(a, selWork, i, 3*i, "tail")
			}
			if i < k {
				ctx.Send(ctx.Self(), selWork, i)
			}
		}})
		ctx.Send(feeder, selWork, 0)
	})
	if count != k || sum != k*(k-1)/2 {
		t.Fatalf("%d messages summing to %d arrived, want %d and %d", count, sum, k, k*(k-1)/2)
	}
}
