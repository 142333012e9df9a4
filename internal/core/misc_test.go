package core

import (
	"strings"
	"testing"
	"time"

	"hal/internal/amnet"
)

// Accessors, panic guards, and small paths not covered elsewhere.

func TestContextAccessors(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	run(t, m, func(ctx *Context) {
		if ctx.Node() != 0 {
			t.Errorf("Node=%d", ctx.Node())
		}
		if ctx.Nodes() != 3 {
			t.Errorf("Nodes=%d", ctx.Nodes())
		}
		if ctx.Rand() == nil {
			t.Error("Rand nil")
		}
		if ctx.Self().IsNil() {
			t.Error("Self nil")
		}
		if ctx.VTime() < 0 {
			t.Error("VTime negative")
		}
	})
	if m.Nodes() != 3 {
		t.Errorf("Machine.Nodes=%d", m.Nodes())
	}
	if m.Config().Nodes != 3 {
		t.Error("Machine.Config wrong")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(5)
	if cfg.Nodes != 5 || cfg.LoadBalance {
		t.Errorf("DefaultConfig: %+v", cfg)
	}
	if DefaultCostModel().CreateLocal != 5.0 {
		t.Error("DefaultCostModel wrong")
	}
}

func TestMessageAccessorPanics(t *testing.T) {
	// Once through the overflow list (a string forces it), once inline.
	for _, first := range []any{"str", true} {
		msg := msgWith(&Message{Sel: 1}, first, 3.5, 7)
		if msg.NArgs() != 3 || msg.Arg(0) != first || msg.Float(1) != 3.5 || msg.Int(2) != 7 {
			t.Fatalf("accessors broken on %v", msg)
		}
		mustPanic(t, "Int on non-int", func() { msg.Int(0) })
		mustPanic(t, "Float on int", func() { msg.Float(2) })
		mustPanic(t, "Addr on non-addr", func() { msg.Addr(0) })
		mustPanic(t, "Group on non-group", func() { msg.Group(0) })
		mustPanic(t, "Arg past the end", func() { msg.Arg(3) })
		mustPanic(t, "Int past the end", func() { msg.Int(3) })
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestContextGuards(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	run(t, m, func(ctx *Context) {
		mustPanic(t, "send to nil", func() { ctx.Send(Nil, 1) })
		mustPanic(t, "New(nil)", func() { ctx.New(nil) })
		mustPanic(t, "NewOn out of range", func() { ctx.NewOn(9, 1) })
		mustPanic(t, "NewOn bad type", func() { ctx.NewOn(1, 0) })
		mustPanic(t, "NewAuto bad type", func() { ctx.NewAuto(99) })
		mustPanic(t, "NewGroup bad base", func() { ctx.NewGroup(1, 3, 9) })
		mustPanic(t, "Become(nil)", func() { ctx.Become(nil) })
		mustPanic(t, "Migrate out of range", func() { ctx.Migrate(5) })
		// Join guards inside a continuation.
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
			mustPanic(t, "Become in continuation", func() { ctx.Become(&counterBehavior{}) })
			mustPanic(t, "Die in continuation", func() { ctx.Die() })
			mustPanic(t, "Migrate in continuation", func() { ctx.Migrate(0) })
		})
		j.Set(0, nil)
	})
}

func TestRequestData(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	sum := m.RegisterType("sum", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			s := 0.0
			for _, v := range msg.Data {
				s += v
			}
			ctx.Reply(msg, s)
		}}
	})
	v := run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, sum)
		data := make([]float64, amnet.SegWords+88) // more than one bulk segment
		for i := range data {
			data[i] = 1
		}
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) { ctx.Exit(slots[0]) })
		ctx.RequestData(a, selWork, j, 0, data)
	})
	if v != 600.0 {
		t.Fatalf("RequestData sum=%v", v)
	}
}

// TestBulkStateEndsWithRun cuts a run short while its bulk transfers
// still wait for grants: the next run's transfer to the same node must
// not queue behind them.
func TestBulkStateEndsWithRun(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	dumpFlightOnFailure(t, m)
	sum := m.RegisterType("sum", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			s := 0.0
			for _, v := range msg.Data {
				s += v
			}
			ctx.Reply(msg, s)
		}}
	})
	ones := func(n int) []float64 {
		data := make([]float64, n)
		for i := range data {
			data[i] = 1
		}
		return data
	}
	if v, err := m.Run(func(ctx *Context) {
		a := ctx.NewOn(1, sum)
		j := ctx.NewJoin(8, func(ctx *Context, slots []any) {})
		for i := 0; i < 8; i++ {
			ctx.RequestData(a, selWork, j, i, ones(4096))
		}
		ctx.ExitNow("cut short")
	}); err != nil || v != "cut short" {
		t.Fatalf("first run = %v, %v; want cut short", v, err)
	}
	v := run(t, m, func(ctx *Context) {
		a := ctx.NewOn(1, sum)
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) { ctx.Exit(slots[0]) })
		ctx.RequestData(a, selWork, j, 0, ones(1024))
	})
	if v != 1024.0 {
		t.Fatalf("second run sum = %v, want 1024", v)
	}
}

func TestRequestForeignJoinPanics(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	holder := m.RegisterType("holder", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			j := msg.Arg(0).(Join)
			panicked := false
			func() {
				defer func() { panicked = recover() != nil }()
				ctx.Request(ctx.Self(), selWork, j, 0)
			}()
			ctx.Reply(msg, panicked)
		}}
	})
	v := run(t, m, func(ctx *Context) {
		// Build a join on node 0 and smuggle it to node 1.
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {})
		a := ctx.NewOn(1, holder)
		jr := ctx.NewJoin(1, func(ctx *Context, slots []any) { ctx.Exit(slots[0]) })
		ctx.Request(a, selWork, jr, 0, j)
		j.Set(0, nil) // retire the smuggled join's slot
	})
	if v != true {
		t.Fatalf("foreign join Request did not panic (got %v)", v)
	}
}

func TestActorAddrAccessor(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	run(t, m, func(ctx *Context) {
		a := ctx.n.createLocal(&counterBehavior{})
		if a.Addr().IsNil() {
			t.Error("Actor.Addr nil")
		}
		if a.Addr() != a.addr {
			t.Error("Addr mismatch")
		}
	})
}

func TestBehaviorFunc(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	hit := false
	run(t, m, func(ctx *Context) {
		a := ctx.New(BehaviorFunc(func(ctx *Context, msg *Message) { hit = true }))
		ctx.Send(a, 1)
	})
	if !hit {
		t.Fatal("BehaviorFunc not invoked")
	}
}

func TestDebugStringAndDump(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	run(t, m, func(ctx *Context) {
		ctx.Send(ctx.New(&counterBehavior{}), selInc)
	})
	if s := m.nodes[0].debugString(); !strings.Contains(s, "node 0") {
		t.Errorf("debugString: %q", s)
	}
	if d := m.DebugDump(); !strings.Contains(d, "live=") {
		t.Errorf("DebugDump: %q", d)
	}
}

func TestStallDumpSurvivesPurge(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2, StallTimeout: 200 * time.Millisecond})
	_, err := m.Run(func(ctx *Context) {
		a := ctx.New(&neverEnabled{&funcBehavior{f: func(*Context, *Message) {}}})
		ctx.Send(a, selWork)
	})
	if err == nil {
		t.Fatal("expected stall")
	}
	if d := m.DebugDump(); !strings.Contains(d, "pending=1") && !strings.Contains(d, "mailq=1") {
		t.Errorf("stall dump lost the stuck message:\n%s", d)
	}
}
