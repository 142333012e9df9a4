package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hal/internal/amnet"
)

func TestRunReturnsExitValue(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	v := run(t, m, func(ctx *Context) { ctx.Exit(42) })
	if v != 42 {
		t.Fatalf("Run returned %v, want 42", v)
	}
}

func TestRunQuiescesWithoutExit(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	v := run(t, m, func(ctx *Context) {})
	if v != nil {
		t.Fatalf("Run returned %v, want nil", v)
	}
}

func TestRunExitNow(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	v := run(t, m, func(ctx *Context) { ctx.ExitNow("bye") })
	if v != "bye" {
		t.Fatalf("Run returned %v, want bye", v)
	}
}

func TestMachineSequentialRuns(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	for i := 0; i < 5; i++ {
		v := run(t, m, func(ctx *Context) { ctx.Exit(i) })
		if v != i {
			t.Fatalf("run %d returned %v", i, v)
		}
	}
}

func TestRunRejectsConcurrent(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	gate := make(chan struct{})
	go func() {
		_, _ = m.Run(func(ctx *Context) { <-gate })
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Run(func(ctx *Context) {}); err == nil {
		t.Error("concurrent Run did not fail")
	}
	close(gate)
	time.Sleep(20 * time.Millisecond)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewMachine(Config{Nodes: 0}); err == nil {
		t.Error("NewMachine accepted 0 nodes")
	}
}

// TestConfigSurface counts the settable values.  A field stays only while
// two callers that are not tests or examples need it to differ (the
// simplicity-review guide's options rule); every other value is a
// constant.  Adding a field means editing a number here and in ROADMAP's
// state table, on purpose.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{Config{}, 18},
		{DistConfig{}, 4},
		{amnet.FaultPlan{}, 5},
	} {
		if typ := reflect.TypeOf(c.v); typ.NumField() != c.want {
			t.Errorf("%v has %d fields, want %d", typ, typ.NumField(), c.want)
		}
	}
}

// TestVirtualTimeGolden runs a one-node program whose virtual makespan has
// a closed form: on one node every charge lands on the one clock and no
// arrival stamp is ever ahead of it, so the makespan is the sum of the
// costs charged.  The costs themselves are pinned to the paper's Table 2
// calibration, which is what catches a mistyped constant.
func TestVirtualTimeGolden(t *testing.T) {
	c := DefaultCostModel()
	paper := CostModel{
		Dispatch: 2, LocalSend: 3, RemoteSend: 6, FastSend: 1, NetLatency: 6, PerWord: 0.8,
		CreateLocal: 5, CreateAlias: 5.83, CreateServe: 15, Lookup: 1, Reply: 2, Migrate: 25, Steal: 4,
	}
	if c != paper {
		t.Fatalf("cost model %+v, want the Table 2 calibration %+v", c, paper)
	}

	const creates, sends, fasts = 3, 5, 4
	m := testMachine(t, Config{Nodes: 1})
	run(t, m, func(ctx *Context) {
		var a Addr
		for i := 0; i < creates; i++ {
			a = ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) { ctx.Reply(msg, 1) }})
		}
		for i := 0; i < sends; i++ {
			ctx.Send(a, selWork)
		}
		for i := 0; i < fasts; i++ {
			if !ctx.SendFast(a, selWork) {
				t.Error("SendFast to a local idle actor missed the fast path")
			}
		}
		j := ctx.NewJoin(1, func(*Context, []any) {})
		ctx.Request(a, selWork, j, 0)
	})
	// The root actor is created and dispatched by the program load; every
	// queued message (the sends and the request) is dispatched once, the
	// fast sends not at all; the request is answered and its continuation
	// dispatched.
	want := (1+creates)*c.CreateLocal + (sends+1)*c.LocalSend + fasts*c.FastSend +
		(1+sends+1+1)*c.Dispatch + c.Reply
	if got := m.VirtualTime(); got != time.Duration(want*float64(time.Microsecond)) {
		t.Errorf("virtual makespan %v, want %vµs", got, want)
	}
}

func TestRegisterTypeDuplicatePanics(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	m.RegisterType("x", func(args []any) Behavior { return &counterBehavior{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterType did not panic")
		}
	}()
	m.RegisterType("x", func(args []any) Behavior { return &counterBehavior{} })
}

func TestTypeByName(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	id := m.RegisterType("counter", func(args []any) Behavior { return &counterBehavior{} })
	if m.TypeByName("counter") != id {
		t.Error("TypeByName mismatch")
	}
	if m.TypeByName("nope") != 0 {
		t.Error("unknown name returned nonzero id")
	}
}

func TestStallDetection(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2, StallTimeout: 200 * time.Millisecond})
	// A message whose constraint never enables: the machine must report
	// a stall rather than hang.
	never := &funcBehavior{f: func(ctx *Context, msg *Message) {}}
	_, err := m.Run(func(ctx *Context) {
		a := ctx.New(&neverEnabled{never})
		ctx.Send(a, selWork, 1)
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err=%v, want ErrStalled", err)
	}
}

type neverEnabled struct{ inner Behavior }

func (b *neverEnabled) Receive(ctx *Context, msg *Message) { b.inner.Receive(ctx, msg) }
func (b *neverEnabled) Enabled(sel Selector) bool          { return false }

func TestPrintfReachesFrontEnd(t *testing.T) {
	var buf bytes.Buffer
	m := testMachine(t, Config{Nodes: 2, Out: &buf})
	run(t, m, func(ctx *Context) {
		ctx.Printf("hello %d", 7)
	})
	if got := buf.String(); got != "hello 7" {
		t.Fatalf("front end got %q", got)
	}
}

func TestManyNodesQuiesce(t *testing.T) {
	m := testMachine(t, Config{Nodes: 16})
	var hits atomic.Int64
	m.RegisterType("h", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) { hits.Add(1) }}
	})
	run(t, m, func(ctx *Context) {
		for i := 0; i < 16; i++ {
			a := ctx.NewOn(i, m.TypeByName("h"))
			ctx.Send(a, selWork)
		}
	})
	if hits.Load() != 16 {
		t.Fatalf("hits=%d want 16", hits.Load())
	}
}

func TestStatsAfterRun(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	run(t, m, func(ctx *Context) {
		a := ctx.New(&counterBehavior{})
		for i := 0; i < 10; i++ {
			ctx.Send(a, selInc)
		}
	})
	s := m.Stats()
	if s.Total.Delivered < 10 {
		t.Errorf("Delivered=%d want >=10", s.Total.Delivered)
	}
	if s.Total.CreatesLocal < 2 { // root + counter
		t.Errorf("CreatesLocal=%d want >=2", s.Total.CreatesLocal)
	}
	if fmt.Sprint(s) == "" {
		t.Error("empty stats string")
	}
}

func TestRunAfterExitNowFails(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	// Leave in-flight work behind with ExitNow.
	sink := m.RegisterType("sink", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {}}
	})
	_, _ = m.Run(func(ctx *Context) {
		a := ctx.NewOn(1, sink)
		for i := 0; i < 100; i++ {
			ctx.Send(a, selWork, i)
		}
		ctx.ExitNow(nil)
	})
	if _, err := m.Run(func(ctx *Context) {}); err == nil {
		t.Log("machine drained everything before ExitNow; dirtiness is timing-dependent")
	}
}
