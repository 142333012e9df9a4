// Tests of the public API surface: everything a downstream user touches,
// exercised exactly as the README shows.
package hal_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"hal"
)

func testConfig(nodes int) hal.Config {
	cfg := hal.DefaultConfig(nodes)
	cfg.Out = io.Discard
	cfg.StallTimeout = 20 * time.Second
	return cfg
}

func TestReadmeQuickstart(t *testing.T) {
	m, err := hal.NewMachine(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	echo := m.RegisterType("echo", func(args []any) hal.Behavior {
		return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
			ctx.Reply(msg, ctx.Node())
		})
	})
	result, err := m.Run(func(ctx *hal.Context) {
		a := ctx.NewOn(3, echo)
		j := ctx.NewJoin(1, func(ctx *hal.Context, slots []any) {
			ctx.Exit(slots[0])
		})
		ctx.Request(a, 1, j, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != 3 {
		t.Fatalf("result %v, want 3", result)
	}
}

func TestPublicGroupBroadcast(t *testing.T) {
	m, err := hal.NewMachine(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	heard := map[int]bool{}
	member := m.RegisterType("member", func(args []any) hal.Behavior {
		idx := args[0].(int)
		return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
			mu.Lock()
			heard[idx] = true
			mu.Unlock()
		})
	})
	if _, err := m.Run(func(ctx *hal.Context) {
		g := ctx.NewGroup(member, 7, 0)
		ctx.Broadcast(g, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if len(heard) != 7 {
		t.Fatalf("heard %d members, want 7", len(heard))
	}
}

func TestPublicConstrainedBehavior(t *testing.T) {
	m, err := hal.NewMachine(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	if _, err := m.Run(func(ctx *hal.Context) {
		g := &gate{order: &order}
		a := ctx.New(g)
		ctx.Send(a, 2, "work") // disabled until opened
		ctx.Send(a, 1)         // opens
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "open" || order[1] != "work" {
		t.Fatalf("constraint order: %v", order)
	}
}

// gate demonstrates the Constrained interface from outside the module's
// internals.
type gate struct {
	open  bool
	order *[]string
}

func (g *gate) Enabled(sel hal.Selector) bool { return sel != 2 || g.open }

func (g *gate) Receive(ctx *hal.Context, msg *hal.Message) {
	switch msg.Sel {
	case 1:
		g.open = true
		*g.order = append(*g.order, "open")
	case 2:
		*g.order = append(*g.order, msg.Arg(0).(string))
	}
}

func TestPublicMultiProgram(t *testing.T) {
	m, err := hal.NewMachine(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var progs []*hal.Program
	for i := 0; i < 5; i++ {
		p, err := m.Launch(func(ctx *hal.Context) { ctx.Exit(fmt.Sprintf("p%d", i)) })
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for i, p := range progs {
		v, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if v != fmt.Sprintf("p%d", i) {
			t.Fatalf("program %d returned %v", i, v)
		}
	}
}

func TestPublicVirtualTimeAndStats(t *testing.T) {
	m, err := hal.NewMachine(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(ctx *hal.Context) {
		ctx.Charge(3 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if m.VirtualTime() < 3*time.Millisecond {
		t.Fatalf("virtual time %v below charged work", m.VirtualTime())
	}
	if m.Stats().Total.Delivered == 0 {
		t.Fatal("stats empty")
	}
	if hal.DefaultCostModel().CreateAlias != 5.83 {
		t.Fatal("default cost model not the paper calibration")
	}
}

func TestPublicClonerMigration(t *testing.T) {
	m, err := hal.NewMachine(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cloned := 0
	mover := m.RegisterType("mover", func(args []any) hal.Behavior {
		return &clonable{cloned: &cloned}
	})
	if _, err := m.Run(func(ctx *hal.Context) {
		a := ctx.NewOn(0, mover)
		ctx.Send(a, 1) // migrate to 1
		ctx.Send(a, 2) // ping at new home
	}); err != nil {
		t.Fatal(err)
	}
	if cloned != 1 {
		t.Fatalf("CloneBehavior called %d times, want 1", cloned)
	}
}

type clonable struct {
	cloned *int
	state  int
}

func (c *clonable) Receive(ctx *hal.Context, msg *hal.Message) {
	if msg.Sel == 1 {
		c.state = 42
		ctx.Migrate(1)
	}
}

func (c *clonable) CloneBehavior() hal.Behavior {
	*c.cloned++
	cp := *c
	return &cp
}
