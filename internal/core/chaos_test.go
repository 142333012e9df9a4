package core

import (
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hal/internal/amnet"
)

// The chaos test drives the kernel with a randomized mixture of every
// mechanism — sends, fast sends, deferred/remote/local creation, groups,
// broadcasts, requests, migration, become, die — and checks the global
// accounting invariant: the machine quiesces (no stall), and every
// accounted message was either delivered or dead-lettered.
//
// chaosActor's behavior is driven by a deterministic per-actor RNG, so a
// failure reproduces under the same top-level seed (modulo steal
// placement).

type chaosActor struct {
	rng     *rand.Rand
	typ     TypeID
	depth   int
	group   *Group
	stats   *chaosStats
	stopped bool
}

type chaosStats struct {
	delivered atomic.Int64
	spawned   atomic.Int64
}

const (
	selChaos Selector = 100 + iota
	selChaosReply
)

func (c *chaosActor) Receive(ctx *Context, msg *Message) {
	c.stats.delivered.Add(1)
	switch msg.Sel {
	case selChaosReply:
		ctx.Reply(msg, 1)
		return
	case selChaos:
	default:
		return
	}
	if c.depth <= 0 || c.stopped {
		if c.rng.Intn(3) == 0 {
			ctx.Die()
		}
		return
	}
	ctx.Charge(time.Duration(c.rng.Intn(20)) * time.Microsecond)
	for i, k := 0, c.rng.Intn(3)+1; i < k; i++ {
		switch c.rng.Intn(10) {
		case 0, 1: // deferred creation + send
			a := ctx.NewAuto(c.typ, c.depth-1)
			ctx.Send(a, selChaos)
			c.stats.spawned.Add(1)
		case 2: // explicit remote creation + send
			a := ctx.NewOn(c.rng.Intn(ctx.Nodes()), c.typ, c.depth-1)
			ctx.Send(a, selChaos)
			c.stats.spawned.Add(1)
		case 3: // local creation + fast send
			a := ctx.NewType(c.typ, c.depth-1)
			ctx.SendFast(a, selChaos)
			c.stats.spawned.Add(1)
		case 4: // request/reply to self-created child
			a := ctx.NewAuto(c.typ, 0)
			j := ctx.NewJoin(1, func(ctx *Context, slots []any) {})
			ctx.Request(a, selChaosReply, j, 0)
			c.stats.spawned.Add(1)
		case 5: // migrate somewhere
			ctx.Migrate(c.rng.Intn(ctx.Nodes()))
		case 6: // become a stopped variant
			stopped := *c
			stopped.stopped = true
			ctx.Become(&stopped)
		case 7: // group + broadcast
			if c.depth >= 2 && c.group == nil {
				g := ctx.NewGroup(c.typ, c.rng.Intn(5)+2, c.rng.Intn(ctx.Nodes()), 0)
				c.group = &g
				ctx.Broadcast(g, selChaos)
			}
		case 8: // bulk data send to a fresh actor
			a := ctx.NewAuto(c.typ, 0)
			data := make([]float64, c.rng.Intn(600))
			ctx.SendData(a, selChaos, data)
			c.stats.spawned.Add(1)
		case 9: // plain self message
			ctx.Send(ctx.Self(), selChaos)
		}
	}
}

func TestChaos(t *testing.T) {
	for _, cfgCase := range []struct {
		name string
		cfg  Config
	}{
		{"plain-2", Config{Nodes: 2}},
		{"lb-4", Config{Nodes: 4, LoadBalance: true}},
		{"noflow-3", Config{Nodes: 3, DisableLDCache: true}},
		{"naive-4", Config{Nodes: 4, NaiveForwarding: true}},
		{"small-inbox", Config{Nodes: 4, InboxCap: 16, LoadBalance: true}},
	} {
		t.Run(cfgCase.name, func(t *testing.T) {
			cfg := cfgCase.cfg
			cfg.StallTimeout = 30 * time.Second
			cfg.TraceBuffer = 2048 // feeds the on-failure flight record
			m := testMachine(t, cfg)
			dumpFlightOnFailure(t, m)
			st, typ := registerChaosType(m, 12345)
			_, err := m.Run(func(ctx *Context) {
				for i := 0; i < 6; i++ {
					ctx.Send(ctx.NewAuto(typ, 4), selChaos)
				}
			})
			if err != nil {
				t.Fatalf("chaos run failed: %v\n%s", err, m.DebugDump())
			}
			s := m.Stats()
			// Conservation: everything accounted was delivered or
			// dropped; nothing is left live.
			if st.delivered.Load() == 0 {
				t.Fatal("chaos did nothing")
			}
			t.Logf("delivered=%d spawned=%d deadletters=%d migrations=%d steals=%d",
				st.delivered.Load(), st.spawned.Load(), s.Total.DeadLetters,
				s.Total.Migrations, s.Total.StealHits)
		})
	}
}

// registerChaosType wires a chaosActor type into m with per-actor RNGs
// derived from seed.
func registerChaosType(m *Machine, seed int64) (*chaosStats, TypeID) {
	st := &chaosStats{}
	var typ TypeID
	typ = m.RegisterType("chaos", func(args []any) Behavior {
		depth := 0
		if len(args) > 2 {
			// group member: args are [idx, group, depth]
			depth = args[2].(int)
		} else if len(args) > 0 {
			if d, ok := args[0].(int); ok {
				depth = d
			}
		}
		return &chaosActor{
			rng:   rand.New(rand.NewSource(atomic.AddInt64(&seed, 1))),
			typ:   typ,
			depth: depth,
			stats: st,
		}
	})
	return st, typ
}

// chaosSeed overrides the fault-injection seeds of TestChaosFaults, to
// reproduce a failure: go test -run TestChaosFaults -chaos.seed=N
var chaosSeed = flag.Int64("chaos.seed", 0, "fault seed override for TestChaosFaults (0 = built-in seeds)")

// TestChaosFaults runs the same randomized workload over a faulty network:
// links keep being cut (held and replayed in order, while other links
// overtake them), and one node periodically stops polling.  The links
// recover on their own, so the kernel must come through with nothing
// lost: the machine quiesces without a stall, the live count returns to
// zero, and no message is dead-lettered.
func TestChaosFaults(t *testing.T) {
	seeds := []int64{1, 0x5eed, 987654321}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := Config{
				Nodes:        4,
				LoadBalance:  true,
				StallTimeout: 60 * time.Second,
				Faults: &amnet.FaultPlan{
					Cut:        0.09,
					PauseEvery: 2 * time.Millisecond,
					PauseDur:   500 * time.Microsecond,
					PauseNodes: []amnet.NodeID{1},
					Seed:       seed,
				},
			}
			cfg.TraceBuffer = 2048 // feeds the on-failure flight record
			m := testMachine(t, cfg)
			dumpFlightOnFailure(t, m)
			st, typ := registerChaosType(m, seed)
			_, err := m.Run(func(ctx *Context) {
				for i := 0; i < 10; i++ {
					ctx.Send(ctx.NewAuto(typ, 5), selChaos)
				}
			})
			if err != nil {
				t.Fatalf("faulty chaos run failed (reproduce: -chaos.seed=%d): %v\n%s",
					seed, err, m.DebugDump())
			}
			if live := m.live.sum(); live != 0 {
				t.Fatalf("quiesced with %d live units (reproduce: -chaos.seed=%d)", live, seed)
			}
			if st.delivered.Load() == 0 {
				t.Fatal("chaos did nothing")
			}
			s := m.Stats()
			if s.Total.Net.Cuts == 0 {
				t.Fatalf("fault plan cut no link (seed=%d)", seed)
			}
			if s.Total.DeadLetters != 0 {
				t.Errorf("%d dead letters under a plan that loses nothing (seed=%d)", s.Total.DeadLetters, seed)
			}
			t.Logf("seed=%d delivered=%d | %s", seed, st.delivered.Load(), s.FaultSummary())
		})
	}
}
