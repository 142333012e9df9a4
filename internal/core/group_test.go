package core

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"hal/internal/amnet"
)

// memberProbe records (memberIndex, node) pairs.
type memberProbe struct {
	mu   sync.Mutex
	seen map[int][]int // member index -> nodes that ran it, in order
}

func newMemberProbe() *memberProbe { return &memberProbe{seen: map[int][]int{}} }

func (p *memberProbe) add(idx, node int) {
	p.mu.Lock()
	p.seen[idx] = append(p.seen[idx], node)
	p.mu.Unlock()
}

func (p *memberProbe) counts() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[int]int{}
	for k, v := range p.seen {
		out[k] = len(v)
	}
	return out
}

// groupMember records its index (ctor arg 0) and reports deliveries.
type groupMember struct {
	idx int
	p   *memberProbe
}

func (g *groupMember) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selWork:
		g.p.add(g.idx, ctx.Node())
	case selEcho:
		ctx.Reply(msg, g.idx)
	case selPing:
		ctx.Migrate(msg.Int(0))
	}
}

func registerGroupMember(m *Machine, p *memberProbe) TypeID {
	return m.RegisterType("member", func(args []any) Behavior {
		return &groupMember{idx: args[0].(int), p: p}
	})
}

// TestGroupPlacement: member i lands on node (base+i) mod P.
func TestGroupPlacement(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 10, 1)
		for i := 0; i < 10; i++ {
			ctx.Send(g.Member(i), selWork)
		}
	})
	for i := 0; i < 10; i++ {
		nodes := p.seen[i]
		if len(nodes) != 1 {
			t.Fatalf("member %d ran %d times", i, len(nodes))
		}
		if want := (1 + i) % 4; nodes[0] != want {
			t.Errorf("member %d on node %d, want %d", i, nodes[0], want)
		}
	}
}

// TestGroupMemberAddressesImmediatelyUsable: the group handle alone names
// members; sends injected before any member exists still arrive.
func TestGroupMemberAddressesImmediatelyUsable(t *testing.T) {
	m := testMachine(t, Config{Nodes: 8})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 8, 0)
		// Hand member addresses to a remote actor that races the
		// creation fan-out.
		racer := ctx.New(&funcBehavior{f: func(ctx *Context, msg *Message) {
			gg := msg.Group(0)
			for i := 0; i < gg.N; i++ {
				ctx.Send(gg.Member(i), selWork)
			}
		}})
		ctx.Send(racer, selInit, g)
	})
	c := p.counts()
	for i := 0; i < 8; i++ {
		if c[i] != 1 {
			t.Errorf("member %d deliveries=%d want 1", i, c[i])
		}
	}
}

// TestBroadcastReachesAllMembers over multiple nodes, member count not a
// multiple of P, from a non-creator broadcaster.
func TestBroadcastReachesAllMembers(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	caster := m.RegisterType("caster", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			ctx.Broadcast(msg.Group(0), selWork)
		}}
	})
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 11, 0)
		c := ctx.NewOn(2, caster)
		ctx.Send(c, selInit, g)
	})
	counts := p.counts()
	if len(counts) != 11 {
		t.Fatalf("%d members heard the broadcast, want 11", len(counts))
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("member %d heard %d copies", i, c)
		}
	}
	s := m.Stats()
	if s.Total.Broadcasts != 1 {
		t.Errorf("Broadcasts=%d want 1", s.Total.Broadcasts)
	}
	if s.Total.BcastRelays == 0 {
		t.Error("broadcast never used the spanning tree")
	}
}

// TestBroadcastSharedArgs: every member sees the same argument values,
// whether the list rides in the message's inline words (each member's clone
// copies them) or in its overflow list (the clones share it).
func TestBroadcastSharedArgs(t *testing.T) {
	m := testMachine(t, Config{Nodes: 3})
	p := &probe{}
	var root Addr
	mt := m.RegisterType("argmember", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			if msg.NArgs() == 3 && (msg.Arg(1) != "shared" || msg.Addr(2) != root) {
				t.Errorf("overflow arguments arrived as %v, %v", msg.Arg(1), msg.Arg(2))
			}
			p.add(msg.Int(0))
		}}
	})
	run(t, m, func(ctx *Context) {
		root = ctx.Self()
		g := ctx.NewGroup(mt, 6, 0)
		ctx.Broadcast(g, selWork, 99)
		ctx.Broadcast(g, selWork, 99, "shared", root)
	})
	vals := p.snapshot()
	if len(vals) != 12 {
		t.Fatalf("got %d deliveries", len(vals))
	}
	for _, v := range vals {
		if v != 99 {
			t.Fatalf("bad arg %v", v)
		}
	}
}

// TestBroadcastDataPayload: broadcasts can carry a float payload.
func TestBroadcastDataPayload(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p := &probe{}
	mt := m.RegisterType("datamember", func(args []any) Behavior {
		return &funcBehavior{f: func(ctx *Context, msg *Message) {
			sum := 0.0
			for _, v := range msg.Data {
				sum += v
			}
			p.add(sum)
		}}
	})
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 4, 0)
		ctx.BroadcastData(g, selWork, []float64{1, 2, 3, 4})
	})
	vals := p.snapshot()
	if len(vals) != 4 {
		t.Fatalf("got %d", len(vals))
	}
	for _, v := range vals {
		if v != 10.0 {
			t.Fatalf("bad sum %v", v)
		}
	}
}

// TestGroupRequestReply: members answer requests; a join gathers them.
func TestGroupRequestReply(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	v := run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 6, 0)
		j := ctx.NewJoin(6, func(ctx *Context, slots []any) {
			sum := 0
			for _, s := range slots {
				sum += s.(int)
			}
			ctx.Exit(sum)
		})
		for i := 0; i < 6; i++ {
			ctx.Request(g.Member(i), selEcho, j, i)
		}
	})
	if v != 0+1+2+3+4+5 {
		t.Fatalf("gather sum=%v", v)
	}
}

// TestGroupMemberMigratesStillReachesPointToPoint: a migrated member keeps
// receiving point-to-point traffic addressed by its group alias.
func TestGroupMemberMigration(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 4, 0)
		// Move member 1 (node 1) to node 3, confirmed by an echo, then
		// send it work.
		ctx.Send(g.Member(1), selPing, 3)
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
			ctx.Send(g.Member(1), selWork)
		})
		ctx.Request(g.Member(1), selEcho, j, 0)
	})
	nodes := p.seen[1]
	if len(nodes) != 1 || nodes[0] != 3 {
		t.Fatalf("migrated member work ran at %v, want [3]", nodes)
	}
}

// TestBroadcastToMigratedMember: broadcasts fall back to routed copies for
// members that left their home node.
func TestBroadcastToMigratedMember(t *testing.T) {
	m := testMachine(t, Config{Nodes: 4})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 4, 0)
		ctx.Send(g.Member(2), selPing, 0) // 2 -> 0
		j := ctx.NewJoin(1, func(ctx *Context, slots []any) {
			ctx.Broadcast(g, selWork)
		})
		ctx.Request(g.Member(2), selEcho, j, 0)
	})
	counts := p.counts()
	for i := 0; i < 4; i++ {
		if counts[i] != 1 {
			t.Errorf("member %d got %d broadcast copies, want 1", i, counts[i])
		}
	}
	if got := p.seen[2]; len(got) != 1 || got[0] != 0 {
		t.Errorf("migrated member heard broadcast at %v, want [0]", got)
	}
}

// TestGroupOnSingleNode degenerates gracefully.
func TestGroupOnSingleNode(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := newMemberProbe()
	mt := registerGroupMember(m, p)
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 5, 0)
		ctx.Broadcast(g, selWork)
	})
	if len(p.counts()) != 5 {
		t.Fatalf("members heard: %v", p.counts())
	}
}

// TestGroupMemberOutOfRangePanics.
func TestGroupMemberOutOfRangePanics(t *testing.T) {
	g := Group{N: 3, Nodes: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Member(3) did not panic")
		}
	}()
	g.Member(3)
}

// TestTwoGroupsIndependent: broadcasts address only their own group.
func TestTwoGroupsIndependent(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	p1 := newMemberProbe()
	p2 := newMemberProbe()
	mt1 := m.RegisterType("m1", func(args []any) Behavior { return &groupMember{idx: args[0].(int), p: p1} })
	mt2 := m.RegisterType("m2", func(args []any) Behavior { return &groupMember{idx: args[0].(int), p: p2} })
	run(t, m, func(ctx *Context) {
		g1 := ctx.NewGroup(mt1, 4, 0)
		g2 := ctx.NewGroup(mt2, 4, 0)
		ctx.Broadcast(g1, selWork)
		_ = g2
	})
	if len(p1.counts()) != 4 {
		t.Errorf("g1 heard %v", p1.counts())
	}
	if len(p2.counts()) != 0 {
		t.Errorf("g2 heard %v, want nothing", p2.counts())
	}
}

// TestCollectiveSchedulingBatches: with collective scheduling the local
// members of one broadcast run consecutively; we check they at least all
// run and the sorted order covers every index (scheduling-order assertions
// are node-local).
func TestCollectiveSchedulingOrder(t *testing.T) {
	m := testMachine(t, Config{Nodes: 1})
	p := &probe{}
	mt := m.RegisterType("seq", func(args []any) Behavior {
		idx := args[0].(int)
		return &funcBehavior{f: func(ctx *Context, msg *Message) { p.add(idx) }}
	})
	run(t, m, func(ctx *Context) {
		g := ctx.NewGroup(mt, 8, 0)
		ctx.Broadcast(g, selWork)
	})
	vals := p.snapshot()
	ints := make([]int, len(vals))
	for i, v := range vals {
		ints[i] = v.(int)
	}
	// On one node, collective scheduling delivers members in index order.
	if !sort.IntsAreSorted(ints) {
		t.Errorf("collective delivery out of order: %v", ints)
	}
	if len(ints) != 8 {
		t.Errorf("deliveries=%d want 8", len(ints))
	}
}

// TestGroupMemberArithmetic compares the closed forms handleGroupCreate
// and subtreeMembers use (a node's members stride by Nodes from firstOn;
// a subtree's count sums membersOn over its contiguous relative range)
// with the scan over all N members they replaced.
func TestGroupMemberArithmetic(t *testing.T) {
	scanSubtree := func(g Group, root, child amnet.NodeID, p int) int64 {
		var cnt int64
		for i := 0; i < g.N; i++ {
			for x := g.home(i); x != amnet.NoNode; x = amnet.TreeParent(root, x, p) {
				if x == child {
					cnt++
					break
				}
			}
		}
		return cnt
	}
	for _, p := range []int{1, 2, 5, 8} {
		for _, n := range []int{1, p - 1, p, p + 1, 10*p + 3} {
			if n < 1 {
				continue
			}
			for base := 0; base < p; base++ {
				g := Group{N: n, Base: amnet.NodeID(base), Nodes: p}
				for x := amnet.NodeID(0); int(x) < p; x++ {
					var want []int
					for i := 0; i < n; i++ {
						if g.home(i) == x {
							want = append(want, i)
						}
					}
					var got []int
					for i := g.firstOn(x); i < n; i += p {
						got = append(got, i)
					}
					if !slices.Equal(got, want) || g.membersOn(x) != int64(len(want)) {
						t.Fatalf("P=%d N=%d Base=%d node %d: stride %v (membersOn %d), scan %v",
							p, n, base, x, got, g.membersOn(x), want)
					}
					for root := amnet.NodeID(0); int(root) < p; root++ {
						if got, want := subtreeMembers(g, root, x, p), scanSubtree(g, root, x, p); got != want {
							t.Fatalf("P=%d N=%d Base=%d root %d child %d: subtreeMembers %d, scan %d",
								p, n, base, root, x, got, want)
						}
					}
				}
			}
		}
	}
}
