package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"hal/internal/core"
)

// The three ring workloads: a group of actors passes tokens round and
// round; one operation is one hop (a send and the dispatch it causes).
// They differ only in where the members live: one node, two nodes of one
// in-memory machine, or two one-node machines joined by a unix socket.

const selHop core.Selector = 1

// ringShape is what differs between the ring workloads.
type ringShape struct {
	nodes   int  // nodes the members alternate over
	wire    bool // two machines over a unix socket instead of one machine
	members int
	tokens  int
	hops    int // per round, all tokens together
}

// ringRound is one round's state, shared by the members the round's root
// creates.  Each member is touched only by its node's goroutine; the
// harness reads after Wait.
type ringRound struct {
	members []*ringMember
	last    []time.Time // member 0: when each token last came by
	laps    []float64   // member 0: lap times, µs
}

type ringMember struct {
	rd   *ringRound
	idx  int
	next core.Addr
	hops int64
}

func (m *ringMember) Receive(ctx *core.Context, msg *core.Message) {
	m.hops++
	tok, ttl := msg.Int(0), msg.Int(1)
	if m.idx == 0 {
		now := time.Now()
		if last := m.rd.last[tok]; !last.IsZero() {
			m.rd.laps = append(m.rd.laps, float64(now.Sub(last))/1e3)
		}
		m.rd.last[tok] = now
	}
	if ttl > 1 {
		ctx.Send(m.next, selHop, tok, ttl-1)
	}
}

type ringRig struct {
	e     *env
	shape ringShape
	m     *core.Machine // the machine programs load on (the pair's leader, if wire)
	pair  *pair
	typ   core.TypeID
	// cur is the round whose members the type constructor is populating;
	// constructors run on node goroutines of either machine.
	cur    atomic.Pointer[ringRound]
	laps   []float64 // reused across rounds
	prevVT float64
	t      tally
}

func openRing(e *env, s ringShape) (rig, error) {
	g := &ringRig{e: e, shape: s}
	g.shape.hops = e.div(s.hops)
	register := func(m *core.Machine) {
		typ := m.RegisterType("ring-member", func(args []any) core.Behavior {
			idx, grp := args[0].(int), args[1].(core.Group)
			mem := &ringMember{rd: g.cur.Load(), idx: idx, next: grp.Member((idx + 1) % grp.N)}
			mem.rd.members[idx] = mem
			return mem
		})
		g.typ = typ
	}
	var err error
	if s.wire {
		if g.pair, err = openPair(e, register); err != nil {
			return nil, err
		}
		g.m = g.pair.leader
	} else if g.m, err = startMachine(e, machineConfig(e, s.nodes), register); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *ringRig) round(r int) (roundOut, error) {
	s := g.shape
	rd := &ringRound{
		members: make([]*ringMember, s.members),
		last:    make([]time.Time, s.tokens),
		laps:    g.laps[:0],
	}
	g.cur.Store(rd)
	rng := rand.New(rand.NewSource(g.e.seed + int64(r)))
	starts := make([]int, s.tokens)
	for i := range starts {
		starts[i] = rng.Intn(s.members)
	}
	// However small the scale, every token comes by member 0 twice.
	per := max(s.hops/s.tokens, 2*s.members)
	_, _, err := runProgram(g.e, g.m, func(ctx *core.Context) {
		grp := ctx.NewGroup(g.typ, s.members, 0)
		for tok, at := range starts {
			ctx.Send(grp.Member(at), selHop, tok, per)
		}
	})
	g.laps = rd.laps
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{ops: int64(per * s.tokens), lat: rd.laps}
	var hops int64
	for _, m := range rd.members {
		if m != nil {
			hops += m.hops
		}
	}
	bad := hops != out.ops+int64(g.e.off()) || unhealthyNow(g.m)
	if g.pair != nil {
		bad = bad || unhealthyNow(g.pair.worker)
	}
	if bad {
		out.failed = out.ops
	}
	vt := virtUS(g.m)
	if g.pair != nil {
		vt = virtUS(g.m, g.pair.worker)
	}
	out.virtUS, g.prevVT = vt-g.prevVT, vt
	g.t.ops += out.ops
	return out, nil
}

func (g *ringRig) close() tally {
	if g.pair != nil {
		g.pair.close(&g.t)
	} else {
		shutdown(g.e, g.m)
		g.t.addMachine(g.m)
	}
	return g.t
}
