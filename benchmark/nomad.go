package main

import (
	"math/rand"
	"time"

	"hal/internal/core"
)

// nomad: the paper's headline path.  Targets migrate to the next node
// after every nomadStay pings while closed-loop senders on every node keep
// requesting them through caches that go stale: held messages, FIRs and
// cache repair.  One operation is one ping (request and reply).  A machine
// lives for one round, because every migration leaves a forwarder behind.

const (
	selPing core.Selector = 2

	nomadNodes   = 4
	nomadTargets = 16
	nomadSenders = 8 // per node
	nomadStay    = 32
)

type nomadRig struct {
	e     *env
	pings int // per sender per round
	last  *core.Machine
	lat   []float64 // reused across rounds
	t     tally
}

// nomadTarget answers a ping with the node it ran on and how many pings
// it has served, which together say where the migration protocol should
// have put it.
type nomadTarget struct{ served int }

func (t *nomadTarget) Receive(ctx *core.Context, msg *core.Message) {
	t.served++
	ctx.Reply(msg, ctx.Node()|t.served<<8)
	if t.served%nomadStay == 0 {
		ctx.Migrate((ctx.Node() + 1) % nomadNodes)
	}
}

type nomadSender struct {
	g         *nomadRig
	target    core.Addr
	home      int // node the target was created on
	done, bad int
	onReply   core.JoinFunc
	sent      time.Time
	lat       []float64
}

func (s *nomadSender) Receive(ctx *core.Context, msg *core.Message) {
	s.target, s.home = msg.Addr(0), msg.Int(1)
	s.ping(ctx)
}

func (s *nomadSender) ping(ctx *core.Context) {
	s.sent = time.Now()
	ctx.Request(s.target, selPing, ctx.NewJoin(1, s.onReply), 0)
}

func (s *nomadSender) replied(ctx *core.Context, slots []any) {
	s.lat = append(s.lat, float64(time.Since(s.sent))/1e3)
	s.done++
	v, ok := slots[0].(int)
	node, served := v&0xff, v>>8
	if !ok || node != (s.home+(served-1)/nomadStay+s.g.e.off())%nomadNodes {
		s.bad++
	}
	if s.done < s.g.pings {
		s.ping(ctx)
	}
}

func openNomad(e *env) (rig, error) {
	// However small the scale, every target still migrates a few times.
	pings := max(e.div(20000)/(nomadNodes*nomadSenders), 2*nomadStay)
	return &nomadRig{e: e, pings: pings}, nil
}

func (g *nomadRig) round(r int) (roundOut, error) {
	cfg := machineConfig(g.e, nomadNodes)
	cfg.Seed = g.e.seed + int64(r)
	senders := make([]*nomadSender, nomadNodes*nomadSenders)
	var target, sender core.TypeID
	m, err := startMachine(g.e, cfg, func(m *core.Machine) {
		target = m.RegisterType("nomad-target", func([]any) core.Behavior { return &nomadTarget{} })
		sender = m.RegisterType("nomad-sender", func(args []any) core.Behavior {
			s := &nomadSender{g: g, lat: make([]float64, 0, g.pings)}
			s.onReply = s.replied
			senders[args[0].(int)] = s
			return s
		})
	})
	if err != nil {
		return roundOut{}, err
	}
	g.last = m // referenced until the next round, so its forwarders are in heap_mb
	// Sender i pings target assign[i]: a seeded two-to-one matching.
	assign := rand.New(rand.NewSource(cfg.Seed)).Perm(len(senders))
	_, _, err = runProgram(g.e, m, func(ctx *core.Context) {
		targets := make([]core.Addr, nomadTargets)
		for i := range targets {
			targets[i] = ctx.NewOn(i%nomadNodes, target)
		}
		for i := range senders {
			t := assign[i] % nomadTargets
			ctx.Send(ctx.NewOn(i%nomadNodes, sender, i), selStart, targets[t], t%nomadNodes)
		}
	})
	shutdown(g.e, m)
	if err != nil {
		return roundOut{}, err
	}
	g.lat = g.lat[:0]
	bad := g.t.addMachine(m)
	for _, s := range senders {
		bad = bad || s == nil || s.bad > 0 || s.done != g.pings
		if s != nil {
			g.lat = append(g.lat, s.lat...)
		}
	}
	out := roundOut{ops: int64(len(senders) * g.pings), lat: g.lat, virtUS: virtUS(m)}
	if bad {
		out.failed = out.ops
	}
	g.t.ops += out.ops
	return out, nil
}

func (g *nomadRig) close() tally {
	g.last = nil
	return g.t
}
