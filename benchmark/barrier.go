package main

import (
	"time"

	"hal/internal/core"
)

// barrier: workers on node 0 request a barrier actor on node 1, which
// replies to all of them in one method when the last arrives.  One
// operation is one request (with its reply).  The replies are word-encoded
// ints leaving one node in a burst, so they are what SendBatched
// coalesces; the requests are boxed messages and travel one at a time.

const (
	selStart  core.Selector = 1
	selArrive core.Selector = 2
)

type barrierRig struct {
	e               *env
	m               *core.Machine
	typ             core.TypeID
	workers, epochs int
	lat             []float64 // reused across rounds
	prevVT          float64
	t               tally
}

// barrierActor collects continuation addresses until every worker has
// arrived, then answers them all with the epoch number.
type barrierActor struct {
	n     int
	epoch int
	wait  []core.ReplyTo
	msg   core.Message // scratch: Reply reads only its continuation address
}

func (b *barrierActor) Receive(ctx *core.Context, msg *core.Message) {
	b.wait = append(b.wait, msg.Reply)
	if len(b.wait) < b.n {
		return
	}
	b.epoch++
	for _, rt := range b.wait {
		b.msg.Reply = rt
		ctx.Reply(&b.msg, b.epoch)
	}
	b.wait = b.wait[:0]
}

type barrierWorker struct {
	g       *barrierRig
	bar     core.Addr
	epoch   int
	bad     int
	onReply core.JoinFunc // bound once, so a request allocates no closure
	timed   bool          // worker 0 records the epoch times
	last    time.Time
}

func (w *barrierWorker) Receive(ctx *core.Context, msg *core.Message) {
	w.last = time.Now()
	w.arrive(ctx)
}

func (w *barrierWorker) arrive(ctx *core.Context) {
	ctx.Request(w.bar, selArrive, ctx.NewJoin(1, w.onReply), 0)
}

func (w *barrierWorker) replied(ctx *core.Context, slots []any) {
	w.epoch++
	if got, ok := slots[0].(int); !ok || got != w.epoch+w.g.e.off() {
		w.bad++
	}
	if w.timed {
		now := time.Now()
		w.g.lat = append(w.g.lat, float64(now.Sub(w.last))/1e3)
		w.last = now
	}
	if w.epoch < w.g.epochs {
		w.arrive(ctx)
	}
}

func openBarrier(e *env) (rig, error) {
	g := &barrierRig{e: e, workers: 32, epochs: e.div(6000)}
	var err error
	g.m, err = startMachine(e, machineConfig(e, 2), func(m *core.Machine) {
		g.typ = m.RegisterType("barrier", func(args []any) core.Behavior {
			return &barrierActor{n: g.workers}
		})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (g *barrierRig) round(r int) (roundOut, error) {
	ws := make([]*barrierWorker, g.workers)
	g.lat = g.lat[:0]
	_, _, err := runProgram(g.e, g.m, func(ctx *core.Context) {
		bar := ctx.NewOn(1, g.typ)
		for i := range ws {
			w := &barrierWorker{g: g, bar: bar, timed: i == 0}
			w.onReply = w.replied
			ws[i] = w
			ctx.Send(ctx.New(w), selStart)
		}
	})
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{ops: int64(g.workers * g.epochs), lat: g.lat}
	bad := unhealthyNow(g.m)
	for _, w := range ws {
		bad = bad || w.bad > 0 || w.epoch != g.epochs
	}
	if bad {
		out.failed = out.ops
	}
	vt := virtUS(g.m)
	out.virtUS, g.prevVT = vt-g.prevVT, vt
	g.t.ops += out.ops
	return out, nil
}

func (g *barrierRig) close() tally {
	shutdown(g.e, g.m)
	g.t.addMachine(g.m)
	return g.t
}
