package main

import (
	"sync/atomic"

	"hal/internal/apps/fib"
	"hal/internal/core"
)

// fib-lb: the paper's Table 4 program.  Every call is an actor created
// with NewAuto, so idle nodes steal deferred creations; sums come back
// through join continuations.  One operation is one actor invocation.  A
// machine lives for one round: descriptors of dead actors are never
// freed, so a kept machine's arenas would grow through the window.

type fibRig struct {
	e     *env
	n     int
	want  int   // fib.Seq(n)
	calls int64 // invocations fib(n) makes
	last  *core.Machine
	lat   [1]float64
	t     tally
}

func openFib(e *env) (rig, error) {
	n := 18
	if e.scale > 1 {
		n = 10
	}
	want := fib.Seq(n)
	return &fibRig{e: e, n: n, want: want, calls: int64(2*fib.Seq(n+1) - 1)}, nil
}

func (g *fibRig) round(r int) (roundOut, error) {
	cfg := machineConfig(g.e, 4)
	cfg.LoadBalance = true
	cfg.Seed = g.e.seed + int64(r)
	var calls atomic.Int64
	var typ core.TypeID
	m, err := startMachine(g.e, cfg, func(m *core.Machine) {
		typ = fib.Register(m, fib.Config{N: g.n}, &calls)
	})
	if err != nil {
		return roundOut{}, err
	}
	g.last = m // referenced until the next round, so its arenas are in heap_mb
	v, makespan, err := runProgram(g.e, m, func(ctx *core.Context) {
		j := ctx.NewJoin(1, func(ctx *core.Context, slots []any) { ctx.Exit(slots[0]) })
		ctx.Request(ctx.NewAuto(typ), fib.SelCompute, j, 0, g.n)
	})
	shutdown(g.e, m)
	if err != nil {
		return roundOut{}, err
	}
	g.lat[0] = float64(makespan) / 1e3
	out := roundOut{ops: g.calls, lat: g.lat[:], virtUS: virtUS(m)}
	unhealthy := g.t.addMachine(m)
	if got, ok := v.(int); !ok || got != g.want+g.e.off() || calls.Load() != g.calls || unhealthy {
		out.failed = out.ops
	}
	g.t.ops += out.ops
	return out, nil
}

func (g *fibRig) close() tally {
	g.last = nil
	return g.t
}
