package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hal/internal/amnet"
	"hal/internal/core"
	"hal/internal/names"
	"hal/internal/sched"
	"hal/internal/slotmap"
)

// The cost ladder: every rung times calls into one module's public
// functions, in isolation, on the harness goroutine.  A rung's figure is
// the lower quartile over ladderBatches batches of a fixed number of
// calls, with a collection before each batch and none inside.

const ladderBatches = 20

type ladder struct {
	e      *env
	values map[string]float64
	err    error
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkLD  *names.LD
	sinkU64 uint64
	sinkInt int
)

// rung runs the batches and returns the lower-quartile time per call in
// nanoseconds.  batch performs calls calls and returns how long they took.
func (l *ladder) rung(name string, calls int, batch func() time.Duration) float64 {
	l.e.spans.begin(name)
	defer l.e.spans.end()
	xs := make([]float64, l.e.div(ladderBatches))
	for i := range xs {
		runtime.GC()
		l.e.spans.begin("batch")
		xs[i] = float64(batch()) / float64(calls)
		l.e.spans.end()
	}
	return lowerQuartile(xs)
}

// ns records a rung whose batch is a plain loop the harness times.
func (l *ladder) ns(name string, calls int, loop func()) {
	l.values[name] = l.rung(name, calls, func() time.Duration {
		t0 := time.Now()
		loop()
		return time.Since(t0)
	})
}

func (l *ladder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// runLadder measures every rung.  The ladder does not depend on the
// workload; a traced run of several workloads climbs it once.
func runLadder(e *env) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l := &ladder{e: e, values: map[string]float64{}}
	e.spans.begin("ladder")
	l.namesRungs()
	l.schedRungs()
	l.amnetRungs()
	l.sockRungs()
	l.coreRungs()
	e.spans.end()
	return l.values, l.err
}

func (l *ladder) namesRungs() {
	const live = 4096
	a, t := names.NewArena(), names.NewTable()
	seqs, addrs := make([]uint64, live), make([]names.Addr, live)
	for i := range seqs {
		seq, ld := a.Alloc()
		ld.State = names.LDLocal
		seqs[i] = seq
		addrs[i] = names.Addr{Birth: amnet.NodeID(i % 4), Hint: amnet.NodeID(i % 4), Seq: uint64(i + 1)}
		t.Bind(addrs[i], seq)
	}
	const n = 1 << 17
	l.ns("names.arena_get_ns", n, func() {
		for i := 0; i < n; i++ {
			sinkLD = a.Get(seqs[i%live])
		}
	})
	l.ns("names.table_lookup_ns", n, func() {
		for i := 0; i < n; i++ {
			sinkU64 += t.Lookup(addrs[i%live])
		}
	})
	l.ns("names.arena_alloc_free_ns", n, func() {
		for i := 0; i < n; i++ {
			seq, _ := a.Alloc()
			a.Free(seq)
		}
	})
	// Growth: a fresh arena append-doubles its slab as descriptors that
	// are never freed pile up (tombstones, forwarders).
	l.ns("names.arena_grow_ns", n, func() {
		g := names.NewArena()
		for i := 0; i < n; i++ {
			g.Alloc()
		}
		sinkInt += g.Cap()
	})
	l.ns("names.table_bind_unbind_ns", n, func() {
		for i := 0; i < n; i++ {
			addr := names.Addr{Birth: 5, Hint: 5, Seq: uint64(i + 1)}
			t.Bind(addr, 7)
			t.Unbind(addr, 7)
		}
	})
}

func (l *ladder) schedRungs() {
	const n, resident = 1 << 17, 64
	var h sched.Heap[int]
	var d sched.Deque[int]
	m := slotmap.New[int]()
	for i := 0; i < resident; i++ {
		h.Push(i, float64(i))
		d.PushBack(i)
		m.Insert(i)
	}
	key := float64(resident)
	l.ns("sched.heap_push_pop_ns", n, func() {
		for i := 0; i < n; i++ {
			key++
			h.Push(i, key)
			v, _ := h.Pop()
			sinkInt += v
		}
	})
	l.ns("sched.deque_push_pop_ns", n, func() {
		for i := 0; i < n; i++ {
			d.PushBack(i)
			v, _ := d.PopFront()
			sinkInt += v
		}
	})
	l.ns("slotmap.insert_delete_ns", n, func() {
		for i := 0; i < n; i++ {
			m.Delete(m.Insert(i))
		}
	})
}

// Bare-network handler ids (below amnet's own bulk handlers at 250+).
const (
	hCount amnet.HandlerID = 1 + iota // count the packet
	hPing                             // answer with hCount to node 0
)

// bareNet is a two-node network with no kernel on it: node 0 belongs to
// the harness goroutine, node 1 to whoever the rung says.
type bareNet struct {
	nw       *amnet.Network
	ep0, ep1 *amnet.Endpoint
	got      [2]int // packets counted per node, by that node's owner
}

func newBareNet(cfg amnet.Config) (*bareNet, error) {
	cfg.Nodes = 2
	nw, err := amnet.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	b := &bareNet{nw: nw, ep0: nw.Endpoint(0), ep1: nw.Endpoint(1)}
	nw.Register(hCount, func(ep *amnet.Endpoint, p amnet.Packet) { b.got[ep.ID()]++ })
	nw.Register(hPing, func(ep *amnet.Endpoint, p amnet.Packet) { ep.Send(amnet.Packet{Handler: hCount, Dst: 0}) })
	return b, nil
}

// serve runs node 1's receive loop on its own goroutine until the
// returned stop function is called.
func (b *bareNet) serve() (stop func()) {
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b.ep1.RecvBlock(stopc, 0) {
		}
	}()
	return func() { close(stopc); wg.Wait() }
}

// await blocks node 0 until it has counted want packets.
func (b *bareNet) await(want int) {
	for b.got[0] < want {
		b.ep0.RecvBlock(nil, 0)
	}
}

func (l *ladder) amnetRungs() {
	const n = 1 << 15
	b, err := newBareNet(amnet.Config{})
	if err != nil {
		l.fail(err)
		return
	}
	toOne := amnet.Packet{Handler: hCount, Dst: 1}
	l.ns("amnet.send_poll_ns", n, func() {
		for i := 0; i < n; i++ {
			b.ep0.Send(toOne)
			b.ep1.PollOne()
		}
	})
	l.ns("amnet.sendnow_poll_ns", n, func() {
		for i := 0; i < n; i++ {
			//lint:ignore halvet-repairplane the rung times the urgent path itself; no repair traffic exists to overtake
			b.ep0.SendNow(toOne)
			b.ep1.PollOne()
		}
	})
	l.ns("amnet.batch32_send_poll_ns", n, func() {
		for i := 0; i < n; i += 32 {
			for k := 0; k < 32; k++ {
				b.ep0.SendBatched(toOne) // the 32nd fills the staging buffer and flushes it
			}
			b.ep1.PollAll()
		}
	})
	// Bulk: three-phase transfers of 64 Ki words, both ends polled by the
	// harness.
	const words, xfers = 1 << 16, 8
	data := make([]float64, words)
	l.ns("amnet.bulk_ns_per_word", words*xfers, func() {
		for i := 0; i < xfers; i++ {
			want := b.got[1] + 1
			b.ep0.BulkSend(1, data, amnet.Packet{Handler: hCount})
			for b.got[1] < want {
				b.ep1.PollAll()
				b.ep0.PollAll()
			}
		}
	})

	// The wake edge: node 1 sleeps in RecvBlock on its own goroutine, so
	// every message crosses empty -> non-empty and hands the processor
	// over.  Reported per one-way message.
	stop := b.serve()
	l.ns("amnet.wake_pingpong_ns", 2*n, func() {
		for i := 0; i < n; i++ {
			want := b.got[0] + 1
			b.ep0.Send(amnet.Packet{Handler: hPing, Dst: 1})
			b.await(want)
		}
	})
	stop()

	// The full edge: a producer streams into a 64-packet inbox faster
	// than the consumer is scheduled, so it stalls and polls (CMAM).
	f, err := newBareNet(amnet.Config{InboxCap: 64})
	if err != nil {
		l.fail(err)
		return
	}
	f.nw.Register(hPing+1, func(ep *amnet.Endpoint, p amnet.Packet) {
		if f.got[1]++; f.got[1]%n == 0 {
			ep.Send(amnet.Packet{Handler: hCount, Dst: 0})
		}
	})
	stop = f.serve()
	l.ns("amnet.stream_full_ns", n, func() {
		want := f.got[0] + 1
		for i := 0; i < n; i++ {
			f.ep0.Send(amnet.Packet{Handler: hPing + 1, Dst: 1})
		}
		f.await(want)
	})
	stop()
}

// sockRungs measures the socket transport under bare networks carrying
// word packets: no kernel, no payload codec, no reliable layer.
func (l *ladder) sockRungs() {
	path, err := sockPath(l.e)
	if err != nil {
		l.fail(err)
		return
	}
	defer os.Remove(path)
	l.values["sock.handshake_ms"] = l.rung("sock.handshake_ms", 1, func() time.Duration {
		t0 := time.Now()
		lt, wt, err := sockPair(path)
		d := time.Since(t0)
		if err != nil {
			l.fail(err)
			return d
		}
		lt.Close()
		wt.Close()
		return d
	}) / 1e6

	lt, wt, err := sockPair(path)
	if err != nil {
		l.fail(err)
		return
	}
	defer lt.Close()
	defer wt.Close()
	lb, err := newBareNet(amnet.Config{Remote: lt})
	if err != nil {
		l.fail(err)
		return
	}
	wb, err := newBareNet(amnet.Config{Remote: wt})
	if err != nil {
		l.fail(err)
		return
	}
	const stream = 1 << 13
	wb.nw.Register(hPing+1, func(ep *amnet.Endpoint, p amnet.Packet) {
		if wb.got[1]++; wb.got[1]%stream == 0 {
			ep.Send(amnet.Packet{Handler: hCount, Dst: 0})
		}
	})
	if err := lb.nw.StartTransport(); err != nil {
		l.fail(err)
		return
	}
	if err := wb.nw.StartTransport(); err != nil {
		l.fail(err)
		return
	}
	stop := wb.serve()
	defer func() {
		// Readers blocked injecting must unwind before the owners stop.
		lb.nw.SetInjectDiscard(true)
		wb.nw.SetInjectDiscard(true)
		stop()
	}()

	const rtts = 256
	l.values["sock.pkt_rtt_us"] = l.rung("sock.pkt_rtt_us", rtts, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < rtts; i++ {
			want := lb.got[0] + 1
			lb.ep0.Send(amnet.Packet{Handler: hPing, Dst: 1})
			lb.await(want)
		}
		return time.Since(t0)
	}) / 1e3
	before := lt.TransportStats()
	l.ns("sock.pkt_stream_ns", stream, func() {
		want := lb.got[0] + 1
		for i := 0; i < stream; i++ {
			lb.ep0.Send(amnet.Packet{Handler: hPing + 1, Dst: 1})
		}
		lb.await(want)
	})
	after := lt.TransportStats()
	l.values["sock.wire_b_per_pkt"] = float64(after.WireBytesOut-before.WireBytesOut) / float64(after.WireSent-before.WireSent)
}

const selNop core.Selector = 1

// nop accepts any message; a request gets 0 back.
type nop struct{}

func (nop) Receive(ctx *core.Context, msg *core.Message) { ctx.Reply(msg, 0) }

// chain sends itself a message until left runs out, then exits the
// program with how long that took: one local send and dispatch per link.
type chain struct {
	left int
	t0   time.Time
}

func (c *chain) Receive(ctx *core.Context, msg *core.Message) {
	if c.t0.IsZero() {
		c.t0 = time.Now()
	}
	if c.left--; c.left > 0 {
		ctx.Send(ctx.Self(), selNop)
		return
	}
	ctx.Exit(time.Since(c.t0))
}

// hopper migrates to the node named by the request, then answers.
type hopper struct{}

func (hopper) Receive(ctx *core.Context, msg *core.Message) {
	ctx.Migrate(msg.Int(0))
	ctx.Reply(msg, ctx.Node())
}

// onMachine starts a nodes-node machine with a "nop" type, runs body and
// shuts the machine down.
func (l *ladder) onMachine(nodes int, body func(m *core.Machine, nopType core.TypeID)) {
	var typ core.TypeID
	m, err := startMachine(l.e, machineConfig(l.e, nodes), func(m *core.Machine) {
		typ = m.RegisterType("nop", func([]any) core.Behavior { return nop{} })
	})
	if err != nil {
		l.fail(err)
		return
	}
	defer shutdown(l.e, m)
	body(m, typ)
}

// inRoot is a rung whose batch is one program; the program reports its
// own measurement through Exit, so launch and quiescence stay outside.
func (l *ladder) inRoot(name string, calls int, m *core.Machine, root func(ctx *core.Context)) {
	l.values[name] = l.rung(name, calls, func() time.Duration {
		v, _, err := runProgram(l.e, m, root)
		l.fail(err)
		d, _ := v.(time.Duration)
		return d
	})
}

// repeat runs step sequentially n times — each step ends by calling its
// continuation — and exits the program with the elapsed time.
func repeat(ctx *core.Context, n int, step func(ctx *core.Context, next func(*core.Context))) {
	t0 := time.Now()
	var next func(ctx *core.Context)
	next = func(ctx *core.Context) {
		if n--; n < 0 {
			ctx.Exit(time.Since(t0))
			return
		}
		step(ctx, next)
	}
	next(ctx)
}

func (l *ladder) coreRungs() {
	const sends = 20000
	l.onMachine(1, func(m *core.Machine, _ core.TypeID) {
		l.inRoot("core.local_send_ns", sends, m, func(ctx *core.Context) {
			a := ctx.New(nop{})
			t0 := time.Now()
			for i := 0; i < sends; i++ {
				ctx.Send(a, selNop)
			}
			ctx.Exit(time.Since(t0))
		})
		l.inRoot("core.sendfast_ns", sends, m, func(ctx *core.Context) {
			a := ctx.New(nop{})
			t0 := time.Now()
			for i := 0; i < sends; i++ {
				ctx.SendFast(a, selNop)
			}
			ctx.Exit(time.Since(t0))
		})
		const links = 1 << 16
		l.inRoot("core.local_send_dispatch_ns", links, m, func(ctx *core.Context) {
			ctx.Send(ctx.New(&chain{left: links}), selNop)
		})
		const creates = 4096
		l.inRoot("core.local_create_ns", creates, m, func(ctx *core.Context) {
			t0 := time.Now()
			for i := 0; i < creates; i++ {
				ctx.New(nop{})
			}
			ctx.Exit(time.Since(t0))
		})
		const launches = 64
		l.values["core.launch_wait_us"] = l.rung("core.launch_wait_us", launches, func() time.Duration {
			t0 := time.Now()
			for i := 0; i < launches; i++ {
				_, _, err := runProgram(l.e, m, func(*core.Context) {})
				l.fail(err)
			}
			return time.Since(t0)
		}) / 1e3
	})

	l.onMachine(2, func(m *core.Machine, nopType core.TypeID) {
		// Pipelined: the sender never waits, so this is the processor
		// cost of a remote send and its dispatch without the wake edge.
		l.values["core.remote_send_dispatch_ns"] = l.rung("core.remote_send_dispatch_ns", sends, func() time.Duration {
			_, d, err := runProgram(l.e, m, func(ctx *core.Context) {
				a := ctx.NewOn(1, nopType)
				for i := 0; i < sends; i++ {
					ctx.Send(a, selNop)
				}
			})
			l.fail(err)
			return d
		})
		const calls = 4096
		l.inRoot("core.request_reply_ns", calls, m, func(ctx *core.Context) {
			a := ctx.NewOn(1, nopType)
			repeat(ctx, calls, func(ctx *core.Context, next func(*core.Context)) {
				ctx.Request(a, selNop, ctx.NewJoin(1, func(ctx *core.Context, _ []any) { next(ctx) }), 0)
			})
		})
		l.inRoot("core.remote_create_alias_ns", calls, m, func(ctx *core.Context) {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				ctx.NewOn(1, nopType)
			}
			ctx.Exit(time.Since(t0))
		})
		const hops = 256
		l.inRoot("core.migrate_us", hops, m, func(ctx *core.Context) {
			h, at := ctx.New(hopper{}), 0
			repeat(ctx, hops, func(ctx *core.Context, next func(*core.Context)) {
				at = 1 - at
				ctx.Request(h, selNop, ctx.NewJoin(1, func(ctx *core.Context, _ []any) { next(ctx) }), 0, at)
			})
		})
		l.values["core.migrate_us"] /= 1e3
	})

	const machines = 4
	l.values["core.newmachine_ms"] = l.rung("core.newmachine_ms", machines, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < machines; i++ {
			m, err := startMachine(l.e, machineConfig(l.e, 4), func(*core.Machine) {})
			if err != nil {
				l.fail(err)
				continue
			}
			shutdown(l.e, m)
		}
		return time.Since(t0)
	}) / 1e6
}
