package core

import (
	"testing"
	"unsafe"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Allocation guards for the zero-allocation control plane.  Each test
// drives an UNSTARTED machine's kernels from this goroutine — handlers
// and dispatch work exactly as they do live, minus the node goroutines —
// and asserts the steady-state hot path performs no heap allocation.
//
// The guards are skipped under the race detector (its instrumentation
// allocates).

// allocMachine builds an unstarted fault-free machine with a registered
// program whose live count is pre-based at 1, so the measured loops can
// inc/dec live units without ever draining the count to zero (program
// completion runs a sync.Once closure, which allocates).
func allocMachine(t *testing.T, nodes int) (*Machine, *Program) {
	t.Helper()
	return allocMachineCfg(t, Config{Nodes: nodes})
}

// allocMachineCfg is allocMachine with an explicit config, for guards
// that need tracing enabled.
func allocMachineCfg(t *testing.T, cfg Config) (*Machine, *Program) {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.progMu.Lock()
	prog := m.newProg()
	m.progMu.Unlock()
	m.incLiveAt(m.cfg.Nodes, prog, 1)
	return m, prog
}

type allocSink struct{ calls int }

func (b *allocSink) Receive(_ *Context, _ *Message) { b.calls++ }

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for i := 0; i < 8; i++ {
		fn() // warm pools, staging buffers, and heap backing arrays
	}
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, allocs)
	}
}

// TestAllocSendFastZero: the compiler-controlled fast path (locality
// check + inline dispatch) must not allocate.
func TestAllocSendFastZero(t *testing.T) {
	m, prog := allocMachine(t, 1)
	n := m.nodes[0]
	sink := &allocSink{}
	a := n.createLocal(sink)
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireZeroAllocs(t, "SendFast", func() {
		if !ctx.SendFast(to, 1) {
			t.Fatal("fast path did not run")
		}
	})
	if sink.calls == 0 {
		t.Fatal("method never dispatched")
	}
}

// TestAllocPooledLocalDelivery: the generic local send — pooled message,
// mail queue, dispatcher task, inline free at dispatch — must not
// allocate in steady state.
func TestAllocPooledLocalDelivery(t *testing.T) {
	m, prog := allocMachine(t, 1)
	n := m.nodes[0]
	sink := &allocSink{}
	a := n.createLocal(sink)
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireZeroAllocs(t, "local Send+dispatch", func() {
		ctx.Send(to, 1)
		tk, vt, ok := n.ready.PopKey()
		if !ok {
			t.Fatal("send queued no dispatcher task")
		}
		n.execute(tk, vt)
	})
	if sink.calls == 0 {
		t.Fatal("message never delivered")
	}
}

// TestAllocWordEncodedCacheUpdate: a cache update crossing the
// interconnect — word-encoded send, injection, receive, decode,
// apply — must not allocate on either endpoint.
func TestAllocWordEncodedCacheUpdate(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	// An address unknown on node 1: applyCacheUpdate scans its (empty)
	// descriptor candidates and returns, exercising decode without
	// touching arena state.
	addr := Addr{Birth: 0, Hint: 0, Seq: 7}
	requireZeroAllocs(t, "cache update", func() {
		n0.sendCacheUpdate(1, addr, 0, 7)
		if n1.ep.PollAll() != 1 {
			t.Fatal("cache update not delivered")
		}
	})
}

// TestAllocWordEncodedReply: a scalar remote reply — tag-encoded send,
// receive, decode, slot fill — must not allocate.  The join continuation
// is sized so the measured fills never complete it.
func TestAllocWordEncodedReply(t *testing.T) {
	m, prog := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	j := n1.newJoin(1<<12, Addr{Birth: 1, Hint: 1, Seq: 1}, func(*Context, []any) {}, prog)
	rt := ReplyTo{Node: 1, JC: j.seq, Slot: 0}
	requireZeroAllocs(t, "scalar reply", func() {
		n0.sendReply(rt, 7, prog)
		n0.ep.PollAll() // the reply is staged until the sender's next poll boundary
		if n1.ep.PollAll() != 1 {
			t.Fatal("reply not delivered")
		}
	})
}

// TestAllocWordEncodedFIR: a single-hop FIR answered "unknown" must not
// allocate: the path slice is pooled on the sender and the word-encoded
// hop list never materializes on the receiver's heap.
func TestAllocWordEncodedFIR(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	addr := Addr{Birth: 0, Hint: 0, Seq: 9}
	requireZeroAllocs(t, "FIR round trip", func() {
		n0.sendFIR(1, firReq{addr: addr, path: append(n0.newPath(), n0.id)})
		if n1.ep.PollAll() != 1 {
			t.Fatal("FIR not delivered")
		}
		if n0.ep.PollAll() != 1 {
			t.Fatal("FIR answer not delivered")
		}
	})
}

// TestAllocIdleWait: an idle node polling for work waits out its steal
// back-off (20 µs) by yielding, so the wait arms no timer and allocates
// nothing.  The victim's kernel is not running, so the one steal request
// stays outstanding; a cache update arrives before each idle, as traffic
// does on a machine that has work, because a node that has yielded a
// millisecond away with nothing arriving goes back to the timer.
func TestAllocIdleWait(t *testing.T) {
	m, _ := allocMachineCfg(t, Config{Nodes: 2, LoadBalance: true})
	n0, n1 := m.nodes[0], m.nodes[1]
	addr := Addr{Birth: 1, Hint: 1, Seq: 7}
	requireZeroAllocs(t, "idle wait with load balancing", func() {
		n1.sendCacheUpdate(0, addr, 1, 7)
		if n0.ep.PollAll() != 1 {
			t.Fatal("cache update not delivered")
		}
		n0.idle()
	})
	if st := n0.ep.Stats(); n0.stats.StealReqs != 1 || st.WaitParks != 0 {
		t.Fatalf("StealReqs = %d, WaitParks = %d: want the one outstanding poll and no park", n0.stats.StealReqs, st.WaitParks)
	}
}

// countSink counts streamed events without retaining them.  The alloc
// guards drive kernels single-threaded, so no locking is needed here;
// live sinks must satisfy the concurrent TraceSink contract.
type countSink struct{ n int }

func (s *countSink) TraceEvent(Event) { s.n++ }

// TestAllocTracedLocalDelivery: ring tracing plus a streaming sink must
// not push the pooled local delivery path off zero allocations — ring
// appends reuse the pre-sized buffer and the sink call passes the event
// by value.
func TestAllocTracedLocalDelivery(t *testing.T) {
	sink := &countSink{}
	m, prog := allocMachineCfg(t, Config{Nodes: 1, TraceBuffer: 256, TraceSink: sink})
	n := m.nodes[0]
	rcv := &allocSink{}
	a := n.createLocal(rcv)
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireZeroAllocs(t, "traced local Send+dispatch", func() {
		ctx.Send(to, 1)
		tk, vt, ok := n.ready.PopKey()
		if !ok {
			t.Fatal("send queued no dispatcher task")
		}
		n.execute(tk, vt)
	})
	if rcv.calls == 0 {
		t.Fatal("message never delivered")
	}
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
	if n.events.total == 0 {
		t.Fatal("ring recorded no events")
	}
}

// TestAllocTracedFIRRoundTrip: the instrumented FIR control path — an
// EvFIRSent trace per request on the way out, the repair-latency
// histogram observed inside the answer handler — must stay
// allocation-free end to end.
func TestAllocTracedFIRRoundTrip(t *testing.T) {
	sink := &countSink{}
	m, _ := allocMachineCfg(t, Config{Nodes: 2, TraceBuffer: 256, TraceSink: sink})
	n0, n1 := m.nodes[0], m.nodes[1]
	seq, ld := n0.arena.Alloc()
	addr := Addr{Birth: 0, Hint: 0, Seq: seq}
	requireZeroAllocs(t, "traced FIR round trip", func() {
		// Re-arm the descriptor: the previous answer ("unknown") resolved
		// it to NoNode, which suppresses further requests.
		ld.State = names.LDRemote
		ld.RNode, ld.RSeq = 1, 0
		ld.FIRSent = false
		n0.maybeSendFIR(ld, addr)
		if n1.ep.PollAll() != 1 {
			t.Fatal("FIR not delivered")
		}
		if n0.ep.PollAll() != 1 {
			t.Fatal("FIR answer not delivered")
		}
	})
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
	if n0.stats.FIRRepair.N == 0 {
		t.Fatal("repair latency never observed")
	}
}

// TestAllocPayloadCodecMessage: the common cross-process message (two int
// arguments) encodes into a reused frame buffer and is consumed — zeroed
// and back in the machine's spill pool — and decoding takes its Message
// from there and reads the arguments straight into its inline words, so a
// round trip through a warm pool allocates nothing.
func TestAllocPayloadCodecMessage(t *testing.T) {
	m, prog := allocMachine(t, 2)
	c := &payloadCodec{m: m}
	msg := &Message{}
	var pkt amnet.Packet
	var buf []byte
	requireZeroAllocs(t, "AppendPayload+DecodePayload", func() {
		msg.To, msg.Sel, msg.originLD, msg.vt, msg.prog = Addr{Birth: 1, Hint: 1, Seq: 7}, 1, 3, 12.5, prog
		pkt.Payload = msgWith(msg, allocArgs[0], -allocArgs[1])
		var err error
		if buf, err = c.AppendPayload(buf[:0], &pkt); err != nil {
			t.Fatal(err)
		}
		if msg.prog != nil || msg.nargs != 0 {
			t.Fatal("AppendPayload left the encoded message intact, want it consumed")
		}
		v, err := c.DecodePayload(buf)
		out, _ := v.(*Message)
		if err != nil || out == nil || out.prog != prog || out.Int(1) != -allocArgs[1] {
			t.Fatalf("decode: %v, %v", v, err)
		}
		msg = out
	})
}

// The message path's guards: arguments ≥ 256 throughout, because the
// runtime boxes smaller integers without allocating and would hide a
// regression.  What they pin is escape analysis as much as the kernel: the
// conversion (types.go) must copy each value out of its interface, so the
// caller's boxes and variadic slice stay on the caller's stack.  Keep one
// interface — an arm `default: list[i] = a` — and every guard here fails.

// allocArgs are two int arguments the compiler cannot fold into statics.
var allocArgs = [2]int{1 << 20, 1 << 21}

// TestAllocSendArgs: Send, SendFast and Request with two int arguments.
func TestAllocSendArgs(t *testing.T) {
	m, prog := allocMachine(t, 1)
	n := m.nodes[0]
	sink := &argSink{}
	a := n.createLocal(sink)
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	x, y := allocArgs[0], allocArgs[1]
	requireZeroAllocs(t, "Send(int, int)+dispatch", func() {
		ctx.Send(to, 1, x, y)
		tk, vt, _ := n.ready.PopKey()
		n.execute(tk, vt)
	})
	requireZeroAllocs(t, "SendFast(int, int)", func() {
		if !ctx.SendFast(to, 1, x, y) {
			t.Fatal("fast path did not run")
		}
	})
	j := n.newJoin(1, to, func(*Context, []any) {}, prog) // never filled: the sink does not reply
	requireZeroAllocs(t, "Request(int, int)+dispatch", func() {
		ctx.Request(to, 1, j, 0, x, y)
		tk, vt, _ := n.ready.PopKey()
		n.execute(tk, vt)
	})
	if sink.sum == 0 || sink.sum%(x+y) != 0 {
		t.Fatalf("arguments arrived as a sum of %d", sink.sum)
	}
}

type argSink struct{ sum int }

func (b *argSink) Receive(_ *Context, msg *Message) { b.sum += msg.Int(0) + msg.Int(1) }

// allocEcho replies its second argument.
type allocEcho struct{}

func (allocEcho) Receive(ctx *Context, msg *Message) { ctx.Reply(msg, msg.Int(1)) }

// TestAllocRequestReply: a request with two int arguments and the reply of
// an int, on one node and across two.  The caller's side — NewJoin from
// the continuation pool, Request, the server's Reply — allocates nothing;
// the round trip allocates the one box the filled slot keeps, so that
// JoinFunc can stay a func of []any.
func TestAllocRequestReply(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, nodes := range []int{1, 2} {
		m, prog := allocMachine(t, nodes)
		n0, srv := m.nodes[0], m.nodes[nodes-1]
		a := srv.createLocal(allocEcho{})
		ctx := &n0.ctx
		ctx.prog = prog
		to := a.Addr()
		if nodes == 2 {
			cacheRemote(n0, a)
		}
		got := 0
		onReply := JoinFunc(func(_ *Context, slots []any) { got += slots[0].(int) })
		x, y := allocArgs[0], allocArgs[1]
		trip := func() {
			ctx.Request(to, 1, ctx.NewJoin(1, onReply), 0, x, y)
			drainNode(srv) // the request arrives; the server replies
			drainNode(n0)  // the reply arrives; the continuation runs
		}
		for i := 0; i < 2*msgPoolCap; i++ {
			trip() // requests are a one-way flow of messages: start the spill
		}
		got = 0
		if allocs := testing.AllocsPerRun(200, trip); allocs > 1 {
			t.Errorf("%d nodes: request/reply round trip: %.2f allocs/op, want at most 1 (the slot's box)", nodes, allocs)
		}
		if got != 201*y {
			t.Fatalf("%d nodes: replies summed to %d, want %d", nodes, got, 201*y)
		}
	}
}

// TestAllocFaultedRequestReply: the two-node round trip of
// TestAllocRequestReply on a machine whose FaultPlan cuts a link on about
// one packet in three.  A cut link's packets wait in a hold queue that
// keeps its backing array, and nothing above the link keeps a copy of what
// it sent, so the plan costs no allocation.  The reply is a small int,
// which Go boxes without allocating, so the guard is exact: zero.
func TestAllocFaultedRequestReply(t *testing.T) {
	m, prog := allocMachineCfg(t, Config{Nodes: 2, Faults: &amnet.FaultPlan{Cut: 0.3, Seed: 3}})
	n0, srv := m.nodes[0], m.nodes[1]
	a := srv.createLocal(allocEcho{})
	ctx := &n0.ctx
	ctx.prog = prog
	to := a.Addr()
	cacheRemote(n0, a)
	got := 0
	onReply := JoinFunc(func(_ *Context, slots []any) { got += slots[0].(int) })
	x, y := allocArgs[0], 7
	trip := func() {
		ctx.Request(to, 1, ctx.NewJoin(1, onReply), 0, x, y)
		drainNode(srv)
		drainNode(n0)
	}
	settle := func() { // every held packet and staged reply through
		for i := 0; i < 8; i++ {
			drainNode(srv)
			drainNode(n0)
		}
	}
	for i := 0; i < 2*msgPoolCap; i++ {
		trip()
	}
	settle()
	got = 0
	requireZeroAllocs(t, "request/reply round trip under link cuts", trip)
	settle()
	if want := (8 + 201) * y; got != want {
		t.Fatalf("replies summed to %d, want %d", got, want)
	}
	if c := n0.ep.Stats().Cuts + srv.ep.Stats().Cuts; c == 0 {
		t.Fatal("the plan cut no link")
	}
}

// cacheRemote gives n a's descriptor address as a delivery would have
// cached it, so sends to a leave direct.  a must still live on the node
// that created it.
func cacheRemote(n *node, a *Actor) {
	seq, ld := n.arena.Alloc()
	ld.State, ld.RNode, ld.RSeq = names.LDRemote, a.addr.Birth, a.seq
	n.table.Bind(a.addr, seq)
}

// drainNode polls n once and runs its dispatcher dry.
func drainNode(n *node) {
	n.ep.PollAll()
	for {
		tk, vt, ok := n.ready.PopKey()
		if !ok {
			return
		}
		n.execute(tk, vt)
	}
}

// TestAllocReplyInt: the server's half of a request — Reply of an int, to
// a slot on its own node and to one across the interconnect.  The join is
// sized so the measured fills never complete it; the local fill's box is
// the one allocation, made by the kernel, not by Reply's caller.
func TestAllocReplyInt(t *testing.T) {
	m, prog := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	ctx := &n0.ctx
	ctx.prog = prog
	j := n1.newJoin(1<<12, Addr{Birth: 1, Hint: 1, Seq: 1}, func(*Context, []any) {}, prog)
	req := &Message{Reply: ReplyTo{Node: 1, JC: j.seq, Slot: 0}}
	v := allocArgs[0]
	requireZeroAllocs(t, "Reply(int) across nodes, before the fill", func() {
		ctx.Reply(req, v)
		n0.ep.PollAll() // the reply is staged until the sender's next poll boundary
	})
}

// TestAllocOneWayStream: 10 000 messages from node 0 to node 1 and nothing
// back.  Node 1 frees what node 0 allocated; past msgPoolCap its frees
// spill to the machine-wide pool, where node 0's newMsg finds them, so
// after warm-up the stream allocates no Message.
func TestAllocOneWayStream(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates, and its sync.Pool drops puts")
	}
	m, prog := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	sink := &argSink{}
	a := n1.createLocal(sink)
	ctx := &n0.ctx
	ctx.prog = prog
	to := a.Addr()
	cacheRemote(n0, a)
	x, y := allocArgs[0], allocArgs[1]
	hop := func() {
		ctx.Send(to, 1, x, y)
		n1.ep.PollAll()
		tk, vt, _ := n1.ready.PopKey()
		n1.execute(tk, vt)
	}
	for i := 0; i < 2*msgPoolCap; i++ {
		hop() // fills node 1's freelist, then starts the spill
	}
	if allocs := testing.AllocsPerRun(10000, hop); allocs != 0 {
		t.Errorf("one-way stream: %.4f allocs per message, want 0", allocs)
	}
	if len(n0.msgFree) != 0 || len(n1.msgFree) != msgPoolCap {
		t.Errorf("freelists hold %d and %d messages, want 0 and %d", len(n0.msgFree), len(n1.msgFree), msgPoolCap)
	}
	if want := (2*msgPoolCap + 10001) * (x + y); sink.sum != want {
		t.Errorf("arguments summed to %d, want %d", sink.sum, want)
	}
}

// TestMessageSize pins the layout budget: Message stays in the 144-byte
// size class (one more word and it is a 192-byte object — a third more
// bytes per message allocated and per pooled message held), which ReplyTo
// at 16 bytes, the flags packed beside origin and the tags beside Sel are
// what leave room for.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > 144 {
		t.Errorf("Message is %d bytes, want at most 144", got)
	}
	if got := unsafe.Sizeof(ReplyTo{}); got != 16 {
		t.Errorf("ReplyTo is %d bytes, want 16", got)
	}
}

// TestReplyEncodingRoundTrip pins which values travel as a word (the
// reply packet's U2, a message's inline word) and which take the boxed
// fallback.
func TestReplyEncodingRoundTrip(t *testing.T) {
	for _, v := range []any{nil, 0, 42, -7, 3.5, -0.25, true, false, int64(-1), uint64(1), Selector(-3), TypeID(9)} {
		tag, bits, ok := wordOf(v)
		if !ok || !isWordTag(tag) {
			t.Fatalf("%v (%T) did not word-encode", v, v)
		}
		if got := wordValue(tag, bits); got != v {
			t.Errorf("round trip %v (%T): got %v (%T)", v, v, got, got)
		}
	}
	for _, v := range []any{"string", []int{1}, 3.5 + 0i, Addr{Seq: 1}, Ref{V: 1}} {
		if tag, _, ok := wordOf(v); ok {
			t.Errorf("%T word-encoded as tag %d, want boxed fallback", v, tag)
		}
	}
}

// TestFIREncodingRoundTrip pins the hop-list packing and its limits.
func TestFIREncodingRoundTrip(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n := m.nodes[0]
	addr := Addr{Birth: 1, Hint: 0, Seq: 123}
	for hops := 1; hops <= firMaxHops; hops++ {
		path := make([]amnet.NodeID, hops)
		for i := range path {
			path[i] = amnet.NodeID(i * 3)
		}
		p, ok := encodeFIRPacket(1, addr, path)
		if !ok {
			t.Fatalf("%d hops did not word-encode", hops)
		}
		req := n.decodeFIR(p)
		if req.addr != addr {
			t.Fatalf("addr mangled: %+v", req.addr)
		}
		if len(req.path) != hops {
			t.Fatalf("hops %d: decoded %d", hops, len(req.path))
		}
		for i, h := range req.path {
			if h != path[i] {
				t.Fatalf("hop %d: got %d want %d", i, h, path[i])
			}
		}
		n.freePath(req.path)
	}
	if _, ok := encodeFIRPacket(1, addr, make([]amnet.NodeID, firMaxHops+1)); ok {
		t.Error("8-hop path word-encoded, want boxed fallback")
	}
	if _, ok := encodeFIRPacket(1, addr, []amnet.NodeID{1 << 16}); ok {
		t.Error("wide node id word-encoded, want boxed fallback")
	}
}

// TestPoolPoison pins what a freed pool object looks like: every hop of a
// freed FIR path reads NoNode, and a second free of a path or a spawn
// record panics instead of handing one object to two later owners.
func TestPoolPoison(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n := m.nodes[0]
	path := append(n.newPath(), 0, 1, 1)
	n.freePath(path)
	for i, h := range path {
		if h != amnet.NoNode {
			t.Errorf("freed hop %d reads %d, want NoNode", i, h)
		}
	}
	mustPanic(t, "second freePath", func() { n.freePath(path) })

	rec := n.newSpawn()
	rec.alias = Addr{Birth: 0, Hint: 1, Seq: 5}
	n.freeSpawn(rec)
	if rec.alias != (Addr{}) {
		t.Errorf("freed spawn record keeps alias %+v", rec.alias)
	}
	mustPanic(t, "second freeSpawn", func() { n.freeSpawn(rec) })
}

// TestLocEncodingRoundTrip pins the location-triple layout, including
// NoNode survival.
func TestLocEncodingRoundTrip(t *testing.T) {
	addr := Addr{Birth: 3, Hint: amnet.NoNode, Seq: 1 << 40}
	p := locPacket(0, 1, addr, amnet.NoNode, 77)
	gotAddr, gotNode, gotSeq := decodeLoc(p)
	if gotAddr != addr || gotNode != amnet.NoNode || gotSeq != 77 {
		t.Errorf("round trip: %+v node=%d seq=%d", gotAddr, gotNode, gotSeq)
	}
}
