package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
	"hal/internal/sched"
)

// Actor is the kernel's representation of one actor: a behavior, its mail
// and pending queues, and its scheduling state.  Actors are owned by their
// current home node's goroutine; they cross nodes only inside migration
// bundles.
type Actor struct {
	behavior Behavior
	addr     Addr // ordinary mail address
	alias    Addr // alias, if created remotely or deferred; else Nil
	seq      uint64
	mailq    sched.Deque[*Message]
	queued   bool
	dead     bool
	migrate  amnet.NodeID // requested migration target, NoNode if none
	become   Behavior     // replacement installed after the current method
	// in is the actor's place in the first numbered stream it received
	// (order.go).
	in inStream
	// side is the state most actors never need, nil until they do.
	side *actorSide
}

// actorSide is the part of an actor that most actors never use.  Kept
// behind one pointer, it leaves every Actor in the 144-byte size class,
// and a migration moves it whole.
type actorSide struct {
	// pending holds the letters a synchronization constraint disabled
	// (§ 6.1), retried after each method.
	pending []*Message
	// streams are the numbered streams after the first, held the letters
	// that arrived ahead of their turn (order.go).
	streams []inStream
	held    []*Message
}

// cold returns a's side, making it if need be.
func (a *Actor) cold() *actorSide {
	if a.side == nil {
		a.side = &actorSide{}
	}
	return a.side
}

// npending is how many letters a's constraints hold back.
func (a *Actor) npending() int {
	if a.side == nil {
		return 0
	}
	return len(a.side.pending)
}

// Addr returns the actor's ordinary mail address.
func (a *Actor) Addr() Addr { return a.addr }

// task is one unit of dispatcher work: the one pointer that names it.  An
// *Actor has a message of its mail queue to process, a *joinCont is a
// completed join continuation, a *bcastWork is a broadcast to deliver to
// the local members collectively, a *spawnRecord is a remote creation
// request to serve.  Every stamp a task runs at is its heap key, so the
// heap entry is the pointer, the key and the tie-break and nothing else
// (TestTaskEntrySize).
type task any

// node is one processing element's kernel: name server, dispatcher, node
// manager state, and statistics.  Everything here is confined to the
// node's goroutine.
type node struct {
	id    amnet.NodeID
	m     *Machine
	ep    *amnet.Endpoint
	arena *names.Arena
	table *names.Table

	// ready is ordered by virtual arrival time (event-driven dispatch):
	// the earliest-stamped work runs first, so a node's clock is not
	// dragged forward by late work while earlier work waits.
	ready  sched.Heap[task]
	spawnq sched.Deque[*spawnRecord]

	// led is the work this node created and retired since it last settled
	// (program.go); touched, on a multi-process machine, the programs it
	// published work for since its last share check.
	led     ledger
	touched []*Program

	// pendingAddr holds messages routed here for actors that are not
	// registered yet (creation or group-create still in flight).
	pendingAddr map[Addr][]*Message
	// groups maps group id -> local membership; pendingCasts holds
	// broadcasts that arrived before the group-create did.
	groups       map[uint64]*groupEntry
	pendingCasts map[uint64][]pendingCast

	jc  jcArena
	rng *rand.Rand

	stats NodeStats
	ctx   Context

	// snap is the epoch-published mirror of stats that Machine.StatsNow
	// reads mid-run.  The node copies its counters into it under snapMu
	// from the run loop's 64-iteration epoch, before a real park
	// (Endpoint.OnPark) and at drain — never from a handler, and not on
	// the yield that hands a hop over — so the mutex stays off the hot
	// paths and every published snapshot is internally consistent.
	//
	// The mirror region is padded on both sides: snapMu is locked by
	// StatsNow readers on other goroutines, and without the pads its line
	// would also carry the tail of stats (above) or the hot pool slices
	// (below), which this node's goroutine rewrites constantly — every
	// StatsNow poll would then steal the line the kernel loop is writing
	// through.  Layout-sensitive; see DESIGN.md "Cache-line layout".
	_      [64]byte
	snapMu sync.Mutex
	snap   NodeStats // guarded by snapMu
	_      [64]byte

	// sink receives streamed trace events (Config.TraceSink), nil when
	// streaming is off.
	sink TraceSink

	// Control-plane arenas (wire.go): message, spawn-record, and FIR-path
	// freelists.
	msgFree   []*Message
	spawnFree []*spawnRecord
	pathFree  [][]amnet.NodeID

	stealOut     bool // a steal request is outstanding
	stealBackoff time.Duration
	nextSteal    time.Time // backoff gate for the next steal attempt
	stealSent    time.Time // when the outstanding request left (StealWait)

	treeBuf  []amnet.NodeID
	groupSeq uint64

	// vclock is the node's virtual clock in microseconds (vtime.go);
	// invSpeed scales charges for heterogeneous machines.
	vclock   float64
	invSpeed float64

	// events is the node's trace ring (trace.go), empty when disabled.
	events traceRing
}

func newNode(m *Machine, id amnet.NodeID) *node {
	n := &node{
		id:           id,
		m:            m,
		ep:           m.nw.Endpoint(id),
		arena:        names.NewArena(),
		table:        names.NewTable(),
		pendingAddr:  make(map[Addr][]*Message),
		groups:       make(map[uint64]*groupEntry),
		pendingCasts: make(map[uint64][]pendingCast),
		rng:          rand.New(rand.NewSource(m.cfg.Seed ^ (int64(id)+1)*0x5deece66d)),
		stealBackoff: stealBackoffBase,
	}
	n.invSpeed = 1
	if len(m.cfg.NodeSpeed) > 0 {
		n.invSpeed = 1 / m.cfg.NodeSpeed[id]
	}
	n.events.init(m.cfg.TraceBuffer)
	n.sink = m.cfg.TraceSink
	n.jc.init()
	n.ctx = Context{n: n}
	n.ep.OnPark(n.publishStats)
	return n
}

// run is the node kernel main loop.  It polls the network (handlers run
// node-manager work), executes one dispatcher task at a time, serves
// deferred creations, and when idle either steals work (load balancing)
// or waits on the inbox.
func (n *node) run() {
	defer n.m.wg.Done()
	for iter := 0; ; iter++ {
		if n.m.stopped() {
			n.drainAndExit()
			return
		}
		if iter&63 == 63 {
			// Guarantee the other simulated PEs get host CPU time even
			// on a single-core machine running a short burst: without
			// this, a whole run can fit inside one scheduler quantum
			// and idle nodes never even start polling.
			runtime.Gosched()
			n.publishStats()
			n.settle()
			if len(n.touched) > 0 {
				n.checkShares()
			}
		}
		progressed := n.ep.PollAll() > 0

		if n.ready.Len() > 0 || n.spawnq.Len() > 0 {
			// About to start work: publish our state and respect the
			// conservative window (an idle node may be entitled to the
			// frontier work instead).
			n.publish()
			n.paceGate()
			if t, vt, ok := n.ready.PopKey(); ok {
				n.execute(t, vt)
				n.led.beat++
				continue
			}
			// Newest-first local pop keeps the creation tree
			// depth-first (bounded memory); thieves take the oldest
			// from the front.
			if rec, ok := n.spawnq.PopBack(); ok {
				n.instantiate(rec)
				n.led.beat++
			}
			continue
		}
		if progressed {
			continue
		}
		n.publish()
		n.idle()
	}
}

// snapshot fills *s with the node's counters and the network layer's:
// amnet's wait counters are mirrored into the node's own fields so
// MachineStats.Total reports them directly.
func (n *node) snapshot(s *NodeStats) {
	*s = n.stats
	s.Net = n.ep.Stats()
	s.IdleYields = s.Net.WaitYields
	s.IdleParks = s.Net.WaitParks
}

// publishStats copies the node's counters into the snapshot mirror that
// Machine.StatsNow reads.  Called only between task executions (run loop
// epoch, before a real park, drain) so the snapshot never exposes a
// half-updated protocol step; the mutex is uncontended except against a
// concurrent StatsNow reader.
func (n *node) publishStats() {
	n.snapMu.Lock()
	n.snapshot(&n.snap)
	n.snapMu.Unlock()
}

// idle waits (amnet's Wait: yield, then park) until a packet, the stop
// signal, or a retry deadline (for steals and stalled bulk pumps) ends it.
func (n *node) idle() {
	n.settle()
	if len(n.touched) > 0 {
		n.checkShares()
	}
	timeout := time.Duration(0)
	if n.ep.BulkBacklog() > 0 {
		// An outbound transfer needs re-pumping; don't sleep long.
		timeout = sooner(timeout, 20*time.Microsecond)
	}
	polling := n.m.cfg.LoadBalance && n.m.live.sum() > 0 && n.spawnq.Empty()
	if polling {
		if !n.stealOut {
			n.sendSteal()
		}
		timeout = sooner(timeout, n.stealBackoff)
		n.m.pace.polling.Add(1)
	}
	n.m.parked.add(int(n.id), 1)
	n.ep.Wait(n.m.stop, timeout)
	n.m.parked.add(int(n.id), -1)
	if polling {
		n.m.pace.polling.Add(-1)
	}
}

// sooner merges deadline b into wait timeout a, where a == 0 means none yet.
func sooner(a, b time.Duration) time.Duration {
	if a == 0 || b < a {
		return b
	}
	return a
}

// drainAndExit discards queued packets until every node has reached
// shutdown, so peers blocked injecting into our inbox can finish their
// sends and exit too; it then purges abandoned work so a later Start
// begins clean.
func (n *node) drainAndExit() {
	n.settle()
	total := int32(len(n.m.local))
	n.m.draining.Add(1)
	for n.m.draining.Load() < total {
		for n.ep.PollDiscard() {
		}
		runtime.Gosched() // the nodes still on their way here need the processor
	}
	for n.ep.PollDiscard() {
	}
	n.purge()
	// Final publication: after this the node goroutine is done, so
	// StatsNow converges to exactly what Stats will report.
	n.publishStats()
}

// purge drops work abandoned by a shutdown (ExitNow or stall): dispatcher
// queues, held registrations, and queued mail.  Actors themselves persist
// across runs, as the paper's multi-program kernels keep actors of
// whichever programs are loaded.
func (n *node) purge() {
	n.ready = sched.Heap[task]{}
	n.spawnq.Clear()
	clear(n.pendingAddr)
	clear(n.pendingCasts)
	n.stealOut = false
	n.nextSteal = time.Time{}
	n.stealSent = time.Time{}
	n.ep.Reset() // staged, held and bulk packets must not leak into the next run
	// A shutdown purges every node, and the letters in flight are gone
	// with it, so every stream restarts from its first number on both
	// sides.
	n.arena.ForEach(func(seq uint64, ld *names.LD) {
		ld.Held = nil
		ld.FIRSent = false
		ld.Out = 0
		if ld.State == names.LDLocal {
			if a, ok := ld.Actor.(*Actor); ok {
				a.mailq.Clear()
				a.queued = false
				a.in, a.side = inStream{}, nil
			}
		}
	})
}

// execute runs one dispatcher task; vt is the key it was queued under (a
// broadcast's arrival stamp lives nowhere else).
func (n *node) execute(t task, vt float64) {
	switch t := t.(type) {
	case *Actor:
		n.runActor(t)
	case *joinCont:
		n.runJoin(t)
	case *bcastWork:
		n.runBcast(t, vt)
	case *spawnRecord:
		n.instantiate(t)
	}
}

// runActor dispatches one message from a's mail queue, honoring local
// synchronization constraints, then flushes newly enabled pending
// messages ("dispatches the pending messages one by one before it
// schedules the next actor", § 6.1).
func (n *node) runActor(a *Actor) {
	a.queued = false
	if a.dead {
		return
	}
	msg, ok := a.mailq.PopFront()
	if !ok {
		return
	}
	if !n.enabled(a, msg.Sel) {
		s := a.cold()
		s.pending = append(s.pending, msg)
		n.stats.Disabled++
	} else {
		n.invoke(a, msg)
		n.flushPending(a)
	}
	if !a.dead && !a.queued && a.mailq.Len() > 0 {
		a.queued = true
		n.ready.Push(a, n.headVT(a))
	}
}

// headVT returns the virtual stamp of an actor's next deliverable message
// (its scheduling priority).
func (n *node) headVT(a *Actor) float64 {
	if msg, ok := a.mailq.Front(); ok {
		return msg.vt
	}
	return n.vclock
}

func (n *node) enabled(a *Actor, sel Selector) bool {
	if c, ok := a.behavior.(Constrained); ok {
		return c.Enabled(sel)
	}
	return true
}

// invoke runs one method: the heart of "actor methods and kernel functions
// execute on the same stack".
func (n *node) invoke(a *Actor, msg *Message) {
	n.syncTo(msg.vt)
	n.charge(costDispatch)
	ctx := &n.ctx
	prog := msg.prog
	prevSelf, prevAddr, prevProg := ctx.self, ctx.selfAddr, ctx.prog
	ctx.self, ctx.selfAddr, ctx.prog = a, a.addr, prog
	n.trace(EvDeliver, a.addr, amnet.NoNode)
	a.behavior.Receive(ctx, msg)
	ctx.self, ctx.selfAddr, ctx.prog = prevSelf, prevAddr, prevProg

	n.stats.Delivered++
	n.freeMsg(msg)
	n.afterMethod(a, prog)
	n.decLiveProg(prog)
}

// afterMethod applies the effects a method of prog deferred to its return:
// become, then die or migrate.  Nearly every method defers nothing, so the
// test stands apart from the work and inlines into invoke and invokeInline
// (as one function it cost local-ring 2 % of its hops).
func (n *node) afterMethod(a *Actor, prog *Program) {
	if a.become != nil || a.dead || a.migrate != amnet.NoNode {
		n.applyDeferred(a, prog)
	}
}

func (n *node) applyDeferred(a *Actor, prog *Program) {
	if a.become != nil {
		a.behavior = a.become
		a.become = nil
	}
	if a.dead {
		n.reapActor(a)
	} else if a.migrate != amnet.NoNode {
		n.startMigration(a, prog)
	}
}

// flushPending re-dispatches pending messages that the (possibly new)
// behavior state now enables, repeating until none becomes enabled.
func (n *node) flushPending(a *Actor) {
	for !a.dead && a.npending() > 0 {
		fired := false
		for i, msg := range a.side.pending {
			if !n.enabled(a, msg.Sel) {
				continue
			}
			a.side.pending = append(a.side.pending[:i], a.side.pending[i+1:]...)
			n.stats.PendingRuns++
			n.invoke(a, msg)
			fired = true
			break // re-scan from the start: enablement changed
		}
		if !fired {
			return
		}
	}
}

// reapActor retires a dead actor: undelivered messages become dead
// letters and its descriptor becomes a tombstone.  The tombstone (rather
// than freeing the slot) makes every late send — routed via the
// birthplace or direct via a cached address — a deterministic dead
// letter; distributed reclamation of names is the garbage-collection
// future work the paper's conclusions point at ([33]).
func (n *node) reapActor(a *Actor) {
	for {
		msg, ok := a.mailq.PopFront()
		if !ok {
			break
		}
		n.dropMsg(msg)
	}
	if s := a.side; s != nil {
		for _, msg := range s.pending {
			n.dropMsg(msg)
		}
		for _, msg := range s.held {
			n.dropMsg(msg)
		}
		a.side = nil
	}
	ld := n.arena.Get(a.seq)
	if ld != nil {
		ld.State = names.LDDead
		ld.Actor = nil
	}
	// A co-located alias descriptor dies with the actor.
	if !a.alias.IsNil() && a.alias.Birth == n.id {
		if ald := n.arena.Get(a.alias.Seq); ald != nil && ald.Actor == a {
			ald.State = names.LDDead
			ald.Actor = nil
		}
	}
}

// dropMsg discards an undeliverable message, retiring its work unit.
func (n *node) dropMsg(msg *Message) {
	n.stats.DeadLetters++
	n.trace(EvDeadLetter, msg.To, amnet.NoNode)
	prog := msg.prog
	n.freeMsg(msg)
	n.decLiveProg(prog)
}

// enqueueLocal appends msg to a local actor's mail queue, in its turn if
// it is numbered, and schedules the actor.  The caller has already
// accounted the message in live.
func (n *node) enqueueLocal(a *Actor, msg *Message) {
	if a.dead {
		n.dropMsg(msg)
		return
	}
	if msg.num != 0 {
		// A numbered letter that is its stream's next, with nothing held,
		// takes its turn here; admit sees to every other.
		st := &a.in
		if msg.originLD != st.ld || msg.origin() != st.node {
			st = a.stream(msg.origin(), msg.originLD)
		}
		if msg.num != nextNum(st.last) || a.side != nil && len(a.side.held) != 0 {
			n.admit(a, msg, st)
			return
		}
		st.last = msg.num
	}
	// queue's body, written out: as a call it cost the local hop 4 ns.
	a.mailq.PushBack(msg)
	if !a.queued {
		a.queued = true
		n.ready.Push(a, n.headVT(a))
	}
}

// queue appends msg to a's mail queue and schedules a.
func (n *node) queue(a *Actor, msg *Message) {
	a.mailq.PushBack(msg)
	if !a.queued {
		a.queued = true
		n.ready.Push(a, n.headVT(a))
	}
}

// --- message pooling ---------------------------------------------------

// newMsg returns a message from the node-local pool, else one another node
// spilled, else a new one.
func (n *node) newMsg() *Message {
	if k := len(n.msgFree); k > 0 {
		m := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		return m
	}
	if m, ok := n.m.msgSpill.Get().(*Message); ok {
		return m
	}
	return &Message{}
}

// msgPoolCap bounds the node-local freelist.  The consumer of a message
// frees it, so on a one-way flow the consumer's list only ever grows and
// the producer's stays empty: past the cap a freed message spills into the
// machine-wide pool, where the producer's newMsg finds it.
const msgPoolCap = 256

// freeMsg recycles a message unless it is shared (broadcast) — shared
// messages have many concurrent readers and are left to the GC.  (The slow
// half is a call without arguments so that freeMsg still inlines, at 80 of
// the inliner's 80: out of line it cost a no-argument hop 1.5 ns.)
func (n *node) freeMsg(m *Message) {
	if m.shared {
		return
	}
	*m = Message{}
	if n.msgFree = append(n.msgFree, m); len(n.msgFree) > msgPoolCap {
		n.spill()
	}
}

// spill moves the freelist's newest message to the machine-wide pool.
//
//go:noinline
func (n *node) spill() {
	k := len(n.msgFree) - 1
	n.m.msgSpill.Put(n.msgFree[k])
	n.msgFree = n.msgFree[:k]
}

// --- creation ----------------------------------------------------------

// createLocal allocates an actor with an ordinary mail address on this
// node: a locality descriptor in the arena (whose slot is the address) in
// state local.  This is the paper's 5 µs "local creation" primitive.
func (n *node) createLocal(b Behavior) *Actor {
	n.charge(costCreateLocal)
	seq, ld := n.arena.Alloc()
	a := &Actor{
		behavior: b,
		addr:     Addr{Birth: n.id, Hint: n.id, Seq: seq},
		alias:    Nil,
		seq:      seq,
		migrate:  amnet.NoNode,
	}
	ld.State = names.LDLocal
	ld.Actor = a
	n.stats.CreatesLocal++
	n.trace(EvCreate, a.addr, amnet.NoNode)
	return a
}

// instantiate serves a creation request (remote, deferred, or stolen):
// build the actor here, register it under the received alias, and send the
// locality descriptor's address back to the alias's birthplace to be
// cached (§ 5's "background processing").
func (n *node) instantiate(rec *spawnRecord) {
	n.syncTo(rec.vt)
	n.charge(costCreateServe)
	b := n.m.construct(rec.typ, rec.args)
	a := n.createLocal(b)
	a.alias = rec.alias
	n.table.Bind(rec.alias, a.seq)
	n.stats.CreatesServed++
	n.trace(EvCreateServed, rec.alias, rec.alias.Birth)
	if rec.alias.Birth != n.id {
		n.sendLoc(hAliasBind, rec.alias.Birth, rec.alias, n.id, a.seq)
	} else {
		// Deferred local creation (NewAuto executed at home): resolve
		// the alias descriptor directly.
		if ld := n.arena.Get(rec.alias.Seq); ld != nil {
			n.resolveAlias(ld, rec.alias, n.id, a.seq)
		}
	}
	n.flushPendingAddr(rec.alias)
	n.decLiveProg(rec.prog)
	n.freeSpawn(rec)
}

// flushPendingAddr delivers messages that were held for addr before its
// actor was registered here.
func (n *node) flushPendingAddr(addr Addr) {
	held, ok := n.pendingAddr[addr]
	if !ok {
		return
	}
	delete(n.pendingAddr, addr)
	for _, msg := range held {
		n.deliverHere(msg)
	}
}

// randomVictim picks a uniformly random node other than this one.
func (n *node) randomVictim() amnet.NodeID {
	p := len(n.m.nodes)
	v := amnet.NodeID(n.rng.Intn(p - 1))
	if v >= n.id {
		v++
	}
	return v
}

// debugString summarizes the node for stall diagnostics.
func (n *node) debugString() string {
	return fmt.Sprintf("node %d: ready=%d spawnq=%d pendingAddr=%d tableLen=%d ldLive=%d",
		n.id, n.ready.Len(), n.spawnq.Len(), len(n.pendingAddr), n.table.Len(), n.arena.Live())
}
