// Package amnet simulates the CM-5 interconnect and its Active Messages
// layer (CMAM) for the HAL runtime reproduction.
//
// A Network connects P endpoints, one per simulated processing element
// (PE).  Each PE is driven by exactly one goroutine — the node kernel loop —
// which is the only goroutine allowed to touch that endpoint's receive side.
// The interconnect is a set of bounded lock-free MPSC rings (ring.go), one
// inbox per endpoint, giving FIFO delivery per (sender, receiver) pair and
// finite network capacity: when a destination inbox is full the sender
// stalls, exactly the back-pressure that motivates the paper's minimal
// flow control.  Capacity is tracked by an atomic packet-token counter
// (reserve/release), so the ring itself never fills and a push after a
// successful reservation is wait-free aside from the slot-claim CAS.
//
// As in CMAM, a message names a handler which runs to completion on the
// receiving PE when the network is polled; handlers must never block.  Also
// as in CMAM, a sender blocked on a full link polls its own inbox while it
// waits, which guarantees freedom from deadlock as long as handlers do not
// block.
//
// Send is the one way to put a packet on a link: in order, and now.  A
// caller that knows a packet can wait for its next poll boundary may
// instead STAGE it (SendBatched): staged packets accumulate in a
// per-(src,dst) buffer and are injected as one inbox item when the buffer
// reaches Config.BatchMax or the endpoint reaches a poll boundary
// (PollAll, Wait).  A batch costs one ring operation instead of N,
// but counts as N packets against the destination's InboxCap (capacity is
// tracked by an atomic packet-token counter, not ring slots), preserves
// per-(src,dst) FIFO (packets within a batch are delivered in append
// order, and every Send drains the link's staging buffer before it
// injects), and runs the fault filter once per PACKET on arrival, so a
// fault plan cuts a link at the same packets staged or not.
// What may be staged is the caller's decision alone; nothing here looks
// inside a packet to second-guess it.
//
// Bulk data does not fit in an active message, so it moves through the
// three-phase transfer protocol in bulk.go (request, acknowledgment, data
// segments), on both networks, with the acknowledgment policy selectable
// to reproduce the paper's flow-control experiment.
package amnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/hist"
)

// NodeID identifies a simulated processing element.  IDs are dense,
// 0..P-1.  The front end is not a NodeID; it lives outside the network.
type NodeID int32

// NoNode is the invalid node id.
const NoNode NodeID = -1

// HandlerID names a registered active-message handler.  Handler tables are
// identical on every node, mirroring the CM-5 model where the same
// executable image is loaded on each PE.
type HandlerID uint8

// Packet is one active message.  Src and Dst are node ids; Handler selects
// the function run on the destination PE.  U0..U3 are small word arguments
// (CMAM messages carry a handler plus four words); Payload carries a
// structured runtime-protocol body when the words are not enough, and Data
// carries a bulk float payload delivered by the transfer protocol.
type Packet struct {
	Handler HandlerID
	Src     NodeID
	Dst     NodeID
	U0      uint64
	U1      uint64
	U2      uint64
	U3      uint64
	// VT is the packet's virtual arrival time at the destination, in
	// microseconds of simulated time (see package core's virtual
	// clocks).  The network layer carries it untouched.
	VT      float64
	Payload any
	Data    []float64
}

// Handler is an active-message handler.  It runs on the destination
// endpoint's goroutine during a poll and must not block; it may send
// packets and mutate node-local state only.
type Handler func(ep *Endpoint, p Packet)

// Config configures a Network.
type Config struct {
	// Nodes is the number of processing elements (must be >= 1).
	Nodes int
	// InboxCap is the capacity, in packets, of each endpoint's inbox.
	// Small values create realistic network back-pressure.  Default 1024.
	InboxCap int
	// Flow selects the bulk-transfer acknowledgment policy.  Default
	// FlowOneActive (the paper's minimal flow control).
	Flow FlowMode
	// BatchMax is the largest number of packets coalesced into one
	// SendBatched injection per destination link.  Default 32.  Clamped
	// to InboxCap so a full batch always fits the destination inbox.
	BatchMax int
	// Faults, when non-nil, injects deterministic delivery faults (see
	// faults.go).  Nil means a perfect network; the fault-free receive
	// path costs one extra pointer test per packet.
	Faults *FaultPlan
	// Remote, when non-nil, is the wire transport for a machine spanning
	// several OS processes (transport.go).  Packets addressed to nodes
	// the transport reports non-resident are handed to it instead of
	// enqueued locally; nil means the whole machine lives in this
	// process and the send path is exactly the pre-transport one.
	Remote Transport
}

// defaultBatchMax is the per-link coalescing limit when Config.BatchMax
// is unset.
const defaultBatchMax = 32

func (c *Config) applyDefaults() error {
	if c.Nodes < 1 {
		return fmt.Errorf("amnet: config needs at least 1 node, got %d", c.Nodes)
	}
	if c.InboxCap <= 0 {
		c.InboxCap = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = defaultBatchMax
	}
	if c.BatchMax > c.InboxCap {
		c.BatchMax = c.InboxCap
	}
	if c.Flow < FlowOneActive || c.Flow > FlowEager {
		return fmt.Errorf("amnet: invalid flow mode %d", c.Flow)
	}
	if c.Faults != nil {
		if err := c.Faults.applyDefaults(); err != nil {
			return err
		}
	}
	return nil
}

// Network is the simulated machine interconnect: P endpoints plus the
// shared handler table.
type Network struct {
	cfg       Config
	eps       []*Endpoint
	handlers  [256]Handler
	observer  FaultObserver
	sealed    atomic.Bool
	batchPool sync.Pool

	// remote/nonres are the multi-process seam (transport.go): nonres[d]
	// marks node d as living in another process, and is nil for a
	// single-process network so the hot send path pays one nil test.
	remote Transport
	nonres []bool
	// injectDiscard, when set, makes Endpoint.Inject drop inbound wire
	// packets instead of delivering them: the machine is shutting down
	// and its node goroutines have stopped draining rings, so a blocked
	// transport reader must not wedge a peer process's writer.
	injectDiscard atomic.Bool

	// awake counts the resident endpoints whose owner is waiting on the
	// network (has called Wait or RecvBlock and not left by stop) and is
	// not parked right now: the number of goroutines that can still
	// produce a packet.  A parking endpoint takes itself out, whoever
	// ends its sleep puts it back — the waker, not the woken, because on
	// one P the woken goroutine does not run before the waker next waits,
	// and that wait is the one that must see it (wait.go).  On its own
	// line: every park and every wake writes it.
	_     [64]byte
	awake atomic.Int32
	_     [60]byte
}

// NewNetwork builds a network with the given configuration.  Handlers must
// be registered before any endpoint sends or polls.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	nw := &Network{cfg: cfg}
	bm := cfg.BatchMax
	nw.batchPool.New = func() any {
		b := make([]Packet, 0, bm)
		return &b
	}
	nw.eps = make([]*Endpoint, cfg.Nodes)
	for i := range nw.eps {
		nw.eps[i] = &Endpoint{
			id:        NodeID(i),
			net:       nw,
			spaceWake: make(chan struct{}, 1),
			recvWake:  make(chan struct{}, 1),
			out:       make([]outBuf, cfg.Nodes),
		}
		nw.eps[i].ring.init(cfg.InboxCap)
		nw.eps[i].bulk.in = make(map[xferKey]*inXfer)
		if cfg.Faults != nil {
			nw.eps[i].faults = newEPFaults(cfg.Faults, cfg.Nodes, NodeID(i))
		}
	}
	if cfg.Remote != nil {
		nw.remote = cfg.Remote
		nw.nonres = make([]bool, cfg.Nodes)
		any := false
		for i := range nw.nonres {
			if !cfg.Remote.Resident(NodeID(i)) {
				nw.nonres[i] = true
				any = true
			}
		}
		if !any {
			nw.nonres = nil // every node is local; keep the fast path
		}
	}
	registerBulkHandlers(nw)
	return nw, nil
}

// isRemote reports whether node d's kernel runs in another process.
func (nw *Network) isRemote(d NodeID) bool {
	return nw.nonres != nil && nw.nonres[d]
}

// Faults returns the network's fault plan, nil for a perfect network.
func (nw *Network) Faults() *FaultPlan { return nw.cfg.Faults }

// StartTransport attaches and starts the wire transport, if any.  Called
// once by the machine after handler registration, before node goroutines
// begin polling.
func (nw *Network) StartTransport() error {
	if nw.remote == nil {
		return nil
	}
	nw.injectDiscard.Store(false)
	return nw.remote.Start(nw)
}

// SetInjectDiscard switches inbound wire packets between delivery and
// discard.  The machine sets discard when its node goroutines stop
// draining rings (shutdown), so transport readers blocked in Inject
// unwind instead of wedging peer writers.
func (nw *Network) SetInjectDiscard(discard bool) {
	nw.injectDiscard.Store(discard)
}

// Nodes returns the number of endpoints.
func (nw *Network) Nodes() int { return len(nw.eps) }

// Config returns the network configuration after defaulting.
func (nw *Network) Config() Config { return nw.cfg }

// Endpoint returns the endpoint for node id.
func (nw *Network) Endpoint(id NodeID) *Endpoint {
	return nw.eps[id]
}

// Register installs h under id on every node.  It panics if id is already
// taken or if registration happens after traffic started; handler tables
// are part of the loaded program image, not runtime state.
func (nw *Network) Register(id HandlerID, h Handler) {
	if nw.sealed.Load() {
		panic("amnet: Register after network traffic started")
	}
	if nw.handlers[id] != nil {
		panic(fmt.Sprintf("amnet: handler %d registered twice", id))
	}
	nw.handlers[id] = h
}

// qItem is one inbox entry: either a single packet or a coalesced batch.
// A batch entry holds a pooled slice whose ownership transfers to the
// receiver; the receiver returns it to the pool after delivery.
type qItem struct {
	pkt   Packet
	batch *[]Packet
}

// newBatch takes a packet slice from the network's batch pool.  The pool
// is per-Network (not per-endpoint) deliberately: under unidirectional
// traffic a sender-owned freelist would drain to the receiver and never
// refill, reintroducing a steady-state allocation.  Slices are sized to
// the configured BatchMax so a full batch never reallocates mid-append.
func (nw *Network) newBatch() *[]Packet { return nw.batchPool.Get().(*[]Packet) }

// freeBatch zeroes the entries (dropping Payload/Data references) and
// returns the slice to the pool.
func (nw *Network) freeBatch(b *[]Packet) {
	s := *b
	for i := range s {
		s[i] = Packet{}
	}
	if cap(s) > 2*nw.cfg.BatchMax {
		// Grown by reentrant staging during a parked flush; pooling it
		// would let one pathological drain bloat every later batch.
		return
	}
	*b = s[:0]
	nw.batchPool.Put(b)
}

// outBuf is one destination link's staging buffer for SendBatched.
type outBuf struct {
	buf *[]Packet
	// dirty marks membership in the endpoint's dirty list.
	dirty bool
	// flushing guards against reentrant flushes of the same link: a
	// blocked injection drains the sender's own inbox, and a handler run
	// there may SendBatched to the link already being flushed.  The
	// outer flush loop picks those packets up.
	flushing bool
}

// Endpoint is one PE's attachment to the network.  All receive-side calls
// (PollOne, PollAll, Wait, RecvBlock) and all Send calls must come from the
// single goroutine that owns the node.
type Endpoint struct {
	id  NodeID
	net *Network

	// ring is the lock-free MPSC inbox (ring.go).  Producers are remote
	// senders holding reserved inq tokens; the sole consumer is this
	// endpoint's owning goroutine.  Its cursors carry their own padding.
	ring mpscRing

	// inq counts packets logically occupying the inbox (a batch counts
	// as its packet count).  It is the capacity accounting: senders
	// reserve tokens before the ring push, the receiver releases them
	// at dequeue.  Items in the ring never exceed reserved tokens, so a
	// push after a successful reserve cannot find the ring full.  Atomic
	// because senders on other goroutines reserve, and Machine.monitor
	// reads Pending cross-goroutine.  inq and waiters are the two words
	// every producer to this endpoint hammers; they share one line with
	// each other (they are updated together on the stall path) and with
	// nothing else — the padding on both sides keeps producer CAS traffic
	// off the consumer-owned fields below.
	_       [64]byte
	inq     atomic.Int64
	waiters atomic.Int32
	// rsleep flags that the consumer is parked (or about to park) on
	// recvWake.  The consumer sets it; whoever swaps it back to 0 — a
	// producer that published, Wake, or the consumer itself — ends that
	// sleep, and a waker that wins the swap sends the one-token recvWake
	// channel its token.  See ring.go's lost-wakeup argument and wait.go.
	rsleep atomic.Int32
	_      [44]byte

	// spaceWake is the wake-up baton senders park on when the inbox is
	// full (the full↔space edge); waiters counts them.  A releaser hands
	// the baton only when a waiter is registered, and a waiter registers
	// before re-checking capacity, so wake-ups cannot be lost.
	spaceWake chan struct{}
	// recvWake is the empty↔non-empty edge: the consumer's park channel.
	// It carries at most one token, the one a claimed sleep is owed.
	recvWake chan struct{}

	// waiting marks this endpoint as counted in Network.awake: set by its
	// owner's first wait, cleared when a wait ends on stop.  onPark, if
	// set, runs on the owner's goroutine before a wait really parks.
	waiting bool
	onPark  func()
	// yielded is how long the owner has yielded sub-millisecond deadlines
	// away since stats.Received last read yieldedAt (wait.go).
	yielded   time.Duration
	yieldedAt uint64

	// Send-side coalescing state (owned by the endpoint's goroutine).
	out       []outBuf
	dirtyList []NodeID
	// flushingOut marks a flushOut pass in progress; nested passes no-op
	// and leave the dirty list to the outer one.
	flushingOut bool

	bulk   bulkState
	faults *epFaults
	stats  Stats

	// depth guards against unbounded handler->send->poll->handler
	// recursion when inboxes are saturated in both directions.
	depth int
}

// ID returns the endpoint's node id.
func (ep *Endpoint) ID() NodeID { return ep.id }

// Net returns the owning network.
func (ep *Endpoint) Net() *Network { return ep.net }

// Stats returns a snapshot of this endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// maxPollDepth bounds reentrant polling from within Send.  Beyond this
// depth Send stops draining its own inbox and waits flat for inbox space;
// the packets it would have drained are handled when the stack unwinds.
const maxPollDepth = 64

// reserve claims k packet-tokens of dst inbox capacity, reporting success.
// It commits with a CAS only when the post-add count fits, so a failed
// attempt is never visible to concurrent senders — a refusal (TrySend or
// a stall) always means the inbox really lacked k tokens at that instant,
// never that another sender's transient overshoot was in flight.
func (ep *Endpoint) reserve(k int64) bool {
	lim := int64(ep.net.cfg.InboxCap)
	for {
		cur := ep.inq.Load()
		if cur+k > lim {
			return false
		}
		if ep.inq.CompareAndSwap(cur, cur+k) {
			return true
		}
	}
}

// release returns k packet-tokens and hands the baton to a parked sender
// if one is registered and capacity now exists.
func (ep *Endpoint) release(k int64) {
	if ep.inq.Add(-k) < int64(ep.net.cfg.InboxCap) && ep.waiters.Load() > 0 {
		select {
		case ep.spaceWake <- struct{}{}:
		default:
		}
	}
}

// enqueue publishes q into this endpoint's inbox ring and wakes the
// consumer if it is parked.  Callers must hold reserved inq tokens for
// every packet q carries.
func (ep *Endpoint) enqueue(q qItem) {
	ep.ring.push(q)
	if ep.rsleep.Load() != 0 {
		ep.Wake()
	}
}

// parkRecvOrSpace blocks until either a packet is published into this
// endpoint's ring or dst releases inbox space.  The rsleep flag is set
// before the final emptiness re-check (check-then-block, like stall's
// re-test after registering as a waiter) so a producer publishing between
// the re-check and the select is guaranteed to see the flag and signal
// recvWake.
func (ep *Endpoint) parkRecvOrSpace(dst *Endpoint) {
	ep.declare()
	if !ep.ring.empty() {
		ep.undeclare()
		return
	}
	ep.park(dst.spaceWake, nil)
}

// stall claims k tokens of dst capacity, waiting while the link is full.
// While waiting below the recursion limit the sender polls its own inbox
// (the CMAM discipline), so handlers may run reentrantly.  With rounds > 0
// it gives up after that many failed waits and reports false; rounds == 0
// waits until the claim succeeds.
//
// A k>1 reservation acquires all k tokens atomically or none, so under a
// sustained stream of single-packet reservations from other senders it can
// starve waiting for k contiguous tokens.  Batch injection therefore passes
// a round bound and splits the batch into fair k=1 sends when it runs out;
// only single-token claims wait unbounded, and those cannot starve (every
// release wakes a waiter and any one token satisfies the claim).
//
//halvet:allowblock the CMAM poll-while-stalled discipline: the stall loop drains this endpoint's own inbox (or, at depth, relies on the cycle argument below), so a handler reaching this wait still makes progress
func (ep *Endpoint) stall(dst *Endpoint, k int64, rounds int) bool {
	if dst.reserve(k) {
		return true
	}
	ep.stats.SendStalls++
	dst.waiters.Add(1)
	// Re-test before the first wait: release only signals spaceWake when a
	// waiter is registered, so a release landing between the failed reserve
	// above and the waiters.Add(1) would otherwise be lost and this sender
	// could park forever.
	ok := dst.reserve(k)
	for i := 0; !ok && (rounds == 0 || i < rounds); i++ {
		if ep.depth >= maxPollDepth {
			// Too deep to keep draining reentrantly; block outright.  The
			// destination PE polls on its own sends, so this cannot
			// deadlock: some PE in any wait cycle is below the depth
			// limit or has inbox room.
			<-dst.spaceWake
		} else if q, okq := ep.ring.pop(); okq {
			// The drain runs the fault filter too, but ignores pause
			// windows: a paused node that refused to drain while blocked
			// on a full link could deadlock against its peer.
			ep.consume(q)
		} else {
			ep.parkRecvOrSpace(dst)
		}
		ok = dst.reserve(k)
	}
	dst.waiters.Add(-1)
	if dst.waiters.Load() > 0 {
		// Pass a possibly-consumed baton on to the next waiter.
		select {
		case dst.spaceWake <- struct{}{}:
		default:
		}
	}
	return ok
}

// Send injects p into the network, stamping p.Src, after anything staged
// for the same destination: per-(src,dst) delivery order is call order
// whichever of Send and SendBatched each packet took.  If the destination
// inbox is full the sender polls its own inbox while waiting (the CMAM
// discipline), so Send may execute handlers reentrantly.  Send never
// fails; it blocks until the packet is accepted.
func (ep *Endpoint) Send(p Packet) { ep.send(p, false) }

// SendNow is Send under the name it had while staging was the default;
// halbench's ladder still calls it.
func (ep *Endpoint) SendNow(p Packet) { ep.Send(p) }

// SendBatched stages p for its destination instead of injecting it: the
// caller asserts that p can wait for this endpoint's next poll boundary.
// Delivery order per (src,dst) pair is identical to Send; only the
// ring-operation count changes.  The staged packets are injected when the
// buffer reaches Config.BatchMax, at the next Send to the same destination,
// or at the next poll boundary (PollAll/Wait) — staged packets are
// never held across a blocking wait.
func (ep *Endpoint) SendBatched(p Packet) { ep.send(p, true) }

func (ep *Endpoint) send(p Packet, stage bool) {
	ep.net.sealed.Store(true)
	p.Src = ep.id
	b := &ep.out[p.Dst]
	if !stage {
		// Drain the link first so this packet cannot overtake staged
		// traffic, then inject by value.
		ep.flushDst(p.Dst)
		if !b.flushing {
			ep.inject(&p)
			return
		}
		// A flush below us is parked mid-injection on this link with
		// older packets not yet in the inbox; stage behind them so
		// per-link FIFO holds.
	}
	if b.buf == nil {
		b.buf = ep.net.newBatch()
	}
	// Register for the next flush pass whenever the link is not already
	// registered — NOT only when the buffer transitions from empty.  A
	// reentrant stage during flushOut lands after the pass cleared this
	// link's dirty flag; registering again is what makes the pass's index
	// loop revisit it instead of stranding the packet.
	if !b.dirty {
		b.dirty = true
		ep.dirtyList = append(ep.dirtyList, p.Dst)
	}
	*b.buf = append(*b.buf, p)
	if len(*b.buf) >= ep.net.cfg.BatchMax {
		ep.flushDst(p.Dst)
	}
}

// remoteStallPause paces the retry loop when the wire transport's
// outbound queue is full and this endpoint's own inbox is empty: there
// is nothing to drain locally, so progress depends on the peer process.
const remoteStallPause = 50 * time.Microsecond

// inject puts an already-stamped packet on its link as a single item: a
// token claim and a ring push for a resident destination, the wire
// transport otherwise.  A refusing transport gets the same CMAM
// discipline as a full ring: the sender drains its own inbox between
// retries, so a wait cycle across processes resolves exactly like one
// across full in-memory links (every stalled PE keeps consuming, which
// frees its peers).  The packet comes by pointer, and is not retained,
// because one more 96-byte copy here is measurable (3 % of the unloaded
// send/poll round: EXPERIMENTS.md, "The send path, collapsed").
//
//halvet:allowblock the sanctioned poll-while-stalled discipline: the retry loop drains this endpoint's own ring between TrySend attempts, exactly like stall on a full in-memory link
//halvet:allowwallclock remote-link backpressure pacing is host-time: the peer process's drain rate is invisible to virtual time, and a parked sender's VT is frozen
func (ep *Endpoint) inject(p *Packet) {
	ep.stats.Sent++
	if !ep.net.isRemote(p.Dst) {
		dst := ep.net.eps[p.Dst]
		ep.stall(dst, 1, 0)
		// Tokens are released only when the receiver dequeues the item, so
		// a successful reservation guarantees a free ring slot.
		dst.enqueue(qItem{pkt: *p})
		return
	}
	r := ep.net.remote
	if r.TrySend(*p) {
		return
	}
	ep.stats.SendStalls++
	for !r.TrySend(*p) {
		if ep.net.injectDiscard.Load() {
			// The machine is shutting down.  A transport holds packets
			// for a peer that may never come back, and nothing here would
			// take an answer any more: give the packet up, do not wait.
			return
		}
		if ep.depth < maxPollDepth {
			if q, ok := ep.ring.pop(); ok {
				ep.consume(q)
				continue
			}
		}
		time.Sleep(remoteStallPause)
	}
}

func (ep *Endpoint) flushOut() {
	if len(ep.dirtyList) == 0 || ep.flushingOut {
		// Reentrant flushOut (a blocked injection drained our inbox and a
		// handler polled) must not run: the outer pass owns the dirty list,
		// and a nested truncation would orphan entries the outer index loop
		// has not reached.  Anything staged now re-registers (dirty was
		// cleared before the flush) and the outer loop picks it up.
		return
	}
	ep.flushingOut = true
	// Index loop: a flush can run handlers reentrantly (blocked injection
	// drains our own inbox), and those may stage packets — to new links OR
	// to links this pass already flushed.  Clearing dirty BEFORE flushing
	// makes any such stage re-append the link, so the loop revisits it;
	// by loop exit every registered buffer has drained.
	for i := 0; i < len(ep.dirtyList); i++ {
		d := ep.dirtyList[i]
		ep.out[d].dirty = false
		ep.flushDst(d)
	}
	ep.dirtyList = ep.dirtyList[:0]
	ep.flushingOut = false
}

// flushDst drains one link's staging buffer into the network.
func (ep *Endpoint) flushDst(dst NodeID) {
	b := &ep.out[dst]
	if b.flushing {
		return // the flush below us will pick the packets up
	}
	b.flushing = true
	for b.buf != nil && len(*b.buf) > 0 {
		if len(*b.buf) == 1 {
			// Singleton: inject directly and keep the buffer.  Clear the
			// entry first — the injection may block and run handlers that
			// stage more packets into this same buffer.
			p := (*b.buf)[0]
			(*b.buf)[0] = Packet{}
			*b.buf = (*b.buf)[:0]
			ep.stats.FlushOcc.Observe(1)
			ep.inject(&p)
			continue
		}
		// Ownership of the slice transfers to the receiver; detach it so
		// reentrant stages start a fresh buffer.
		buf := b.buf
		b.buf = nil
		ep.injectBatch(dst, buf)
	}
	b.flushing = false
}

// batchReserveRounds bounds how many wakeups a k>1 batch reservation
// waits for k contiguous tokens.  Under a sustained stream of
// single-packet reservations from other senders the atomic k-token claim
// can starve indefinitely — each freed token is stolen before k
// accumulate — so after this many failed rounds the batch splits into
// per-packet sends, which contend fairly at k=1.
const batchReserveRounds = 128

// injectBatch ships a multi-packet buffer as one inbox item, reserving
// its full packet count against the destination's capacity.  When the
// whole-batch reservation cannot be claimed — the buffer outgrew one
// reservation (a reentrant flush accumulated past InboxCap) or the
// contiguous claim starved against single-packet competitors — the batch
// splits into per-packet sends; delivery order is preserved either way.
func (ep *Endpoint) injectBatch(dst NodeID, buf *[]Packet) {
	k := len(*buf)
	ep.stats.FlushOcc.Observe(float64(k))
	if ep.net.isRemote(dst) {
		// A remote batch has no ring slot to share; the coalescing win is
		// the single wire flush the link writer performs after draining
		// these packets back-to-back.
		ep.stats.Batches++
		ep.stats.BatchedPkts += uint64(k)
	} else {
		d := ep.net.eps[dst]
		if k <= ep.net.cfg.InboxCap && ep.stall(d, int64(k), batchReserveRounds) {
			ep.stats.Sent += uint64(k)
			ep.stats.Batches++
			ep.stats.BatchedPkts += uint64(k)
			d.enqueue(qItem{batch: buf})
			return
		}
		ep.stats.BatchSplits++
	}
	for i := range *buf {
		ep.inject(&(*buf)[i])
	}
	ep.net.freeBatch(buf)
}

// Reset drops everything the endpoint holds for later delivery: staged
// SendBatched packets, packets held behind cut links, the pause schedule,
// and every bulk transfer in either direction.  Machine shutdown calls it
// on the owning goroutine once the network is drained, so nothing of one
// run reaches the next.
func (ep *Endpoint) Reset() {
	// Sweep every link, not just the dirty list: shutdown must reclaim
	// buffers even if dirty bookkeeping was mid-transition.
	for i := range ep.out {
		b := &ep.out[i]
		if b.buf != nil {
			ep.net.freeBatch(b.buf)
			b.buf = nil
		}
		b.dirty = false
	}
	ep.dirtyList = ep.dirtyList[:0]
	if f := ep.faults; f != nil {
		f.reset()
	}
	ep.bulk.reset()
}

// TrySend injects p without ever blocking or polling.  It reports whether
// the packet was accepted; refusals are counted in Stats.TryStalls.  Used
// by the flow-controlled bulk path, which prefers to requeue work rather
// than stall the PE.
func (ep *Endpoint) TrySend(p Packet) bool {
	ep.net.sealed.Store(true)
	p.Src = ep.id
	if ep.net.isRemote(p.Dst) {
		if !ep.net.remote.TrySend(p) {
			ep.stats.TryStalls++
			return false
		}
		ep.stats.Sent++
		return true
	}
	dst := ep.net.eps[p.Dst]
	if !dst.reserve(1) {
		ep.stats.TryStalls++
		return false
	}
	ep.stats.Sent++
	dst.enqueue(qItem{pkt: p})
	return true
}

// consume releases the item's capacity tokens and runs the fault filter
// and handler for each packet it carries, returning the packet count.
func (ep *Endpoint) consume(q qItem) int {
	if q.batch == nil {
		ep.release(1)
		ep.receive(q.pkt)
		return 1
	}
	pkts := *q.batch
	n := len(pkts)
	ep.release(int64(n))
	for i := range pkts {
		ep.receive(pkts[i])
	}
	ep.net.freeBatch(q.batch)
	return n
}

func (ep *Endpoint) dispatch(p Packet) {
	h := ep.net.handlers[p.Handler]
	if h == nil {
		panic(fmt.Sprintf("amnet: node %d received packet for unregistered handler %d", ep.id, p.Handler))
	}
	ep.stats.Received++
	ep.depth++
	h(ep, p)
	ep.depth--
}

// PollOne handles at most one pending inbox item (a coalesced batch
// counts as one item) and reports whether it did.  During a fault-plan
// pause window it handles nothing.
func (ep *Endpoint) PollOne() bool {
	if f := ep.faults; f != nil && f.pausedNow(ep) {
		return false
	}
	return ep.popOne()
}

// PollAll drains and handles every packet currently queued, returning the
// number handled.  Packets that arrive while draining are handled too.
// Packets the fault plan held behind a cut link on an earlier poll are
// handled first; during a pause window nothing is handled.  Returning, it flushes
// the endpoint's staged SendBatched packets — a poll boundary is a point
// where the PE may go on to block, and coalesced traffic must not be held
// across that.
func (ep *Endpoint) PollAll() int {
	n := 0
	if f := ep.faults; f != nil {
		if f.pausedNow(ep) {
			return 0
		}
		n += ep.drainHeld()
	}
	for {
		q, ok := ep.ring.pop()
		if !ok {
			if n > 0 {
				ep.stats.Polls++
			}
			// Polling is also the hook where deferred bulk work makes
			// progress and where staged batches flush.
			ep.bulk.pump(ep)
			ep.flushOut()
			return n
		}
		n += ep.consume(q)
	}
}

// Pending returns the number of packets waiting in the inbox.  Safe to
// call from any goroutine; intended for monitoring and tests.
func (ep *Endpoint) Pending() int { return int(ep.inq.Load()) }

// PollDiscard removes one pending inbox item without running handlers and
// reports whether one was removed.  Used during machine shutdown so peers
// blocked injecting into this inbox can complete their sends and shut
// down too.
func (ep *Endpoint) PollDiscard() bool {
	q, ok := ep.ring.pop()
	if !ok {
		return false
	}
	if q.batch != nil {
		ep.release(int64(len(*q.batch)))
		ep.net.freeBatch(q.batch)
	} else {
		ep.release(1)
	}
	return true
}

// injectRecheck is how often a blocked Inject re-checks the network's
// shutdown-discard flag: a reader parked on a full ring whose consumer
// just exited would otherwise wait forever for a release.
const injectRecheck = 2 * time.Millisecond

// Inject publishes a transport-delivered packet into this endpoint's
// inbox, blocking until inbox capacity frees.  It is the wire analog of
// a peer's stall — same token reservation, same wake baton —
// except the caller is a transport reader goroutine with no inbox of its
// own to drain, so backpressure propagates to the peer process through
// the blocked read instead of through reentrant polling.  The packet
// then takes the ordinary receive path (fault filter included) at the
// consumer's next poll.  Safe from any goroutine: Inject only touches
// the MPSC producer side.  It reports false, dropping the packet, when
// stop closes or the network is discarding (machine shutdown).
//
//halvet:allowblock transport readers park on the same full-inbox edge a stalled sender does; the consumer's dequeue hands the wake baton over, and the shutdown-discard re-check bounds the wait once consumers exit
//halvet:allowwallclock the shutdown-discard re-check timer runs on host time; a blocked reader's packet has no VT progress to wait on
func (ep *Endpoint) Inject(p Packet, stop <-chan struct{}) bool {
	nw := ep.net
	if nw.injectDiscard.Load() {
		return false
	}
	if ep.reserve(1) {
		ep.enqueue(qItem{pkt: p})
		return true
	}
	ep.waiters.Add(1)
	defer func() {
		ep.waiters.Add(-1)
		if ep.waiters.Load() > 0 {
			// Pass a possibly-consumed baton on to the next waiter.
			select {
			case ep.spaceWake <- struct{}{}:
			default:
			}
		}
	}()
	// Re-test before the first wait: release only signals spaceWake when
	// a waiter is registered (see stall's lost-wakeup argument).
	ok := ep.reserve(1)
	for !ok {
		t := time.NewTimer(injectRecheck)
		select {
		case <-ep.spaceWake:
		case <-stop:
			t.Stop()
			return false
		case <-t.C:
		}
		t.Stop()
		if nw.injectDiscard.Load() {
			return false
		}
		ok = ep.reserve(1)
	}
	ep.enqueue(qItem{pkt: p})
	return true
}

// Stats counts endpoint traffic.  All fields are owned by the endpoint's
// goroutine; read them only after the node has stopped or from the node
// itself.
type Stats struct {
	Sent        uint64 // packets injected
	Received    uint64 // packets handled
	SendStalls  uint64 // sends that found the destination link full
	TryStalls   uint64 // TrySend refusals (destination link full)
	Polls       uint64 // PollAll calls that handled at least one packet
	Batches     uint64 // coalesced multi-packet injections
	BatchedPkts uint64 // packets that traveled inside those batches
	BatchSplits uint64 // batches injected per-packet (oversize or starved reservation)
	BulkSends   uint64 // bulk transfers initiated
	BulkRecvs   uint64 // bulk transfers completed (receive side)
	BulkWords   uint64 // float64 words received in bulk segments
	BulkQueued  uint64 // bulk requests that waited for a grant
	WaitYields  uint64 // waits a yield, not a park, ended with a packet (wait.go)
	WaitParks   uint64 // waits that really parked the goroutine

	// Fault injection (zero unless Config.Faults is set).
	Cuts   uint64 // links the fault plan cut at this endpoint
	Held   uint64 // packets held behind a cut link until the next poll
	Pauses uint64 // pause windows entered

	// Distribution metrics (internal/hist; owned by the endpoint's
	// goroutine like every other field).
	FlushOcc  hist.H // packets per staged-buffer flush (batches and singletons)
	GrantWait hist.H // bulk request → grant wall latency, µs (three-phase transfers only)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Sent += other.Sent
	s.Received += other.Received
	s.SendStalls += other.SendStalls
	s.TryStalls += other.TryStalls
	s.Polls += other.Polls
	s.Batches += other.Batches
	s.BatchedPkts += other.BatchedPkts
	s.BatchSplits += other.BatchSplits
	s.BulkSends += other.BulkSends
	s.BulkRecvs += other.BulkRecvs
	s.BulkWords += other.BulkWords
	s.BulkQueued += other.BulkQueued
	s.WaitYields += other.WaitYields
	s.WaitParks += other.WaitParks
	s.Cuts += other.Cuts
	s.Held += other.Held
	s.Pauses += other.Pauses
	s.FlushOcc.Merge(&other.FlushOcc)
	s.GrantWait.Merge(&other.GrantWait)
}
