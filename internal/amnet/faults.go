package amnet

// Deterministic fault injection for the simulated interconnect.
//
// The CM-5 data network that CMAM runs on is reliable and FIFO, and the
// rest of this package reproduces that faithfully.  A production
// deployment of the same kernel does not get that luxury, so a Network
// can optionally be built with a FaultPlan that perturbs delivery:
// packets may be dropped, duplicated, or delayed past other traffic, and
// individual nodes may stop polling entirely for short pause windows
// (modelling GC pauses, scheduler preemption, or a slow NIC).
//
// Faults are injected at the RECEIVER, between the inbox and the handler
// dispatch.  That keeps every piece of fault state confined to the
// endpoint's owning goroutine — no locks, no atomics — and makes the
// injection deterministic: each (src, dst) link draws from its own PRNG
// seeded from FaultPlan.Seed, so a given plan produces the identical
// fault sequence on every run regardless of goroutine scheduling.
// (Wall-clock-dependent behaviour — pause windows and retry timing in
// the layers above — still varies run to run; the drop/dup/delay
// decision for the Nth packet on a link does not.)
//
// Delayed packets park in a per-endpoint queue and are re-injected at
// the head of the receiver's next PollAll, after any packets that
// overtook them — an out-of-order delivery, not just added latency.
//
// A network with a Remote transport draws no drop, dup or delay here: its
// losses are cuts of the socket link (amnet/sock), which the link's replay
// recovers.  Pause windows stay at the endpoints; they lose nothing.
//
// Handlers registered as lossless (see Network.MarkLossless, and the
// bulk data segments below) bypass injection entirely: the bulk
// three-phase protocol recovers lost requests and grants by re-request,
// but the data segments themselves model a DMA channel with its own
// link-level reliability, and the layers above treat them as such.
import (
	"fmt"
	"math/rand"
	"time"
)

// FaultKind classifies one injected fault, for observers and stats.
type FaultKind uint8

const (
	// FaultDrop: the packet was discarded before dispatch.
	FaultDrop FaultKind = iota + 1
	// FaultDup: the packet was dispatched twice back to back.
	FaultDup
	// FaultDelay: the packet was parked and re-injected on a later poll.
	FaultDelay
	// FaultPause: the endpoint entered a pause window (Packet is zero).
	FaultPause
)

// String returns the kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultDelay:
		return "delay"
	case FaultPause:
		return "pause"
	default:
		return "invalid"
	}
}

// FaultPlan describes the faults to inject.  A nil plan (the default)
// means a perfect network and costs one pointer test per packet.
// Probabilities are per packet and must satisfy
// Drop + Dup + Delay <= 1; the remainder is delivered normally.  On a
// socket link the three sum to one per-frame chance that the receiver
// cuts the connection, which the link's replay then recovers.
type FaultPlan struct {
	// Drop is the probability a packet is discarded.
	Drop float64
	// Dup is the probability a packet is delivered twice.
	Dup float64
	// Delay is the probability a packet is parked until the receiver's
	// next poll, letting later traffic on the link overtake it.
	Delay float64

	// PauseEvery, when positive, schedules recurring pause windows on
	// the nodes in PauseNodes (all nodes when PauseNodes is empty): the
	// node stops polling for PauseDur, with +-50% jitter on both the
	// interval and the window so pauses drift across nodes.
	PauseEvery time.Duration
	// PauseDur is the length of each pause window.  Defaults to
	// PauseEvery/4 when unset.
	PauseDur time.Duration
	// PauseNodes lists the nodes subject to pause windows; empty means
	// every node (when PauseEvery > 0).
	PauseNodes []NodeID

	// Seed derives every per-link PRNG.  Zero selects a fixed default
	// so a zero-valued plan is still deterministic.
	Seed int64
}

// bulkRetry is how long a bulk sender waits for a grant before
// re-requesting the transfer (recovering a lost HBulkReq or HBulkAck).
const bulkRetry = 500 * time.Microsecond

func (p *FaultPlan) applyDefaults() error {
	if p.Drop < 0 || p.Dup < 0 || p.Delay < 0 {
		return fmt.Errorf("amnet: negative fault probability (drop=%g dup=%g delay=%g)", p.Drop, p.Dup, p.Delay)
	}
	if sum := p.Drop + p.Dup + p.Delay; sum > 1 {
		return fmt.Errorf("amnet: fault probabilities sum to %g > 1", sum)
	}
	if p.PauseEvery < 0 || p.PauseDur < 0 {
		return fmt.Errorf("amnet: negative pause duration")
	}
	if p.Seed == 0 {
		p.Seed = 0x5eed0fa0175
	}
	if p.PauseEvery > 0 && p.PauseDur == 0 {
		p.PauseDur = p.PauseEvery / 4
	}
	return nil
}

// FaultObserver is called once per injected fault, on the goroutine of
// the endpoint the fault happened at (dst).  For FaultPause the packet
// is the zero Packet.  Observers must not block.
type FaultObserver func(dst NodeID, kind FaultKind, p Packet)

// SetFaultObserver installs ob as the network's fault observer.  Like
// Register it must be called before traffic starts.
func (nw *Network) SetFaultObserver(ob FaultObserver) {
	if nw.sealed.Load() {
		panic("amnet: SetFaultObserver after network traffic started")
	}
	nw.observer = ob
}

// MarkLossless exempts handler id from fault injection.  Must be called
// before traffic starts.  The bulk data handlers are lossless by
// construction; the runtime kernel additionally exempts program loading.
func (nw *Network) MarkLossless(id HandlerID) {
	if nw.sealed.Load() {
		panic("amnet: MarkLossless after network traffic started")
	}
	nw.lossless[id] = true
}

// linkSeed derives the PRNG seed for the src->dst link (splitmix64).
func linkSeed(seed int64, src, dst NodeID) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(src)*1000003+uint64(dst)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// epFaults is one endpoint's receiver-side fault state.  Every field is
// owned by the endpoint's goroutine.
type epFaults struct {
	plan *FaultPlan
	// rngs[src] drives the drop/dup/delay decision for packets arriving
	// from src, one uniform draw per packet.
	rngs []*rand.Rand
	// delayq holds delayed packets until the next PollAll.
	delayq []Packet

	// Pause scheduling (only when this node is in the plan's pause set).
	pauses     bool
	prng       *rand.Rand
	nextPause  time.Time
	pauseUntil time.Time
}

func newEPFaults(plan *FaultPlan, nodes int, id NodeID) *epFaults {
	f := &epFaults{plan: plan}
	f.rngs = make([]*rand.Rand, nodes)
	for src := range f.rngs {
		f.rngs[src] = rand.New(rand.NewSource(linkSeed(plan.Seed, NodeID(src), id)))
	}
	if plan.PauseEvery > 0 {
		f.pauses = len(plan.PauseNodes) == 0
		for _, n := range plan.PauseNodes {
			if n == id {
				f.pauses = true
			}
		}
		if f.pauses {
			f.prng = rand.New(rand.NewSource(linkSeed(plan.Seed, NoNode, id)))
		}
	}
	return f
}

// jitter returns a duration uniform in [d/2, 3d/2).
func (f *epFaults) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(f.prng.Int63n(int64(d)))
}

// pausedNow reports whether the endpoint is inside a pause window,
// opening a new window when one is due.
//
//halvet:allowwallclock fault pause windows are host-time by spec: they model external stalls (GC, preemption) that virtual time cannot see
func (f *epFaults) pausedNow(ep *Endpoint) bool {
	if !f.pauses {
		return false
	}
	now := time.Now()
	if now.Before(f.pauseUntil) {
		return true
	}
	if f.nextPause.IsZero() {
		// First call: schedule the initial pause, don't take one.
		f.nextPause = now.Add(f.jitter(f.plan.PauseEvery))
		return false
	}
	if now.Before(f.nextPause) {
		return false
	}
	f.pauseUntil = now.Add(f.jitter(f.plan.PauseDur))
	f.nextPause = f.pauseUntil.Add(f.jitter(f.plan.PauseEvery))
	ep.stats.Pauses++
	if ob := ep.net.observer; ob != nil {
		ob(ep.id, FaultPause, Packet{})
	}
	return true
}

// pauseRemaining returns how much of the current pause window is left
// (zero when not paused), opening a new window when one is due.
func (f *epFaults) pauseRemaining(ep *Endpoint) time.Duration {
	if !f.pausedNow(ep) {
		return 0
	}
	//halvet:allowwallclock pause windows are host-time by spec (see pausedNow)
	return time.Until(f.pauseUntil)
}

// receive runs the fault filter on p and dispatches it zero, one, or two
// times accordingly.  Every inbound packet funnels through here.
func (ep *Endpoint) receive(p Packet) {
	f := ep.faults
	if f == nil || ep.net.remote != nil || ep.net.lossless[p.Handler] {
		ep.dispatch(p)
		return
	}
	plan := f.plan
	r := f.rngs[p.Src].Float64()
	switch {
	case r < plan.Drop:
		ep.stats.Dropped++
		ep.observe(FaultDrop, p)
	case r < plan.Drop+plan.Dup:
		ep.stats.Duplicated++
		ep.observe(FaultDup, p)
		ep.dispatch(p)
		ep.dispatch(p)
	case r < plan.Drop+plan.Dup+plan.Delay:
		ep.stats.Delayed++
		ep.observe(FaultDelay, p)
		f.delayq = append(f.delayq, p)
	default:
		ep.dispatch(p)
	}
}

func (ep *Endpoint) observe(k FaultKind, p Packet) {
	if ob := ep.net.observer; ob != nil {
		ob(ep.id, k, p)
	}
}

// FaultBacklog reports the number of delayed packets awaiting
// re-injection.  Zero when fault injection is off.  Used by the node
// idle loop so parked nodes still flush their delay queues.
func (ep *Endpoint) FaultBacklog() int {
	if ep.faults == nil {
		return 0
	}
	return len(ep.faults.delayq)
}

// FaultReset discards delayed packets and pause schedules, for reuse of
// the network across machine runs.  Must be called from the owning
// goroutine with no traffic in flight.
func (ep *Endpoint) FaultReset() {
	f := ep.faults
	if f == nil {
		return
	}
	f.delayq = nil
	f.nextPause = time.Time{}
	f.pauseUntil = time.Time{}
}
