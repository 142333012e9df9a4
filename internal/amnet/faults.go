package amnet

// Deterministic fault injection for the simulated interconnect.
//
// The CM-5 data network that CMAM runs on is reliable and FIFO, and the
// rest of this package reproduces that faithfully.  A Network can
// optionally be built with a FaultPlan that perturbs delivery the way a
// real link does when it fails and recovers: a link from one node to
// another is CUT, holds everything that arrives on it, and then replays
// it in order, while other links overtake it.  Individual nodes may also
// stop polling for short pause windows (modelling GC pauses, scheduler
// preemption, or a slow NIC).
//
// Faults are injected at the RECEIVER, between the inbox and the handler
// dispatch.  That keeps every piece of fault state confined to the
// endpoint's owning goroutine — no locks, no atomics — and makes the
// injection deterministic: each (src, dst) link draws from its own PRNG
// seeded from FaultPlan.Seed, one draw per packet that arrives on the
// open link, so a given plan and the same polls cut at the same packets.
// (Where a node polls, and pause windows, are host-time and vary run to
// run.)
//
// A cut link's packets wait in a per-source hold queue in arrival order.
// The next PollAll (or Wait) dispatches them first and reopens the link.
// So a cut loses nothing, duplicates nothing and keeps per-link FIFO,
// exactly as a socket link's redial and replay does (amnet/sock), and
// the layers above need no recovery of their own; what it perturbs is
// the order ACROSS links, and the time a link's packets take.
//
// A network with a Remote transport draws no cuts here: its cuts are of
// the socket link itself, which the link's replay recovers.  Pause
// windows stay at the endpoints; they lose nothing.
import (
	"fmt"
	"math/rand"
	"time"
)

// FaultKind classifies one injected fault, for observers and stats.
type FaultKind uint8

const (
	// FaultCut: the packet cut its link; it and the link's later packets
	// are held until the receiver's next poll.
	FaultCut FaultKind = iota + 1
	// FaultPause: the endpoint entered a pause window (Packet is zero).
	FaultPause
)

// String returns the kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultCut:
		return "cut"
	case FaultPause:
		return "pause"
	default:
		return "invalid"
	}
}

// FaultPlan describes the faults to inject.  A nil plan (the default)
// means a perfect network and costs one pointer test per packet.
type FaultPlan struct {
	// Cut is the chance, per packet arriving on an open link, that the
	// packet cuts its link: in memory the link holds its packets until
	// the receiver's next poll, on a socket the connection drops and the
	// link replays.  Either way nothing is lost or reordered within the
	// link.
	Cut float64

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

func (p *FaultPlan) applyDefaults() error {
	if p.Cut < 0 || p.Cut > 1 {
		return fmt.Errorf("amnet: cut probability %g outside [0, 1]", p.Cut)
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
	// rngs[src] draws the cut decision for packets arriving on the open
	// link from src, one uniform draw per packet.
	rngs []*rand.Rand
	// held[src] is the cut link from src's packets in arrival order,
	// empty while the link is open; cut lists the sources whose links
	// are cut, in the order they were cut.
	held [][]Packet
	cut  []NodeID

	// Pause scheduling (only when this node is in the plan's pause set).
	pauses     bool
	prng       *rand.Rand
	nextPause  time.Time
	pauseUntil time.Time
}

func newEPFaults(plan *FaultPlan, nodes int, id NodeID) *epFaults {
	f := &epFaults{plan: plan, held: make([][]Packet, nodes)}
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

// receive runs the fault filter on p: it dispatches p, or holds it
// behind its cut link.  Every inbound packet funnels through here.
func (ep *Endpoint) receive(p Packet) {
	f := ep.faults
	if f == nil || ep.net.remote != nil {
		ep.dispatch(p)
		return
	}
	if q := f.held[p.Src]; len(q) > 0 {
		f.held[p.Src] = append(q, p)
		ep.stats.Held++
		return
	}
	if f.rngs[p.Src].Float64() >= f.plan.Cut {
		ep.dispatch(p)
		return
	}
	ep.stats.Cuts++
	ep.stats.Held++
	f.held[p.Src] = append(f.held[p.Src], p)
	f.cut = append(f.cut, p.Src)
	if ob := ep.net.observer; ob != nil {
		ob(ep.id, FaultCut, p)
	}
}

// drainHeld dispatches the packets of every link cut before this call,
// in order, and reopens those links, returning how many it dispatched.  A
// link stays cut until its queue is empty, so a packet from it that a
// handler's stalled send consumes meanwhile queues behind the rest.
func (ep *Endpoint) drainHeld() int {
	f := ep.faults
	if f == nil || len(f.cut) == 0 {
		return 0
	}
	n, k := 0, len(f.cut)
	for _, src := range f.cut[:k] {
		for i := 0; i < len(f.held[src]); i++ {
			ep.dispatch(f.held[src][i])
			n++
		}
		clear(f.held[src])
		f.held[src] = f.held[src][:0]
	}
	f.cut = append(f.cut[:0], f.cut[k:]...)
	return n
}

// FaultReset discards held packets and pause schedules, for reuse of the
// network across machine runs.  Must be called from the owning goroutine
// with no traffic in flight.
func (ep *Endpoint) FaultReset() {
	f := ep.faults
	if f == nil {
		return
	}
	for _, src := range f.cut {
		clear(f.held[src])
		f.held[src] = f.held[src][:0]
	}
	f.cut = f.cut[:0]
	f.nextPause = time.Time{}
	f.pauseUntil = time.Time{}
}
