// How an endpoint waits.
//
// A CM-5 processing element never sleeps: with nothing to run it polls
// CMAM, so an idle PE picks a remote send up for the price of a poll.  A
// goroutine that parks instead pays a channel send in the producer and a
// select and a reschedule in the consumer, which on an unloaded hop is
// most of the hop.  Every wait in the runtime — the kernel's idle, its
// pace gate, RecvBlock — is the one function below, in three parts:
//
//  1. A deadline nearer than spinBelow is waited out by yielding the
//     processor and re-checking the inbox.  The Go runtime rounds a
//     microsecond timer up to a millisecond-grained sleep the moment no
//     goroutine is runnable, so such a timer is not armed — until the
//     node has yielded a whole millisecond away since it last received a
//     packet (spins), or on a network with a wire transport: there the
//     wait may be for a socket, and a yield loop keeps the last P away
//     from the netpoller.
//  2. Directed yield.  While exactly one other resident endpoint is awake
//     (Network.awake == 2), yielding is a hand-off to the one goroutine
//     that can produce our next packet, and that producer then finds
//     rsleep clear and skips the wake: a ping-pong costs one Gosched a
//     hop.  At most yieldBound tries.  With more endpoints awake a yield
//     is a turn in a round robin, not a hand-off, and with none it hands
//     the processor to nobody, so both go straight to the park.
//  3. The park: declare rsleep, re-check the ring, check stop, then block
//     on recvWake alone (ring.go has the ordering argument).  A deadline
//     of a millisecond or more arms the one timer left.
//
// Network.awake is exact because a wake is claimed, not just signalled.  A
// parking owner takes itself out of the count and sets rsleep (declare);
// whoever then swaps rsleep back to 0 — the first producer or Wake to try,
// or the owner itself when a timer, stop or its own re-check ends the
// sleep — puts it back in.  A waker that wins the swap sends the one token
// of that sleep; an owner that loses it to a waker takes that token before
// it goes on.  So no token outlives the sleep it was sent for, and on one
// P the waker's next wait already sees the endpoint it woke as awake,
// although that endpoint has not run yet.
package amnet

import (
	"runtime"
	"time"
)

const (
	// yieldBound is how many times a wait yields to the one other awake
	// endpoint before it parks.
	yieldBound = 4
	// spinBelow is the deadline under which a wait yields instead of
	// arming a timer.
	spinBelow = time.Millisecond
)

// Wait handles one inbox item, waiting for it if need be, and reports
// whether it did; false means stop closed or the timeout (if positive)
// ran out.  Staged SendBatched packets are flushed first, packets the
// fault plan delayed on an earlier poll count as a delivery, and during a
// pause window the wait sleeps without consuming the inbox.
//
// stop is polled, never selected on: whoever closes it must then Wake the
// endpoint.  RecvBlock is the form for callers that cannot.
func (ep *Endpoint) Wait(stop <-chan struct{}, timeout time.Duration) bool {
	return ep.wait(stop, nil, timeout)
}

// RecvBlock is Wait for a caller whose stop channel is closed by someone
// who will not call Wake: its park selects on stop as well.
func (ep *Endpoint) RecvBlock(stop <-chan struct{}, timeout time.Duration) bool {
	return ep.wait(stop, stop, timeout)
}

// OnPark registers fn to run on the owner's goroutine each time a Wait is
// about to park for real — not before a yield.  The kernel publishes its
// statistics there, so a parked node's snapshot is exact.
func (ep *Endpoint) OnPark(fn func()) { ep.onPark = fn }

// Wake wakes the endpoint's owner if it has declared a sleep, from any
// goroutine.  An owner that has not declared yet needs no token: it
// re-checks its ring and its stop channel after declaring, and sees
// whatever the caller did before calling Wake.
func (ep *Endpoint) Wake() {
	if !ep.rsleep.CompareAndSwap(1, 0) {
		return
	}
	ep.net.awake.Add(1)
	select {
	case ep.recvWake <- struct{}{}:
	default:
		// One claim per sleep and every claimed sleep takes its token, so
		// the one-token channel is empty here.
		panic("amnet: wake token left over from an earlier sleep")
	}
}

// declare opens a sleep: the owner leaves the awake count and invites a
// wake.  Every declare is closed by exactly one swap of rsleep back to 0:
// a waker's (Wake) or the owner's own (undeclare).
func (ep *Endpoint) declare() {
	ep.net.awake.Add(-1)
	ep.rsleep.Store(1)
}

// undeclare closes a sleep that no token ended.  If a waker claimed it
// first, its token is on the way and it has counted the owner awake: take
// the token, so that it cannot be mistaken for the next sleep's.
func (ep *Endpoint) undeclare() {
	if ep.rsleep.CompareAndSwap(1, 0) {
		ep.net.awake.Add(1)
		return
	}
	<-ep.recvWake
}

// spins reports whether a wait of d is yielded through instead of timed,
// and charges it to the endpoint's yield budget if so.  The budget is
// spinBelow again, renewed by every packet received: a node that has
// yielded a millisecond away without receiving anything is, taken
// together, waiting a millisecond, and a node that only ever yields keeps
// its P looking busy — to the Go collector, whose idle mark workers run on
// idle Ps alone, and to the host, when there are more Ps than CPUs.
func (ep *Endpoint) spins(d time.Duration) bool {
	if d >= spinBelow || ep.net.remote != nil {
		return false
	}
	if ep.stats.Received != ep.yieldedAt {
		ep.yieldedAt, ep.yielded = ep.stats.Received, 0
	}
	if ep.yielded >= spinBelow {
		return false
	}
	ep.yielded += d
	return true
}

func (ep *Endpoint) popOne() bool {
	q, ok := ep.ring.pop()
	if ok {
		ep.consume(q)
	}
	return ok
}

//halvet:allowwallclock a waiting PE's VT is frozen: its deadlines (steal back-off, re-pump, pause windows) are host-time by nature
func (ep *Endpoint) wait(stop, sel <-chan struct{}, timeout time.Duration) bool {
	ep.flushOut()
	nw := ep.net
	if !ep.waiting {
		ep.waiting = true
		nw.awake.Add(1)
	}
	if f := ep.faults; f != nil {
		if rem := f.pauseRemaining(ep); rem > 0 {
			if timeout > 0 && timeout < rem {
				rem = timeout
			}
			// Paused: sleep the window (or the caller's timeout) out
			// without touching the inbox.
			if ep.spins(rem) {
				for deadline := time.Now().Add(rem); time.Now().Before(deadline); {
					runtime.Gosched()
				}
				return false
			}
			ep.parking()
			t := time.NewTimer(rem)
			defer t.Stop()
			// A packet or a Wake cuts the sleep short; the caller comes
			// back for the rest of the window.
			ep.declare()
			ep.block(stop, sel, t.C)
			return false
		}
		if ep.drainHeld() > 0 {
			return true
		}
	}
	if ep.popOne() {
		return true
	}
	if timeout > 0 && ep.spins(timeout) {
		// Out of the awake count meanwhile: a node yielding a deadline
		// out produces nothing until it returns, so it is not the peer
		// another node's directed yield is a hand-off to.  Counted, a
		// node out of work and a node serving a back-off yield at each
		// other.
		nw.awake.Add(-1)
		q, ok := ep.ring.pop()
		for deadline := time.Now().Add(timeout); !ok && time.Now().Before(deadline); {
			runtime.Gosched()
			q, ok = ep.ring.pop()
		}
		nw.awake.Add(1)
		if ok {
			ep.consume(q)
			ep.stats.WaitYields++
		}
		return ok
	}
	for i := 0; i < yieldBound && nw.awake.Load() == 2; i++ {
		runtime.Gosched()
		if ep.popOne() {
			ep.stats.WaitYields++
			return true
		}
	}

	ep.parking()
	var timerC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timerC = t.C
	}
	for {
		// Declare the sleep, re-check, then block: a producer publishing
		// after the re-check sees rsleep and wakes us, and a stop closed
		// after the check below is followed by a Wake.
		ep.declare()
		if q, ok := ep.ring.pop(); ok {
			ep.undeclare()
			ep.consume(q)
			return true
		}
		if ep.block(stop, sel, timerC) != byToken {
			return false
		}
		// A token: a publish or a Wake.  Loop and re-pop; the timer keeps
		// running, so several wake-ups share one budget.
	}
}

// block finishes a declared sleep: one look at stop, then the park.  When
// stop ended it — seen closed here, or selected in the park — the
// endpoint has left.
func (ep *Endpoint) block(stop, sel <-chan struct{}, timerC <-chan time.Time) wokenBy {
	select {
	case <-stop:
		ep.undeclare()
		ep.leave()
		return byAlt
	default:
	}
	by := ep.park(sel, timerC)
	if by == byAlt {
		ep.leave()
	}
	return by
}

// parking counts a wait that is about to park, then runs the owner's hook,
// so what the hook publishes includes this park.
func (ep *Endpoint) parking() {
	ep.stats.WaitParks++
	if ep.onPark != nil {
		ep.onPark()
	}
}

// leave takes an endpoint whose wait ended on stop out of the awake
// count: its owner is expected to stop driving it.  Its next wait, if
// there is one, counts it back in.
func (ep *Endpoint) leave() {
	ep.waiting = false
	ep.net.awake.Add(-1)
}

// wokenBy says what ended a park.
type wokenBy uint8

const (
	byToken wokenBy = iota
	byAlt
	byTimer
)

// park blocks an owner that has declared until its wake token arrives, alt
// (stop, or a full destination's spaceWake) fires or closes, or timerC
// fires; nil channels never do.  The sleep is closed on return.
//
//halvet:allowblock the park itself: reached from wait (never in a handler — handlernoblock flags Wait and RecvBlock by contract) and from stall's poll-while-stalled loop, where the CMAM cycle argument bounds it: the caller loops draining its own inbox, and either wake source ends this one park
func (ep *Endpoint) park(alt <-chan struct{}, timerC <-chan time.Time) wokenBy {
	if alt == nil && timerC == nil {
		<-ep.recvWake
		return byToken
	}
	by := byAlt
	select {
	case <-ep.recvWake:
		return byToken
	case <-alt:
	case <-timerC:
		by = byTimer
	}
	ep.undeclare()
	return by
}
