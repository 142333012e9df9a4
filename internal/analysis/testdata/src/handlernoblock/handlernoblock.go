// Package fixture exercises halvet-handlernoblock: blocking operations
// reachable from expressions registered as amnet handlers.
package fixture

import (
	"sync"
	"time"

	"hal/internal/amnet"
)

const (
	hEcho amnet.HandlerID = 1 + iota
	hSleepy
	hChain
	hPoll
	hUrgent
	hDone
	hRLocker
	hDrain
	hDrainPoll
	hWait
)

// install mirrors the kernel's reg wrapper: any argument in a parameter
// position typed amnet.Handler roots the reachability scan.
func install(id amnet.HandlerID, h amnet.Handler) { _ = id; _ = h }

var (
	mu     sync.Mutex
	wake   = make(chan struct{}, 1)
	events []uint64
)

// True positive: blocking reached through a named-function call chain.
func registerChain() {
	install(hChain, onChain) // want `amnet handler must never block: calls logBlocking .* sync\.Mutex\.Lock may block`
}

func onChain(ep *amnet.Endpoint, p amnet.Packet) { logBlocking(p.U0) }

func logBlocking(v uint64) {
	mu.Lock()
	events = append(events, v)
	mu.Unlock()
}

// Handler-table composite literals root the scan too.
var table = map[amnet.HandlerID]amnet.Handler{
	// True positive: sleeping parks the PE.
	hSleepy: func(ep *amnet.Endpoint, p amnet.Packet) { // want `time\.Sleep parks the PE goroutine`
		time.Sleep(time.Millisecond)
	},
	// Negative: a select with a default clause is a non-blocking poll.
	hPoll: func(ep *amnet.Endpoint, p amnet.Packet) {
		select {
		case wake <- struct{}{}:
		default:
		}
	},
}

// Negative: handlers may send — Send stalls only under the sanctioned
// poll-while-stalled discipline, and TrySend is refused instead.
func registerUrgent() {
	install(hUrgent, func(ep *amnet.Endpoint, p amnet.Packet) {
		ep.Send(amnet.Packet{Handler: hEcho, Dst: p.Src, U0: p.U0})
		ep.TrySend(amnet.Packet{Handler: hEcho, Dst: p.Src})
	})
}

// Negative: a sanctioned block, annotated with its progress argument.
func registerDone(done chan struct{}) {
	install(hDone, func(ep *amnet.Endpoint, p amnet.Packet) {
		//halvet:allowblock fixture: done is buffered and drained by the caller
		done <- struct{}{}
	})
}

var rwmu sync.RWMutex

// True positive: RLocker's Locker parks like RLock, but the Lock call
// goes through interface dispatch the static graph cannot see — the
// acquisition site is what gets flagged.
func registerRLocker() {
	install(hRLocker, func(ep *amnet.Endpoint, p amnet.Packet) { // want `sync\.RWMutex\.RLocker yields a Locker whose Lock parks like RLock`
		l := rwmu.RLocker()
		l.Lock()
		defer l.Unlock()
		events = append(events, p.U0)
	})
}

// True positive: the Stop-then-drain idiom.  Stop does not send on C, so
// a timer stopped before firing leaves the bare drain parked forever.
func registerDrain(t *time.Timer) {
	install(hDrain, func(ep *amnet.Endpoint, p amnet.Packet) { // want `\(\*time\.Timer\)\.C drain receive parks forever if the timer was stopped before firing`
		if !t.Stop() {
			<-t.C
		}
	})
}

// Negative: draining through a select+default poll cannot park.
func registerDrainPoll(t *time.Timer) {
	install(hDrainPoll, func(ep *amnet.Endpoint, p amnet.Packet) {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	})
}

// True positive: the runtime's wait parks by contract, whatever its
// sanctioned internals say.
func registerWait(stop chan struct{}) {
	install(hWait, func(ep *amnet.Endpoint, p amnet.Packet) { // want `Endpoint\.Wait parks the PE by contract`
		ep.Wait(stop, 0)
	})
}
