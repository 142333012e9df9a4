// Package fixture exercises the driver's staleness sweep: a suppression
// directive that fired during the run survives; one that no longer
// suppresses anything is reported by the synthetic "staleallow" analyzer.
//
//halvet:vtgoverned
package fixture

import (
	"sync"
	"time"

	"hal/internal/amnet"
)

func install(id amnet.HandlerID, h amnet.Handler) { _ = id; _ = h }

var mu sync.Mutex

// Live: the body really blocks, so the function-level allowblock is
// counterfactually used.
//
//halvet:allowblock fixture: sanctioned blocking for the test
func onSanctioned(ep *amnet.Endpoint, p amnet.Packet) {
	mu.Lock()
	mu.Unlock()
}

// Stale: nothing in this body blocks anymore.
//
//halvet:allowblock fixture: the blocking call was removed long ago
func onClean(ep *amnet.Endpoint, p amnet.Packet) {
	_ = p
}

func registerAll() {
	install(1, onSanctioned)
	install(2, onClean)
}

// Live: the wall-clock call on the covered line keeps this directive.
func paced() {
	//halvet:allowwallclock fixture: host pacing for the test
	time.Sleep(time.Microsecond)
}

// Stale: the line this directive covers no longer reads the clock.
func quiet() int {
	//halvet:allowwallclock fixture: the clock read was removed
	return 0
}
