package amnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchReservationStarvation pins the bounded-retry fallback for k>1
// batch reservations.  A flush of a full 4-packet batch needs 4 contiguous
// capacity tokens — the inbox must be empty at the instant of the CAS —
// while a competing sender refills the destination with single-packet
// TrySend traffic the moment each token frees, so the whole-batch claim
// never succeeds.  stall must give up after its round budget and
// split the batch into fair k=1 sends; before the fix this flush could
// stall for as long as the competing stream lasted.
func TestBatchReservationStarvation(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 3, InboxCap: 4, BatchMax: 4}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})

	var stopSpin atomic.Bool
	stopDrain := make(chan struct{})
	spinDone := make(chan struct{})
	drainDone := make(chan struct{})

	// Node 2 drains one item at a time (RecvBlock handles exactly one),
	// slower than the spinner refills: the inbox dips to 3 of 4 for an
	// instant after each consume and is immediately topped up, so the
	// batcher's inq==0 window never opens while the spinner lives.
	go func() {
		defer close(drainDone)
		ep := nw.Endpoint(2)
		for ep.RecvBlock(stopDrain, 0) {
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Node 1 steals every freed token: with the inbox held at capacity the
	// 4-token claim's inq==0 window never opens.  The periodic yield keeps
	// the scheduler fair without ever pausing long enough (~µs) for the
	// 20µs-per-token drain to empty all four slots.
	go func() {
		defer close(spinDone)
		ep := nw.Endpoint(1)
		for i := 0; !stopSpin.Load(); i++ {
			ep.TrySend(Packet{Handler: hCount, Dst: 2})
			if i&0xff == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Let the spinner saturate the destination before the batch shows up.
	deadline := time.Now().Add(5 * time.Second)
	for nw.Endpoint(2).Pending() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("spinner never filled the destination inbox")
		}
		time.Sleep(time.Millisecond)
	}

	// Node 0 stages a full batch; reaching BatchMax triggers injectBatch
	// with k=4 against the saturated link.
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		ep := nw.Endpoint(0)
		for i := 0; i < 4; i++ {
			ep.SendBatched(Packet{Handler: hCount, Dst: 2, U0: uint64(i)})
		}
		ep.flushOut()
	}()

	select {
	case <-flushed:
	case <-time.After(30 * time.Second):
		t.Fatal("batch flush starved against single-packet traffic")
	}
	stopSpin.Store(true)
	<-spinDone
	close(stopDrain)
	<-drainDone

	st := nw.Endpoint(0).Stats()
	if st.Sent != 4 {
		t.Fatalf("node 0 Sent = %d, want 4 (batched or split)", st.Sent)
	}
	t.Logf("batch splits: %d, send stalls: %d", st.BatchSplits, st.SendStalls)
}
