package amnet

import (
	"testing"

	"hal/internal/hist"
)

// Guards for the network-layer latency/occupancy histograms: every staged
// packet must land in a FlushOcc sample on the sending endpoint, and every
// three-phase bulk transfer must record its request→grant wait.

func bucketSum(b [hist.Buckets]uint64) uint64 {
	var n uint64
	for _, c := range b {
		n += c
	}
	return n
}

func TestFlushOccupancyObserved(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2, BatchMax: 4}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	const total = 23 // not a multiple of BatchMax: both singleton and batch paths fire
	for i := 0; i < total; i++ {
		src.SendBatched(Packet{Handler: hCount, Dst: 1})
		if i == 10 {
			src.flushOut()
		}
		// Keep the destination drained: a backlogged inbox engages the
		// direct-path bypass, which injects without ever staging.
		dst.PollAll()
	}
	src.flushOut()
	for dst.Pending() > 0 {
		dst.PollAll()
	}
	h := src.Stats().FlushOcc
	if h.N == 0 {
		t.Fatal("no flush occupancy samples recorded")
	}
	// Occupancies sum to the packets staged: nothing flushed unobserved.
	if h.Sum != float64(total) {
		t.Errorf("occupancy sum %.0f, want %d (every staged packet accounted)", h.Sum, total)
	}
	if got := bucketSum(h.B); got != h.N {
		t.Errorf("bucket counts sum to %d, want N=%d", got, h.N)
	}
	if h.Max > float64(total) {
		t.Errorf("max occupancy %.0f exceeds packets staged", h.Max)
	}
}

func TestBulkGrantWaitObserved(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 3, FlowOneActive, &got)
	// Two announcements race for node 0's single active slot, so at least
	// one grant is delayed; both transfers must record a wait sample.
	nw.Endpoint(1).BulkSend(0, ramp(10*SegWords), Packet{Handler: hBulkDone, U0: 1})
	nw.Endpoint(2).BulkSend(0, ramp(10*SegWords), Packet{Handler: hBulkDone, U0: 2})
	pumpUntil(t, nw, func() bool { return len(got) == 2 })
	for _, src := range []NodeID{1, 2} {
		h := nw.Endpoint(src).Stats().GrantWait
		if h.N < 1 {
			t.Errorf("node %d: GrantWait.N=%d, want >=1", src, h.N)
		}
		if got := bucketSum(h.B); got != h.N {
			t.Errorf("node %d: bucket counts sum to %d, want N=%d", src, got, h.N)
		}
	}
	// Merged into the aggregate like any other counter.
	var all Stats
	for i := 0; i < nw.Nodes(); i++ {
		all.Add(nw.Endpoint(NodeID(i)).Stats())
	}
	if all.GrantWait.N < 2 {
		t.Errorf("aggregate GrantWait.N=%d, want >=2", all.GrantWait.N)
	}
}
