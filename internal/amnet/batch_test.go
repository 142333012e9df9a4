package amnet

import (
	"slices"
	"testing"
	"time"
)

// TestSendBatchedFIFO checks that coalescing preserves per-(src,dst)
// delivery order, including across flush boundaries and mixed batch sizes.
func TestSendBatchedFIFO(t *testing.T) {
	var got []uint64
	nw := newTestNet(t, Config{Nodes: 2, BatchMax: 4}, map[HandlerID]Handler{
		hCount: func(_ *Endpoint, p Packet) { got = append(got, p.U0) },
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	const total = 23 // not a multiple of BatchMax: last flush is partial
	for i := uint64(0); i < total; i++ {
		src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: i})
		if i == 10 {
			src.flushOut() // mid-stream explicit flush must not reorder
		}
	}
	src.flushOut()
	for dst.Pending() > 0 {
		dst.PollAll()
	}
	if len(got) != total {
		t.Fatalf("delivered %d packets, want %d", len(got), total)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("packet %d out of order: got %d", i, v)
		}
	}
	if s := src.Stats(); s.Batches == 0 || s.BatchedPkts == 0 {
		t.Errorf("no coalescing happened: %+v", s)
	}
}

// TestSendBatchedCountsAgainstInboxCap checks the back-pressure
// accounting: a coalesced batch occupies its packet count of inbox
// capacity, not one slot.
func TestSendBatchedCountsAgainstInboxCap(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 4}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	// BatchMax defaults to 32 but is clamped to InboxCap=4, so the fourth
	// staged packet flushes as one 4-packet batch.
	for i := 0; i < 4; i++ {
		src.SendBatched(Packet{Handler: hCount, Dst: 1})
	}
	if got := dst.Pending(); got != 4 {
		t.Fatalf("Pending() = %d after a 4-packet batch, want 4", got)
	}
	// The inbox holds ONE channel item but is at packet capacity: a
	// non-blocking send must be refused and counted.
	if src.TrySend(Packet{Handler: hCount, Dst: 1}) {
		t.Fatal("TrySend accepted into a full inbox")
	}
	if got := src.Stats().TryStalls; got != 1 {
		t.Fatalf("TryStalls = %d, want 1", got)
	}
	if got := dst.PollAll(); got != 4 {
		t.Fatalf("PollAll() = %d, want 4", got)
	}
	if !src.TrySend(Packet{Handler: hCount, Dst: 1}) {
		t.Fatal("TrySend refused after drain")
	}
}

// TestSendBypassesStaging checks the default verb: a Send packet never
// waits in the staging buffer (it is visible to the destination
// immediately), and staged traffic to the same link flushes ahead of it
// so per-(src,dst) FIFO holds.
func TestSendBypassesStaging(t *testing.T) {
	var got []uint64
	nw := newTestNet(t, Config{Nodes: 2, BatchMax: 8}, map[HandlerID]Handler{
		hCount: func(_ *Endpoint, p Packet) { got = append(got, p.U0) },
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 0})
	src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 1})
	if dst.Pending() != 0 {
		t.Fatal("staged packets flushed below BatchMax")
	}
	src.Send(Packet{Handler: hCount, Dst: 1, U0: 2})
	if got := dst.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after Send, want 3 (staged flushed + packet injected)", got)
	}
	// With nothing staged, Send is a plain immediate send.
	src.Send(Packet{Handler: hCount, Dst: 1, U0: 3})
	if got := dst.Pending(); got != 4 {
		t.Fatalf("Pending() = %d after bare Send, want 4", got)
	}
	for dst.Pending() > 0 {
		dst.PollAll()
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("packet %d out of order: got %d", i, v)
		}
	}
}

// TestSendKeepsLinkFIFOWithStaged checks the package doc's promise that
// call order is delivery order per (src,dst) pair whichever verb each
// packet took: two staged packets then a Send arrive [1 2 3], on a ring
// and across a wire.  (Send used to inject without draining the staging
// buffer, delivering [3 1 2].)
func TestSendKeepsLinkFIFOWithStaged(t *testing.T) {
	for _, wire := range []bool{false, true} {
		name := "memory"
		if wire {
			name = "wire"
		}
		t.Run(name, func(t *testing.T) {
			var got []uint64
			handlers := map[HandlerID]Handler{
				hCount: func(_ *Endpoint, p Packet) { got = append(got, p.U0) },
			}
			var src, dst *Endpoint
			if wire {
				wa, wb := newFakePair(1, 8)
				na := newTestNet(t, Config{Nodes: 2, Remote: wa}, handlers)
				nb := newTestNet(t, Config{Nodes: 2, Remote: wb}, handlers)
				for _, nw := range []*Network{na, nb} {
					if err := nw.StartTransport(); err != nil {
						t.Fatal(err)
					}
				}
				defer wa.Close()
				defer wb.Close()
				src, dst = na.Endpoint(0), nb.Endpoint(1)
			} else {
				nw := newTestNet(t, Config{Nodes: 2}, handlers)
				src, dst = nw.Endpoint(0), nw.Endpoint(1)
			}
			src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 1})
			src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 2})
			src.Send(Packet{Handler: hCount, Dst: 1, U0: 3})
			for deadline := time.Now().Add(5 * time.Second); len(got) < 3; {
				if time.Now().After(deadline) {
					t.Fatalf("delivered %v, want three packets", got)
				}
				dst.RecvBlock(nil, time.Millisecond)
			}
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("delivered %v, want [1 2 3]", got)
			}
		})
	}
}

// TestDiscardOutboundDropsStaged checks that Reset drops staged packets
// without injecting them and leaves the endpoint reusable.
func TestDiscardOutboundDropsStaged(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	src.SendBatched(Packet{Handler: hCount, Dst: 1})
	src.SendBatched(Packet{Handler: hCount, Dst: 1})
	src.Reset()
	src.flushOut()
	if got := dst.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", got)
	}
	src.SendBatched(Packet{Handler: hCount, Dst: 1})
	src.flushOut()
	if got := dst.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after re-staging, want 1", got)
	}
}

// TestRecvBlockFlushesStaged checks that a node about to park injects its
// staged packets first — coalesced traffic must not be held across a
// blocking wait.
func TestRecvBlockFlushesStaged(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	src.SendBatched(Packet{Handler: hCount, Dst: 1})
	src.RecvBlock(nil, time.Millisecond) // blocks, times out; must flush first
	if got := dst.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after sender parked, want 1", got)
	}
}

// TestRecvBlockDrainsDelayed is the regression test for the stranded-
// hold bug: a packet held behind a link cut during an earlier poll must
// be dispatched when the node blocks idle, not stranded until the next
// PollAll that may never come.
func TestRecvBlockDrainsDelayed(t *testing.T) {
	delivered := 0
	nw := newTestNet(t, Config{Nodes: 2, Faults: &FaultPlan{Cut: 1}}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) { delivered++ },
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	src.Send(Packet{Handler: hCount, Dst: 1})
	// The first consume cuts the link and holds the packet.
	if !dst.PollOne() {
		t.Fatal("PollOne found no inbox item")
	}
	if delivered != 0 {
		t.Fatal("packet dispatched despite Cut=1")
	}
	if heldCount(dst) != 1 {
		t.Fatalf("held = %d, want 1", heldCount(dst))
	}
	// Blocking idle must dispatch the held packet instead of sleeping
	// on an empty inbox with work stranded.
	if !dst.RecvBlock(nil, 50*time.Millisecond) {
		t.Fatal("RecvBlock returned false with a held packet pending")
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d after RecvBlock, want 1", delivered)
	}
	if heldCount(dst) != 0 {
		t.Fatalf("held = %d after drain, want 0", heldCount(dst))
	}
}

// TestFlushReentrantRestageNotStranded is the regression test for the
// stranded-staging bug: during flushOut, a blocked injection drains the
// sender's own inbox, and a handler run there may SendBatched to a link
// the same pass already flushed.  That packet must be re-registered and
// flushed by the same pass — not left in a buffer no future flush visits.
func TestFlushReentrantRestageNotStranded(t *testing.T) {
	var got []uint64
	sig := make(chan struct{})
	nw := newTestNet(t, Config{Nodes: 3, InboxCap: 2, BatchMax: 8}, map[HandlerID]Handler{
		hCount: func(_ *Endpoint, p Packet) { got = append(got, p.U0) },
		hPong:  func(*Endpoint, Packet) {},
		hPing: func(ep *Endpoint, _ Packet) {
			// Runs on node 0 reentrantly, while flushOut is parked
			// injecting into node 2 — after the pass already flushed
			// link 1.
			ep.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 2})
			close(sig)
		},
	})
	ep0, ep1, ep2 := nw.Endpoint(0), nw.Endpoint(1), nw.Endpoint(2)
	// Fill node 2's inbox so node 0's flush to it must stall.
	ep1.Send(Packet{Handler: hPong, Dst: 2})
	ep1.Send(Packet{Handler: hPong, Dst: 2})
	// Park the stager in node 0's inbox: the stalled flush drains it.
	ep1.Send(Packet{Handler: hPing, Dst: 0})
	// Stage one packet per link; dirty list is [1, 2].
	ep0.SendBatched(Packet{Handler: hCount, Dst: 1, U0: 1})
	ep0.SendBatched(Packet{Handler: hPong, Dst: 2})
	// Once the reentrant stage happened, free node 2's inbox so the
	// parked flush can complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sig
		ep2.PollOne()
	}()
	ep0.flushOut()
	<-done
	// The single flush pass must have delivered BOTH packets to node 1's
	// inbox, in staging order.
	ep1.PollAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want [1 2] (reentrantly staged packet stranded?)", got)
	}
}

// TestBatchPoolSizedToBatchMax checks that pooled batch slices are sized
// from the configured BatchMax, not the package default: a BatchMax > 32
// must not force a reallocation on every full batch.
func TestBatchPoolSizedToBatchMax(t *testing.T) {
	nw, err := NewNetwork(Config{Nodes: 2, InboxCap: 1024, BatchMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	if b := nw.newBatch(); cap(*b) != 64 {
		t.Fatalf("pooled batch cap = %d, want BatchMax = 64", cap(*b))
	}
}

// TestTrySendCountsTryStalls checks the refusal counter on the
// non-blocking path: flow-controlled bulk pumps report link pressure.
func TestTrySendCountsTryStalls(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 2}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	src := nw.Endpoint(0)
	for i := 0; i < 2; i++ {
		if !src.TrySend(Packet{Handler: hCount, Dst: 1}) {
			t.Fatalf("TrySend %d refused below capacity", i)
		}
	}
	for i := 0; i < 3; i++ {
		if src.TrySend(Packet{Handler: hCount, Dst: 1}) {
			t.Fatal("TrySend accepted into a full inbox")
		}
	}
	s := src.Stats()
	if s.TryStalls != 3 {
		t.Errorf("TryStalls = %d, want 3", s.TryStalls)
	}
	if s.SendStalls != 0 {
		t.Errorf("SendStalls = %d, want 0 (TrySend must not count there)", s.SendStalls)
	}
	if s.Sent != 2 {
		t.Errorf("Sent = %d, want 2 (refusals are not sends)", s.Sent)
	}
}

// TestBatchFaultDrawsPerPacket checks a coalesced batch is not one
// fault draw: each packet arriving on an open link draws, so batched and
// unbatched streams cut the link at the same packets and deliver the same
// order.
func TestBatchFaultDrawsPerPacket(t *testing.T) {
	run := func(batched bool) (got, cuts []uint64) {
		nw := newTestNet(t, Config{Nodes: 2, Faults: &FaultPlan{Cut: 0.3, Seed: 42}},
			map[HandlerID]Handler{hCount: func(_ *Endpoint, p Packet) { got = append(got, p.U0) }})
		nw.SetFaultObserver(func(_ NodeID, _ FaultKind, p Packet) { cuts = append(cuts, p.U0) })
		src, dst := nw.Endpoint(0), nw.Endpoint(1)
		for i := uint64(0); i < 64; i++ {
			if batched {
				src.SendBatched(Packet{Handler: hCount, Dst: 1, U0: i})
			} else {
				src.Send(Packet{Handler: hCount, Dst: 1, U0: i})
			}
			if i%8 == 7 { // a round per poll, so a cut link reopens
				src.flushOut()
				dst.PollAll()
			}
		}
		for heldCount(dst) > 0 {
			dst.PollAll()
		}
		return got, cuts
	}
	plain, plainCuts := run(false)
	batched, batchedCuts := run(true)
	if len(plainCuts) < 2 || len(plain) != 64 {
		t.Fatalf("degenerate cut pattern: %d cuts, %d of 64 delivered", len(plainCuts), len(plain))
	}
	if !slices.Equal(plainCuts, batchedCuts) {
		t.Fatalf("cut decisions differ: plain %v vs batched %v", plainCuts, batchedCuts)
	}
	if !slices.Equal(plain, batched) {
		t.Fatalf("delivery differs: plain %v vs batched %v", plain, batched)
	}
}
