package amnet

import (
	"sync"
	"testing"
	"time"
)

const (
	hPing HandlerID = iota
	hPong
	hCount
	hForward
)

// newTestNet builds a network where each handler id above is wired to a
// caller-provided function via a dispatch table.
func newTestNet(t *testing.T, cfg Config, wire map[HandlerID]Handler) *Network {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, h := range wire {
		nw.Register(id, h)
	}
	return nw
}

func TestConfigDefaults(t *testing.T) {
	nw, err := NewNetwork(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nw.Config()
	if cfg.InboxCap != 1024 || cfg.Flow != FlowOneActive {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestConfigRejectsZeroNodes(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
}

func TestRegisterAfterTrafficPanics(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{hPing: func(*Endpoint, Packet) {}})
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after traffic")
		}
	}()
	nw.Register(hPong, func(*Endpoint, Packet) {})
}

func TestDuplicateRegisterPanics(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 1}, map[HandlerID]Handler{hPing: func(*Endpoint, Packet) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate register")
		}
	}()
	nw.Register(hPing, func(*Endpoint, Packet) {})
}

func TestSendAndPoll(t *testing.T) {
	var got Packet
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		hPing: func(ep *Endpoint, p Packet) { got = p },
	})
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1, U0: 7, U1: 8, Payload: "hello"})
	if n := nw.Endpoint(1).PollAll(); n != 1 {
		t.Fatalf("PollAll handled %d packets, want 1", n)
	}
	if got.Src != 0 || got.U0 != 7 || got.U1 != 8 || got.Payload != "hello" {
		t.Errorf("packet corrupted in flight: %+v", got)
	}
}

func TestSelfSend(t *testing.T) {
	hit := 0
	nw := newTestNet(t, Config{Nodes: 1}, map[HandlerID]Handler{
		hPing: func(ep *Endpoint, p Packet) { hit++ },
	})
	ep := nw.Endpoint(0)
	ep.Send(Packet{Handler: hPing, Dst: 0})
	ep.PollAll()
	if hit != 1 {
		t.Errorf("self-send handled %d times, want 1", hit)
	}
}

func TestFIFOPerSenderReceiverPair(t *testing.T) {
	var seen []uint64
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) { seen = append(seen, p.U0) },
	})
	for i := 0; i < 500; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: uint64(i)})
	}
	nw.Endpoint(1).PollAll()
	if len(seen) != 500 {
		t.Fatalf("received %d packets, want 500", len(seen))
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

// TestSendPollsWhenFull drives two nodes that flood each other over tiny
// inboxes from two goroutines; without poll-while-send this deadlocks.
func TestSendPollsWhenFull(t *testing.T) {
	const msgs = 5000
	var mu sync.Mutex
	recv := map[NodeID]int{}
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 4}, map[HandlerID]Handler{
		// The lock guards a counter map and is held for two
		// instructions, never across network progress.
		hCount: func(ep *Endpoint, p Packet) {
			mu.Lock()
			recv[ep.ID()]++
			mu.Unlock()
		},
	})
	var wg sync.WaitGroup
	for id := NodeID(0); id < 2; id++ {
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			ep := nw.Endpoint(id)
			for i := 0; i < msgs; i++ {
				ep.Send(Packet{Handler: hCount, Dst: 1 - id, U0: uint64(i)})
			}
			// Drain whatever remains addressed to us.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				done := recv[id] == msgs
				mu.Unlock()
				if done {
					return
				}
				if ep.PollAll() == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}(id)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if recv[0] != msgs || recv[1] != msgs {
		t.Fatalf("lost packets: node0=%d node1=%d want %d each", recv[0], recv[1], msgs)
	}
}

func TestRecvBlockTimeout(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 1}, nil)
	start := time.Now()
	ok := nw.Endpoint(0).RecvBlock(nil, 10*time.Millisecond)
	if ok {
		t.Fatal("RecvBlock returned true with no traffic")
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("RecvBlock returned too early")
	}
}

func TestRecvBlockStop(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 1}, nil)
	stop := make(chan struct{})
	done := make(chan bool)
	go func() { done <- nw.Endpoint(0).RecvBlock(stop, 0) }()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvBlock returned true on stop")
		}
	case <-time.After(time.Second):
		t.Fatal("RecvBlock did not observe stop")
	}
}

func TestRecvBlockDelivers(t *testing.T) {
	hit := make(chan uint64, 1)
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		// Cannot block: hit is buffered (cap 1) and the test sends
		// exactly one packet.
		hPing: func(ep *Endpoint, p Packet) { hit <- p.U0 },
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1, U0: 42})
	}()
	if !nw.Endpoint(1).RecvBlock(nil, time.Second) {
		t.Fatal("RecvBlock timed out")
	}
	if v := <-hit; v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
}

func TestHandlerMaySendReentrantly(t *testing.T) {
	// hForward on node 1 forwards to node 2.
	var final []uint64
	nw := newTestNet(t, Config{Nodes: 3}, map[HandlerID]Handler{
		hForward: func(ep *Endpoint, p Packet) {
			ep.Send(Packet{Handler: hCount, Dst: 2, U0: p.U0})
		},
		hCount: func(ep *Endpoint, p Packet) { final = append(final, p.U0) },
	})
	nw.Endpoint(0).Send(Packet{Handler: hForward, Dst: 1, U0: 9})
	nw.Endpoint(1).PollAll()
	nw.Endpoint(2).PollAll()
	if len(final) != 1 || final[0] != 9 {
		t.Fatalf("forwarded packet lost: %v", final)
	}
}

func TestStatsCounting(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) {},
	})
	for i := 0; i < 10; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	}
	nw.Endpoint(1).PollAll()
	if s := nw.Endpoint(0).Stats(); s.Sent != 10 {
		t.Errorf("sender Sent=%d, want 10", s.Sent)
	}
	if s := nw.Endpoint(1).Stats(); s.Received != 10 {
		t.Errorf("receiver Received=%d, want 10", s.Received)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Sent: 1, Received: 2, SendStalls: 3, Polls: 4, BulkSends: 5, BulkRecvs: 6, BulkWords: 7, BulkQueued: 8}
	b := a
	a.Add(b)
	want := Stats{Sent: 2, Received: 4, SendStalls: 6, Polls: 8, BulkSends: 10, BulkRecvs: 12, BulkWords: 14, BulkQueued: 16}
	if a != want {
		t.Errorf("Add: got %+v want %+v", a, want)
	}
}

func TestTrySendReportsFull(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 2}, map[HandlerID]Handler{hPing: func(*Endpoint, Packet) {}})
	ep := nw.Endpoint(0)
	if !ep.TrySend(Packet{Handler: hPing, Dst: 1}) || !ep.TrySend(Packet{Handler: hPing, Dst: 1}) {
		t.Fatal("TrySend failed with room available")
	}
	if ep.TrySend(Packet{Handler: hPing, Dst: 1}) {
		t.Fatal("TrySend succeeded on full inbox")
	}
	nw.Endpoint(1).PollAll()
	if !ep.TrySend(Packet{Handler: hPing, Dst: 1}) {
		t.Fatal("TrySend failed after drain")
	}
}

func TestUnregisteredHandlerPanics(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{hPing: func(*Endpoint, Packet) {}})
	nw.Endpoint(0).Send(Packet{Handler: 99, Dst: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered handler")
		}
	}()
	nw.Endpoint(1).PollAll()
}

func TestFlowModeString(t *testing.T) {
	cases := map[FlowMode]string{FlowOneActive: "one-active", FlowEager: "eager", FlowMode(9): "invalid"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("FlowMode(%d).String()=%q want %q", m, m.String(), want)
		}
	}
}

func TestPendingAndPollDiscard(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{hPing: func(*Endpoint, Packet) {}})
	ep := nw.Endpoint(1)
	if ep.Pending() != 0 {
		t.Fatal("fresh inbox not empty")
	}
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	if ep.Pending() != 2 {
		t.Fatalf("Pending=%d want 2", ep.Pending())
	}
	if !ep.PollDiscard() {
		t.Fatal("PollDiscard found nothing")
	}
	if ep.Pending() != 1 {
		t.Fatalf("Pending=%d want 1 after discard", ep.Pending())
	}
	ep.PollDiscard()
	if ep.PollDiscard() {
		t.Fatal("PollDiscard on empty inbox returned true")
	}
	if ep.Net() != nw {
		t.Fatal("Net accessor wrong")
	}
}
