package amnet

import (
	"testing"
	"time"
)

func TestFaultPlanValidation(t *testing.T) {
	bad := []FaultPlan{
		{Drop: -0.1},
		{Dup: -1},
		{Delay: -0.5},
		{Drop: 0.6, Dup: 0.3, Delay: 0.2},
		{PauseEvery: -time.Second},
		{PauseEvery: time.Second, PauseDur: -time.Second},
	}
	for i, p := range bad {
		p := p
		if _, err := NewNetwork(Config{Nodes: 2, Faults: &p}); err == nil {
			t.Errorf("case %d: invalid plan %+v accepted", i, p)
		}
	}
}

func TestFaultPlanDefaults(t *testing.T) {
	p := &FaultPlan{PauseEvery: time.Millisecond}
	if _, err := NewNetwork(Config{Nodes: 1, Faults: p}); err != nil {
		t.Fatal(err)
	}
	if p.Seed == 0 {
		t.Error("zero seed not replaced with the fixed default")
	}
	if p.PauseDur != 250*time.Microsecond {
		t.Errorf("PauseDur=%v, want PauseEvery/4", p.PauseDur)
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultDrop: "drop", FaultDup: "dup", FaultDelay: "delay",
		FaultPause: "pause", FaultKind(0): "invalid",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("FaultKind(%d).String()=%q want %q", k, k.String(), want)
		}
	}
}

// faultTrafficRun sends count packets 0->1 under plan and returns the
// delivery order (by U0) and the receiver's stats.
func faultTrafficRun(t *testing.T, plan FaultPlan, count int) ([]uint64, Stats) {
	t.Helper()
	var seen []uint64
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) { seen = append(seen, p.U0) },
	})
	for i := 0; i < count; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: uint64(i)})
	}
	// First poll drains the inbox (parking delayed packets); the second
	// re-injects the delay queue.
	nw.Endpoint(1).PollAll()
	nw.Endpoint(1).PollAll()
	return seen, nw.Endpoint(1).Stats()
}

// TestFaultDeterminism checks the same plan and traffic produce the
// identical fault sequence on every run, and that the seed changes it.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Drop: 0.1, Dup: 0.1, Delay: 0.1, Seed: 7}
	a, as := faultTrafficRun(t, plan, 400)
	b, bs := faultTrafficRun(t, plan, 400)
	if as.Dropped != bs.Dropped || as.Duplicated != bs.Duplicated || as.Delayed != bs.Delayed {
		t.Fatalf("same seed, different faults: %+v vs %+v", as, bs)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different delivery order at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if as.Dropped == 0 || as.Duplicated == 0 || as.Delayed == 0 {
		t.Errorf("400 packets at 10%% each injected nothing: %+v", as)
	}
	plan.Seed = 8
	c, cs := faultTrafficRun(t, plan, 400)
	sameOrder := len(c) == len(a)
	for i := 0; sameOrder && i < len(a); i++ {
		sameOrder = c[i] == a[i]
	}
	if cs == as && sameOrder {
		t.Error("different seeds produced an identical fault sequence")
	}
}

func TestFaultDropAll(t *testing.T) {
	seen, s := faultTrafficRun(t, FaultPlan{Drop: 1}, 50)
	if len(seen) != 0 {
		t.Fatalf("%d packets delivered with Drop=1", len(seen))
	}
	if s.Dropped != 50 {
		t.Errorf("Dropped=%d, want 50", s.Dropped)
	}
	if s.Received != 0 {
		t.Errorf("Received=%d for all-dropped traffic", s.Received)
	}
}

func TestFaultDupAll(t *testing.T) {
	seen, s := faultTrafficRun(t, FaultPlan{Dup: 1}, 50)
	if len(seen) != 100 {
		t.Fatalf("%d deliveries with Dup=1, want 100", len(seen))
	}
	for i, v := range seen {
		if v != uint64(i/2) {
			t.Fatalf("duplicate not back to back at %d: got %d", i, v)
		}
	}
	if s.Duplicated != 50 {
		t.Errorf("Duplicated=%d, want 50", s.Duplicated)
	}
}

// TestFaultDelayReinjection checks a delayed packet is NOT handled by the
// poll that drained it but IS re-injected — ahead of the inbox — by the
// next PollAll, i.e. later traffic overtakes it.
func TestFaultDelayReinjection(t *testing.T) {
	var seen []uint64
	plan := FaultPlan{Delay: 1, Seed: 3}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) { seen = append(seen, p.U0) },
	})
	ep := nw.Endpoint(1)
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: 1})
	ep.PollAll()
	if len(seen) != 0 {
		t.Fatalf("delayed packet handled on the first poll: %v", seen)
	}
	if ep.FaultBacklog() != 1 {
		t.Fatalf("FaultBacklog=%d, want 1", ep.FaultBacklog())
	}
	// A second packet arrives while the first is parked.  The parked one
	// re-injects first on the next poll; the newcomer gets parked in turn.
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: 2})
	ep.PollAll()
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("second poll delivered %v, want [1]", seen)
	}
	ep.PollAll()
	if len(seen) != 2 || seen[1] != 2 {
		t.Fatalf("third poll delivered %v, want [1 2]", seen)
	}
	if s := ep.Stats(); s.Delayed != 2 {
		t.Errorf("Delayed=%d, want 2", s.Delayed)
	}
}

// TestFaultResetDiscardsBacklog checks FaultReset clears parked packets
// (the machine calls it between runs, after the drain barrier).
func TestFaultResetDiscardsBacklog(t *testing.T) {
	plan := FaultPlan{Delay: 1}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) { t.Error("stale delayed packet dispatched") },
	})
	ep := nw.Endpoint(1)
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1})
	ep.PollAll()
	if ep.FaultBacklog() != 1 {
		t.Fatalf("FaultBacklog=%d, want 1", ep.FaultBacklog())
	}
	ep.FaultReset()
	if ep.FaultBacklog() != 0 {
		t.Fatalf("FaultBacklog=%d after reset", ep.FaultBacklog())
	}
	ep.PollAll()
}

// TestLosslessBypassesInjection checks MarkLossless exempts a handler from
// the fault filter entirely.
func TestLosslessBypassesInjection(t *testing.T) {
	hits := 0
	plan := FaultPlan{Drop: 1}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) { hits++ },
	})
	nw.MarkLossless(hPing)
	for i := 0; i < 50; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	}
	nw.Endpoint(1).PollAll()
	if hits != 50 {
		t.Fatalf("lossless handler ran %d times under Drop=1, want 50", hits)
	}
	if s := nw.Endpoint(1).Stats(); s.Dropped != 0 {
		t.Errorf("Dropped=%d for lossless-only traffic", s.Dropped)
	}
}

func TestFaultObserverSeesEachKind(t *testing.T) {
	kinds := map[FaultKind]int{}
	plan := FaultPlan{Drop: 0.2, Dup: 0.2, Delay: 0.2, Seed: 11}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) {},
	})
	nw.SetFaultObserver(func(dst NodeID, k FaultKind, p Packet) {
		if dst != 1 {
			t.Errorf("fault observed at node %d, traffic only targets 1", dst)
		}
		kinds[k]++
	})
	for i := 0; i < 300; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1})
	}
	nw.Endpoint(1).PollAll()
	nw.Endpoint(1).PollAll()
	if kinds[FaultDrop] == 0 || kinds[FaultDup] == 0 || kinds[FaultDelay] == 0 {
		t.Errorf("observer missed a kind: %v", kinds)
	}
	s := nw.Endpoint(1).Stats()
	if uint64(kinds[FaultDrop]) != s.Dropped || uint64(kinds[FaultDup]) != s.Duplicated || uint64(kinds[FaultDelay]) != s.Delayed {
		t.Errorf("observer counts %v disagree with stats %+v", kinds, s)
	}
}

// TestFaultPauseWindow checks a paused node refuses to poll, that
// RecvBlock sleeps the window out without consuming the inbox, and that
// delivery resumes once the window closes.
func TestFaultPauseWindow(t *testing.T) {
	hits := 0
	plan := FaultPlan{PauseEvery: time.Millisecond, PauseDur: 20 * time.Millisecond, PauseNodes: []NodeID{1}}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) { hits++ },
	})
	ep := nw.Endpoint(1)
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	// The first poll schedules the initial pause and handles normally.
	if ep.PollAll() != 1 || hits != 1 {
		t.Fatalf("first poll handled %d packets", hits)
	}
	// Node 0 is not in the pause set and polls freely.
	if f := nw.Endpoint(0).faults; f.pausedNow(nw.Endpoint(0)) {
		t.Fatal("node outside PauseNodes is pausing")
	}
	// Sleep past the scheduled pause (due within 1.5ms): the next poll
	// opens a >=10ms window and must handle nothing.
	time.Sleep(2 * time.Millisecond)
	nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	if n := ep.PollAll(); n != 0 {
		t.Fatalf("polled %d packets during a pause window", n)
	}
	if ep.Stats().Pauses == 0 {
		t.Error("no pause window recorded")
	}
	// RecvBlock inside the window sleeps without consuming the inbox.
	if ep.RecvBlock(nil, 2*time.Millisecond) {
		t.Fatal("RecvBlock delivered during a pause window")
	}
	if ep.Pending() != 1 {
		t.Fatalf("Pending=%d, pause consumed the inbox", ep.Pending())
	}
	// Delivery resumes in the gap after the window closes.
	deadline := time.Now().Add(5 * time.Second)
	for hits < 2 && time.Now().Before(deadline) {
		if ep.PollAll() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if hits != 2 {
		t.Fatal("packet never delivered after the pause window")
	}
}

// TestBulkRecoversUnderDrops runs bulk transfers with a lossy control
// plane: requests and grants can vanish or duplicate, and the re-request
// timer plus idempotent granting must still complete every transfer
// exactly once.  The data segments themselves are lossless by
// construction.
func TestBulkRecoversUnderDrops(t *testing.T) {
	var got []bulkRecord
	plan := FaultPlan{Drop: 0.15, Dup: 0.15, Seed: 42}
	nw, err := NewNetwork(Config{Nodes: 2, Flow: FlowOneActive, SegWords: 8, InboxCap: 64, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(hBulkDone, func(ep *Endpoint, p Packet) {
		got = append(got, bulkRecord{data: p.Data, tag: p.U0})
	})
	const transfers = 5
	for k := uint64(0); k < transfers; k++ {
		nw.Endpoint(0).BulkSend(1, ramp(100), Packet{Handler: hBulkDone, U0: k})
	}
	pumpUntil(t, nw, func() bool { return len(got) == transfers })
	for _, r := range got {
		checkRamp(t, r.data, 100)
	}
	tags := map[uint64]bool{}
	for _, r := range got {
		if tags[r.tag] {
			t.Fatalf("transfer %d completed twice", r.tag)
		}
		tags[r.tag] = true
	}
	// A few extra polling rounds must not conjure more completions.
	for i := 0; i < 200; i++ {
		nw.Endpoint(0).PollAll()
		nw.Endpoint(1).PollAll()
		time.Sleep(10 * time.Microsecond)
	}
	if len(got) != transfers {
		t.Fatalf("%d completions after settling, want %d", len(got), transfers)
	}
}
