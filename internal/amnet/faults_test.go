package amnet

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// heldCount is the number of packets ep holds behind cut links.
func heldCount(ep *Endpoint) int {
	n := 0
	if f := ep.faults; f != nil {
		for _, src := range f.cut {
			n += len(f.held[src])
		}
	}
	return n
}

func TestFaultPlanValidation(t *testing.T) {
	bad := []FaultPlan{
		{Cut: -0.1},
		{Cut: 1.5},
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
		FaultCut: "cut", FaultPause: "pause", FaultKind(0): "invalid",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("FaultKind(%d).String()=%q want %q", k, k.String(), want)
		}
	}
}

// faultTrafficRun sends count packets 0->1 under plan, eight per poll so
// that a cut link reopens between rounds, and returns the delivery order
// (by U0), the packets that cut the link, and the receiver's stats.
func faultTrafficRun(t *testing.T, plan FaultPlan, count int) (seen, cuts []uint64, s Stats) {
	t.Helper()
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) { seen = append(seen, p.U0) },
	})
	nw.SetFaultObserver(func(_ NodeID, k FaultKind, p Packet) {
		if k == FaultCut {
			cuts = append(cuts, p.U0)
		}
	})
	dst := nw.Endpoint(1)
	for i := 0; i < count; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: uint64(i)})
		if i%8 == 7 {
			dst.PollAll()
		}
	}
	for dst.Pending() > 0 || heldCount(dst) > 0 {
		dst.PollAll()
	}
	return seen, cuts, dst.Stats()
}

// TestFaultDeterminism checks the same plan and traffic cut the link at
// the same packets on every run, that the seed changes where, and that
// every packet is still delivered once and in order.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Cut: 0.2, Seed: 7}
	a, acuts, as := faultTrafficRun(t, plan, 400)
	b, bcuts, bs := faultTrafficRun(t, plan, 400)
	if as.Cuts != bs.Cuts || as.Held != bs.Held || !slices.Equal(acuts, bcuts) {
		t.Fatalf("same seed, different cuts: %v vs %v", acuts, bcuts)
	}
	if as.Cuts == 0 || uint64(len(acuts)) != as.Cuts {
		t.Fatalf("400 packets at 20%% cut nothing, or the observer disagrees: cuts=%d observed=%d", as.Cuts, len(acuts))
	}
	for _, seen := range [][]uint64{a, b} {
		if len(seen) != 400 {
			t.Fatalf("%d of 400 packets delivered", len(seen))
		}
		for i, v := range seen {
			if v != uint64(i) {
				t.Fatalf("delivery %d is packet %d: a cut reordered its link", i, v)
			}
		}
	}
	plan.Seed = 8
	if _, ccuts, _ := faultTrafficRun(t, plan, 400); slices.Equal(ccuts, acuts) {
		t.Error("different seeds cut at the same packets")
	}
}

// TestFaultDelayReinjection checks that a cut link's packets are not
// handled by the poll that held them, that other links overtake them, and
// that the next PollAll handles them first and in order, reopening the
// link.
func TestFaultDelayReinjection(t *testing.T) {
	var seen []uint64
	plan := FaultPlan{Cut: 1, Seed: 3}
	nw := newTestNet(t, Config{Nodes: 3, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) { seen = append(seen, p.U0) },
	})
	// Only the first packet cuts: the observer closes the plan after it.
	nw.SetFaultObserver(func(NodeID, FaultKind, Packet) { plan.Cut = 0 })
	ep := nw.Endpoint(1)
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: 1})
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: 2})
	nw.Endpoint(2).Send(Packet{Handler: hCount, Dst: 1, U0: 3})
	ep.PollAll()
	if !slices.Equal(seen, []uint64{3}) {
		t.Fatalf("first poll delivered %v, want [3]: link 2->1 overtakes the cut 0->1", seen)
	}
	if heldCount(ep) != 2 {
		t.Fatalf("held=%d, want 2", heldCount(ep))
	}
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1, U0: 4})
	ep.PollAll()
	if !slices.Equal(seen, []uint64{3, 1, 2, 4}) {
		t.Fatalf("second poll delivered %v, want [3 1 2 4]", seen)
	}
	if s := ep.Stats(); s.Cuts != 1 || s.Held != 2 || heldCount(ep) != 0 {
		t.Errorf("Cuts=%d Held=%d backlog=%d, want 1, 2, 0", s.Cuts, s.Held, heldCount(ep))
	}
}

// TestFaultResetDiscardsBacklog checks FaultReset clears held packets
// (the machine calls it between runs, after the drain barrier).
func TestFaultResetDiscardsBacklog(t *testing.T) {
	plan := FaultPlan{Cut: 1}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(*Endpoint, Packet) { t.Error("stale held packet dispatched") },
	})
	ep := nw.Endpoint(1)
	nw.Endpoint(0).Send(Packet{Handler: hCount, Dst: 1})
	ep.PollAll()
	if heldCount(ep) != 1 {
		t.Fatalf("held=%d, want 1", heldCount(ep))
	}
	ep.FaultReset()
	if heldCount(ep) != 0 {
		t.Fatalf("held=%d after reset", heldCount(ep))
	}
	ep.PollAll()
}

func TestFaultObserverSeesEachKind(t *testing.T) {
	_, cuts, s := faultTrafficRun(t, FaultPlan{Cut: 0.2, Seed: 11}, 300)
	if len(cuts) == 0 || uint64(len(cuts)) != s.Cuts {
		t.Errorf("observer saw %d cuts, stats count %d", len(cuts), s.Cuts)
	}
	if s.Held < s.Cuts {
		t.Errorf("Held=%d < Cuts=%d: a cutting packet is held too", s.Held, s.Cuts)
	}
}

// TestCutLinksDeliverExactlyOnceInOrder streams numbered packets from
// three senders into one paused, heavily cut endpoint and checks what a
// link that recovers by replay promises: every packet is dispatched once,
// and each sender's packets in the order it sent them.
func TestCutLinksDeliverExactlyOnceInOrder(t *testing.T) {
	const senders, count = 3, 10000
	plan := FaultPlan{Cut: 0.3, PauseEvery: time.Millisecond, PauseDur: 200 * time.Microsecond,
		PauseNodes: []NodeID{senders}, Seed: 5}
	var next [senders]uint64
	bad, total := 0, 0
	nw := newTestNet(t, Config{Nodes: senders + 1, InboxCap: 64, Faults: &plan}, map[HandlerID]Handler{
		hCount: func(_ *Endpoint, p Packet) {
			total++
			if p.U0 != next[p.Src] {
				bad++
			}
			next[p.Src] = p.U0 + 1
		},
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for i := uint64(0); i < count; i++ {
				ep.Send(Packet{Handler: hCount, Dst: senders, U0: i})
			}
		}(nw.Endpoint(NodeID(s)))
	}
	ep := nw.Endpoint(senders)
	deadline := time.Now().Add(20 * time.Second)
	for total < senders*count && time.Now().Before(deadline) {
		if ep.PollAll() == 0 {
			ep.RecvBlock(nil, 100*time.Microsecond)
		}
	}
	if total < senders*count {
		t.Fatalf("dispatched %d of %d packets before the deadline", total, senders*count)
	}
	wg.Wait()
	for ep.PollAll() > 0 {
	}
	if total != senders*count || bad != 0 {
		t.Fatalf("dispatched %d of %d packets, %d out of order or repeated", total, senders*count, bad)
	}
	for s, n := range next {
		if n != count {
			t.Errorf("sender %d: last packet %d, want %d", s, n, count)
		}
	}
	if st := ep.Stats(); st.Cuts == 0 || st.Pauses == 0 {
		t.Errorf("Cuts=%d Pauses=%d: the plan injected nothing", st.Cuts, st.Pauses)
	}
}

// TestFaultRemoteKeepsOnlyPauses checks that a network with a Remote
// transport leaves cuts to the transport — its endpoints deliver every
// packet at once under Cut=1 — and still opens pause windows.
func TestFaultRemoteKeepsOnlyPauses(t *testing.T) {
	wire, _ := newFakePair(2, 8) // side 0 hosts both nodes
	hits := 0
	plan := FaultPlan{Cut: 1, PauseEvery: time.Millisecond, PauseDur: 20 * time.Millisecond}
	nw := newTestNet(t, Config{Nodes: 2, Faults: &plan, Remote: wire}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) { hits++ },
	})
	if nw.Faults() != &plan {
		t.Fatal("Faults() did not return the configured plan")
	}
	ep := nw.Endpoint(1)
	for i := 0; i < 50; i++ {
		nw.Endpoint(0).Send(Packet{Handler: hPing, Dst: 1})
	}
	if ep.PollAll() != 50 || hits != 50 {
		t.Fatalf("handled %d of 50 packets under Cut=1 with a Remote transport", hits)
	}
	if s := ep.Stats(); s.Cuts != 0 || s.Held != 0 {
		t.Errorf("Cuts=%d Held=%d at an endpoint of a Remote network", s.Cuts, s.Held)
	}
	time.Sleep(2 * time.Millisecond) // past the first pause's due time
	if !ep.faults.pausedNow(ep) || ep.Stats().Pauses == 0 {
		t.Error("no pause window opened on a Remote network")
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

// TestBulkRecoversUnderCuts runs FlowOneActive bulk transfers over links
// that keep being cut: requests, grants, segments and fins are held and
// replayed, and every transfer must still complete exactly once.
func TestBulkRecoversUnderCuts(t *testing.T) {
	var got []bulkRecord
	plan := FaultPlan{Cut: 0.3, Seed: 42}
	nw, err := NewNetwork(Config{Nodes: 3, Flow: FlowOneActive, SegWords: 8, InboxCap: 64, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(hBulkDone, func(ep *Endpoint, p Packet) {
		got = append(got, bulkRecord{data: p.Data, tag: p.U0})
	})
	const transfers = 5
	for k := uint64(0); k < transfers; k++ {
		nw.Endpoint(0).BulkSend(1, ramp(100), Packet{Handler: hBulkDone, U0: k})
		nw.Endpoint(2).BulkSend(1, ramp(100), Packet{Handler: hBulkDone, U0: 100 + k})
	}
	pumpUntil(t, nw, func() bool { return len(got) == 2*transfers })
	tags := map[uint64]bool{}
	for _, r := range got {
		checkRamp(t, r.data, 100)
		if tags[r.tag] {
			t.Fatalf("transfer %d completed twice", r.tag)
		}
		tags[r.tag] = true
	}
	var cuts uint64
	for i := 0; i < nw.Nodes(); i++ {
		cuts += nw.Endpoint(NodeID(i)).Stats().Cuts
	}
	if cuts == 0 {
		t.Error("no link was cut")
	}
	if q := nw.Endpoint(1).Stats().BulkQueued; q == 0 {
		t.Error("no request waited for the one-active grant")
	}
}
