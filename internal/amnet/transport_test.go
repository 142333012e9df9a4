package amnet

import (
	"sync"
	"testing"
	"time"
)

// fakeWire is a test Transport splitting a node set between two Networks
// in one process: indexes below split live on side 0, the rest on side 1.
// Packets cross through a bounded queue drained by a deliverer goroutine
// (so TrySend never blocks and a full queue exercises the sender's
// poll-while-stalled retry), control messages invoke the peer's callback
// inline.
type fakeWire struct {
	self  int
	split NodeID
	peer  *fakeWire

	q     chan Packet
	nw    *Network
	onCtl func(peer int, kind uint8, body []byte)

	started chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup

	mu   sync.Mutex
	ctls []uint8
}

func newFakePair(split NodeID, qcap int) (*fakeWire, *fakeWire) {
	a := &fakeWire{self: 0, split: split, q: make(chan Packet, qcap),
		started: make(chan struct{}), stop: make(chan struct{})}
	b := &fakeWire{self: 1, split: split, q: make(chan Packet, qcap),
		started: make(chan struct{}), stop: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (f *fakeWire) Self() int  { return f.self }
func (f *fakeWire) Procs() int { return 2 }

func (f *fakeWire) Resident(id NodeID) bool {
	if f.self == 0 {
		return id < f.split
	}
	return id >= f.split
}

func (f *fakeWire) TrySend(p Packet) bool {
	select {
	case f.peer.q <- p:
		return true
	default:
		return false
	}
}

func (f *fakeWire) SendControl(peer int, kind uint8, body []byte) error {
	f.peer.mu.Lock()
	f.peer.ctls = append(f.peer.ctls, kind)
	fn := f.peer.onCtl
	f.peer.mu.Unlock()
	if fn != nil {
		fn(f.self, kind, body)
	}
	return nil
}

func (f *fakeWire) OnControl(fn func(peer int, kind uint8, body []byte)) {
	f.mu.Lock()
	f.onCtl = fn
	f.mu.Unlock()
}

func (f *fakeWire) SetPayloadCodec(c PayloadCodec) {}

func (f *fakeWire) Start(nw *Network) error {
	f.nw = nw
	close(f.started)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case p := <-f.q:
				f.nw.Endpoint(p.Dst).Inject(p, f.stop)
			case <-f.stop:
				return
			}
		}
	}()
	return nil
}

func (f *fakeWire) TransportStats() TransportStats { return TransportStats{} }
func (f *fakeWire) LinkStates() []LinkState        { return nil }

func (f *fakeWire) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.wg.Wait()
	return nil
}

// TestRemoteSeamRoutesBySplit drives the kernel-side transport seam with
// the fake wire: sends to non-resident nodes leave through the
// transport, arrive via Inject, and the remote-routing predicates agree
// with the registry split — all without a socket in sight.
func TestRemoteSeamRoutesBySplit(t *testing.T) {
	const nodes, split = 4, 2
	wa, wb := newFakePair(split, 64)
	mk := func(w *fakeWire) *Network {
		nw, err := NewNetwork(Config{Nodes: nodes, Remote: w})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	na, nb := mk(wa), mk(wb)
	if na.remote != Transport(wa) || nb.remote != Transport(wb) {
		t.Fatal("the network does not hold the configured transport")
	}
	for i := NodeID(0); i < nodes; i++ {
		if got, want := na.IsRemote(i), i >= split; got != want {
			t.Errorf("side a IsRemote(%d) = %v, want %v", i, got, want)
		}
		if got, want := nb.IsRemote(i), i < split; got != want {
			t.Errorf("side b IsRemote(%d) = %v, want %v", i, got, want)
		}
	}

	const h HandlerID = 9
	gota := make(chan Packet, 16)
	gotb := make(chan Packet, 16)
	na.Register(h, func(ep *Endpoint, p Packet) {
		select {
		case gota <- p:
		default:
		}
	})
	nb.Register(h, func(ep *Endpoint, p Packet) {
		select {
		case gotb <- p:
		default:
		}
	})
	if err := na.StartTransport(); err != nil {
		t.Fatal(err)
	}
	if err := nb.StartTransport(); err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	defer wb.Close()

	// A resident send stays on the ring (the fake wire sees nothing)...
	na.Endpoint(0).Send(Packet{Handler: h, Dst: 1})
	if n := na.Endpoint(1).PollAll(); n != 1 {
		t.Fatalf("resident send handled %d packets, want 1", n)
	}
	<-gota
	if len(wb.q) != 0 {
		t.Fatal("a resident send leaked onto the wire")
	}
	// ...and a non-resident send crosses to the peer network.
	na.Endpoint(0).Send(Packet{Handler: h, Dst: 3, U0: 41})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("remote packet never arrived")
		default:
		}
		if nb.Endpoint(3).PollAll() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p := <-gotb; p.U0 != 41 || p.Src != 0 {
		t.Fatalf("remote packet = %+v, want Src 0 U0 41", p)
	}

	// The other direction takes the same seam.
	nb.Endpoint(3).Send(Packet{Handler: h, Dst: 0, U0: 42})
	for {
		select {
		case <-deadline:
			t.Fatal("returning remote packet never arrived")
		default:
		}
		if na.Endpoint(0).PollAll() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p := <-gota; p.U0 != 42 {
		t.Fatalf("returning remote packet = %+v, want U0 42", p)
	}
}

// TestSendRemoteStallsAndRecovers fills the transport's outbound queue
// so inject runs its poll-while-stalled retry loop: the sender keeps
// draining its own inbox while the wire refuses, and every packet still
// crosses once the deliverer catches up.
func TestSendRemoteStallsAndRecovers(t *testing.T) {
	const nodes, split = 2, 1
	wa, wb := newFakePair(split, 2) // tiny wire queue: refusals guaranteed
	na, err := NewNetwork(Config{Nodes: nodes, Remote: wa})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNetwork(Config{Nodes: nodes, Remote: wb})
	if err != nil {
		t.Fatal(err)
	}
	const h HandlerID = 9
	recvd := make(chan uint64, 256)
	na.Register(h, func(ep *Endpoint, p Packet) {})
	nb.Register(h, func(ep *Endpoint, p Packet) {
		// recvd's capacity exceeds the burst, so the drop arm never runs.
		select {
		case recvd <- p.U0:
		default:
		}
	})
	if err := na.StartTransport(); err != nil {
		t.Fatal(err)
	}
	// Side b's deliverer is NOT started yet: the 2-slot queue fills and
	// side a's sender must stall without deadlocking.
	const burst = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep := na.Endpoint(0)
		for i := 0; i < burst; i++ {
			ep.Send(Packet{Handler: h, Dst: 1, U0: uint64(i)})
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the sender hit the full queue
	if err := nb.StartTransport(); err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	defer wb.Close()
	seen := make(map[uint64]bool)
	deadline := time.After(10 * time.Second)
	for len(seen) < burst {
		nb.Endpoint(1).PollAll()
		select {
		case u := <-recvd:
			seen[u] = true
		case <-deadline:
			t.Fatalf("only %d/%d packets crossed a stalled wire", len(seen), burst)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never unstalled")
	}
	if sa := na.Endpoint(0).Stats(); sa.SendStalls == 0 {
		t.Error("a 2-slot wire under a 64-packet burst should record SendStalls")
	}
}

// TestSendRemoteGivesUpWhenDiscarding is the other way out of the stall
// loop: a transport may hold packets for a peer that never comes back
// (a socket link that is down queues, and refuses when full), so once
// the machine is shutting down a stalled sender drops its packet and
// returns instead of polling forever.
func TestSendRemoteGivesUpWhenDiscarding(t *testing.T) {
	wa, _ := newFakePair(1, 2) // nobody ever drains the 2-slot wire
	na, err := NewNetwork(Config{Nodes: 2, Remote: wa})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			na.Endpoint(0).Send(Packet{Handler: 9, Dst: 1})
		}
	}()
	select {
	case <-done:
		t.Fatal("8 sends fit a 2-slot wire")
	case <-time.After(10 * time.Millisecond):
	}
	na.SetInjectDiscard(true)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a stalled sender outlived the machine's shutdown")
	}
}

// TestInjectDiscard pins the shutdown contract: once the network is
// discarding, Inject reports false and delivers nothing, so transport
// readers unwind instead of wedging peer writers.
func TestInjectDiscard(t *testing.T) {
	nw, err := NewNetwork(Config{Nodes: 1, InboxCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	const h HandlerID = 9
	nw.Register(h, func(ep *Endpoint, p Packet) {})
	stop := make(chan struct{})
	if !nw.Endpoint(0).Inject(Packet{Handler: h, Dst: 0}, stop) {
		t.Fatal("Inject refused on a live network")
	}
	nw.SetInjectDiscard(true)
	if nw.Endpoint(0).Inject(Packet{Handler: h, Dst: 0}, stop) {
		t.Fatal("Inject accepted a packet while discarding")
	}
	nw.SetInjectDiscard(false)
	if !nw.Endpoint(0).Inject(Packet{Handler: h, Dst: 0}, stop) {
		t.Fatal("Inject refused after discard lifted")
	}
	if n := nw.Endpoint(0).PollAll(); n != 2 {
		t.Fatalf("PollAll handled %d packets, want the 2 accepted", n)
	}
}

// TestInjectBlocksOnFullInboxUntilDrained covers Inject's wait path: a
// full inbox parks the injector, and the consumer's drain releases it.
func TestInjectBlocksOnFullInboxUntilDrained(t *testing.T) {
	nw, err := NewNetwork(Config{Nodes: 1, InboxCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	const h HandlerID = 9
	handled := 0
	nw.Register(h, func(ep *Endpoint, p Packet) { handled++ })
	ep := nw.Endpoint(0)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		if !ep.Inject(Packet{Handler: h, Dst: 0}, stop) {
			t.Fatalf("Inject %d refused below capacity", i)
		}
	}
	unblocked := make(chan bool, 1)
	go func() { unblocked <- ep.Inject(Packet{Handler: h, Dst: 0}, stop) }()
	select {
	case <-unblocked:
		t.Fatal("Inject did not block on a full inbox")
	case <-time.After(20 * time.Millisecond):
	}
	if ep.PollAll() != 4 {
		t.Fatal("drain did not hand back the 4 queued packets")
	}
	select {
	case ok := <-unblocked:
		if !ok {
			t.Fatal("unblocked Inject reported failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Inject stayed parked after the inbox drained")
	}
	if ep.PollAll() != 1 {
		t.Fatal("the late packet never arrived")
	}

	// A blocked Inject also unwinds on stop, reporting the drop.
	for ep.Inject(Packet{Handler: h, Dst: 0}, stop) && ep.Pending() < 4 {
	}
	go func() { unblocked <- ep.Inject(Packet{Handler: h, Dst: 0}, stop) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("Inject claimed delivery after stop closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Inject ignored stop")
	}
}
