package sock

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
)

// The link protocol's tests, below the kernel: bare networks carrying
// numbered word packets, no core.  The first group runs a real
// two-process mesh and bounces it; the second gives one real link a peer
// the test plays by hand, so a connection can be cut at an exact byte.

const hSeq amnet.HandlerID = 9

// seqSide is one process of a two-process mesh whose hosted node checks
// that hSeq packets arrive numbered 1, 2, 3, ….
type seqSide struct {
	tr       *Transport
	nw       *amnet.Network
	ep       *amnet.Endpoint
	src, dst amnet.NodeID
	recvd    atomic.Uint64 // packets that arrived in order
	bad      atomic.Uint64 // packets that did not
}

// startSeqMesh boots a leader and a worker hosting one node each, their
// networks built with faults (nil for none).  With poll set a goroutine
// per side drains its endpoint; without, the test's own sender goroutines
// own the endpoints.
func startSeqMesh(t *testing.T, inboxCap int, poll bool, faults *amnet.FaultPlan) (leader, worker *seqSide) {
	t.Helper()
	m := bootMesh(t, "unix", filepath.Join(t.TempDir(), "hal.sock"), 1, 2, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sides := make([]*seqSide, 2)
	for i := range sides {
		s := &seqSide{tr: m.byIdx(i), src: amnet.NodeID(i), dst: amnet.NodeID(1 - i)}
		nw, err := amnet.NewNetwork(amnet.Config{Nodes: 2, InboxCap: inboxCap, Remote: s.tr, Faults: faults})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		s.nw, s.ep = nw, nw.Endpoint(s.src)
		nw.Register(hSeq, func(_ *amnet.Endpoint, p amnet.Packet) {
			if p.U0 != s.recvd.Load()+1 {
				s.bad.Add(1)
				return
			}
			s.recvd.Add(1)
		})
		if err := nw.StartTransport(); err != nil {
			t.Fatalf("StartTransport: %v", err)
		}
		if poll {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s.ep.RecvBlock(stop, 0) {
				}
			}()
		}
		sides[i] = s
	}
	t.Cleanup(func() {
		for _, s := range sides {
			s.nw.SetInjectDiscard(true)
		}
		close(stop)
		wg.Wait()
	})
	return sides[0], sides[1]
}

// stream offers packets numbered 1..n to the other side, yielding while
// the link refuses.
func (s *seqSide) stream(n uint64) {
	for i := uint64(1); i <= n; i++ {
		for !s.tr.TrySend(amnet.Packet{Handler: hSeq, Src: s.src, Dst: s.dst, U0: i}) {
			runtime.Gosched()
		}
	}
}

// await blocks until the side has received n packets in order.
func (s *seqSide) await(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * bootTimeout)
	for s.recvd.Load() < n && s.bad.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("process %d received %d of %d packets; link %+v, stats %+v",
				s.tr.Self(), s.recvd.Load(), n, s.tr.LinkStates(), s.tr.TransportStats())
		}
		time.Sleep(time.Millisecond)
	}
	if s.bad.Load() != 0 || s.recvd.Load() != n {
		t.Fatalf("process %d: %d packets in order, %d out of order or duplicated, want %d and 0",
			s.tr.Self(), s.recvd.Load(), s.bad.Load(), n)
	}
}

// bounce force-closes tr's connection to peer without marking the link
// down: its reader and writer, and the peer's, hit I/O errors wherever
// they are — mid-frame included — and run the ordinary failure path.
func bounce(tr *Transport, peer int) {
	l := tr.links[peer]
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// bounceBothWays streams n packets each way while a goroutine bounces
// the connection from alternating sides every 2 ms, and requires each
// side to see 1..n exactly once, in order, with nothing dropped.
func bounceBothWays(t *testing.T, n uint64) {
	leader, worker := startSeqMesh(t, 0, true, nil)
	stopChaos := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChaos:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if i%2 == 0 {
				bounce(leader.tr, 1)
			} else {
				bounce(worker.tr, 0)
			}
		}
	}()
	go func() { defer wg.Done(); leader.stream(n) }()
	go func() { defer wg.Done(); worker.stream(n) }()
	leader.await(t, n)
	worker.await(t, n)
	close(stopChaos)
	wg.Wait()
	ls, ws := leader.tr.TransportStats(), worker.tr.TransportStats()
	if ls.WireDropped+ws.WireDropped != 0 {
		t.Errorf("WireDropped: leader %d, worker %d, want 0", ls.WireDropped, ws.WireDropped)
	}
	if ls.Redials == 0 || ws.Redials == 0 {
		t.Errorf("the chaos never bounced the link: redials leader %d, worker %d", ls.Redials, ws.Redials)
	}
	t.Logf("redials %d, replayed %d+%d, dups dropped %d+%d, standalone acks %d+%d",
		ws.Redials, ls.Replayed, ws.Replayed, ls.DupFrames, ws.DupFrames, ls.AckFrames, ws.AckFrames)
}

func TestBounceStreamExactlyOnce(t *testing.T) { bounceBothWays(t, 100_000) }

// TestBounceSequenceWrap runs the bounced stream with both links'
// counters starting just below 2^32, so sequence numbers, acks, the
// window's trim arithmetic and the handshake's last all cross the wrap.
func TestBounceSequenceWrap(t *testing.T) {
	seqBase = math.MaxUint32 - 2000
	t.Cleanup(func() { seqBase = 0 })
	bounceBothWays(t, 10_000)
}

// TestCutStreamExactlyOnce streams 100 k packets each way over a link
// whose FaultPlan cuts the connection on about one frame in twenty: the
// reader drops the frame it drew and the connection with it, before the
// sequence check, and only the redial's replay can bring the frame back.
// Each side must see 1..n exactly once and in order, with nothing
// dropped, and the writer's per-frame path on a link that lived through
// the cuts must still allocate nothing.
func TestCutStreamExactlyOnce(t *testing.T) {
	const n = 100_000
	leader, worker := startSeqMesh(t, 0, true, &amnet.FaultPlan{Cut: 0.05, Seed: 7})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); leader.stream(n) }()
	go func() { defer wg.Done(); worker.stream(n) }()
	leader.await(t, n)
	worker.await(t, n)
	wg.Wait()
	for _, s := range []*seqSide{leader, worker} {
		st := s.tr.TransportStats()
		if st.FaultCuts == 0 || st.Replayed == 0 || st.WireDropped != 0 {
			t.Errorf("process %d: cuts %d replayed %d dropped %d, want cuts and replays and no drop",
				s.tr.Self(), st.FaultCuts, st.Replayed, st.WireDropped)
		}
		t.Logf("process %d: cuts %d, redials %d, replayed %d, dups dropped %d",
			s.tr.Self(), st.FaultCuts, st.Redials, st.Replayed, st.DupFrames)
	}
	leader.tr.Close() // the writer's window is the test's from here on
	if raceEnabled {
		return
	}
	if a := writerAllocs(t, leader.tr.links[1]); a != 0 {
		t.Fatalf("after the cuts the link writer allocates %v times per frame, want 0", a)
	}
}

// TestWindowOneWayStream sends 50 k packets one way with nothing flowing
// back: only standalone acks can trim the sender's window, so the stream
// finishing — with the window inside its cap at every look — shows they
// keep up.
func TestWindowOneWayStream(t *testing.T) {
	const n = 50_000
	leader, worker := startSeqMesh(t, 0, true, nil)
	done := make(chan struct{})
	go func() { defer close(done); leader.stream(n) }()
	peak := uint32(0)
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			runtime.Gosched()
		}
		if u := leader.tr.LinkStates()[0].Unacked; u > peak {
			peak = u
		}
	}
	worker.await(t, n)
	if peak > winFrames {
		t.Errorf("window held %d unacknowledged frames, cap %d", peak, winFrames)
	}
	ws := worker.tr.TransportStats()
	if ws.AckFrames == 0 || ws.AckFrames > n/ackEveryFrames {
		t.Errorf("receiver wrote %d standalone acks for %d one-way frames, want between 1 and %d", ws.AckFrames, n, n/ackEveryFrames)
	}
	if ws.WireSent != ws.AckFrames {
		t.Errorf("receiver wrote %d non-control frames, %d of them acks: something flowed back", ws.WireSent, ws.AckFrames)
	}
	// What stays unacknowledged once the last ack has landed is less than
	// one ack interval; no timer will ever come for it, and none needs to.
	for deadline := time.Now().Add(bootTimeout); ; time.Sleep(time.Millisecond) {
		u := leader.tr.LinkStates()[0].Unacked
		if u < ackEveryFrames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still unacknowledged after the stream, want under %d", u, ackEveryFrames)
		}
	}
}

// TestLinkStateUnderAcks hammers LinkStates while a goroutine plays the
// writer and the reader at once — each frame acknowledged the moment it
// is sent, the tightest an ack can follow — so at no instant is more than
// one frame unacknowledged.  A snapshot that read the send counter before
// the ack counter would report a count near 2^32; one that read them in
// the other order without checking would count the acks that landed in
// between as unacknowledged.
func TestLinkStateUnderAcks(t *testing.T) {
	reg, err := names.NewRegistry(names.SplitSpans(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(reg, 0, 2)
	l := newLink(tr, 1, "", "")
	tr.links[1] = l
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200_000; i++ {
			seq := l.win.next.Load()
			l.win.next.Store(seq + 1)
			l.acked.Store(seq)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if u := tr.LinkStates()[0].Unacked; u > 1 {
			t.Fatalf("LinkStates reported %d unacknowledged frames, at most 1 ever was", u)
		}
	}
}

// TestWindowFullNoDeadlock gives both endpoints a 4-packet inbox and has
// each owner send 30 k packets to the other before it polls for any:
// both outbound queues and both windows fill, both owners end up in
// sendRemote's poll-while-stalled loop, and the only thing that frees a
// window is an ack written by a writer that may take no packets.
func TestWindowFullNoDeadlock(t *testing.T) {
	const n = 30_000
	leader, worker := startSeqMesh(t, 4, false, nil)
	var wg sync.WaitGroup
	for _, s := range []*seqSide{leader, worker} {
		wg.Add(1)
		go func(s *seqSide) {
			defer wg.Done()
			for i := uint64(1); i <= n; i++ {
				s.ep.Send(amnet.Packet{Handler: hSeq, Dst: s.dst, U0: i})
			}
			for s.recvd.Load() < n && s.bad.Load() == 0 {
				if s.ep.PollAll() == 0 {
					runtime.Gosched()
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * bootTimeout):
		t.Fatalf("deadlock: leader %d/%d link %+v, worker %d/%d link %+v", leader.recvd.Load(), n,
			leader.tr.LinkStates(), worker.recvd.Load(), n, worker.tr.LinkStates())
	}
	leader.await(t, n)
	worker.await(t, n)
	if a := leader.tr.TransportStats().AckFrames + worker.tr.TransportStats().AckFrames; a == 0 {
		t.Error("no standalone ack was ever written: the windows never filled")
	}
}

// --- one real link, the peer played by hand ------------------------------

// lonePeer is process 0 of a two-process machine with its link to
// process 1 and nothing on the other end until the test connects one.
type lonePeer struct {
	tr  *Transport
	l   *link
	got chan amnet.Packet
	lis net.Listener
}

func newLonePeer(t *testing.T) *lonePeer {
	t.Helper()
	reg, err := names.NewRegistry(names.SplitSpans(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := &lonePeer{tr: newTransport(reg, 0, 2), got: make(chan amnet.Packet, 64)}
	p.l = newLink(p.tr, 1, "", "")
	p.tr.links[1] = p.l
	p.lis, err = net.Listen("unix", filepath.Join(t.TempDir(), "lone.sock"))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := amnet.NewNetwork(amnet.Config{Nodes: 2, Remote: p.tr})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(hEcho, func(_ *amnet.Endpoint, pkt amnet.Packet) {
		select {
		case p.got <- pkt: // these tests deliver a handful of packets; got holds 64
		default:
		}
	})
	if err := nw.StartTransport(); err != nil {
		t.Fatal(err)
	}
	p.tr.writers.Add(1)
	go p.l.writeLoop()
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for nw.Endpoint(0).RecvBlock(stop, 0) {
		}
	}()
	t.Cleanup(func() {
		nw.SetInjectDiscard(true)
		close(stop)
		<-polled
		p.tr.Close()
		p.lis.Close()
	})
	return p
}

// farEnd is the test's end of a connection to a lonePeer.
type farEnd struct {
	conn net.Conn
	br   *bufio.Reader
}

// connect gives the link a fresh connection, as a redial would, telling
// it the peer has delivered everything up to peerLast.
func (p *lonePeer) connect(t *testing.T, peerLast uint32) *farEnd {
	t.Helper()
	far, err := net.Dial("unix", p.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near, err := p.lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	far.SetDeadline(time.Now().Add(bootTimeout))
	t.Cleanup(func() { far.Close() })
	p.l.install(near, peerLast)
	return &farEnd{conn: far, br: bufio.NewReader(far)}
}

// readPacket returns the next packet frame, skipping standalone acks.
func (f *farEnd) readPacket(t *testing.T) (frameHead, amnet.Packet) {
	t.Helper()
	for {
		h, body, _, err := readFrame(f.br, nil)
		if err != nil {
			t.Fatalf("reading the link's output: %v", err)
		}
		if h.kind == frAck {
			continue
		}
		if h.kind != frPacket {
			t.Fatalf("frame kind %d, want a packet", h.kind)
		}
		pkt, _, err := parsePacketBody(body)
		if err != nil {
			t.Fatal(err)
		}
		return h, pkt
	}
}

// packetFrame encodes a stamped hEcho packet frame for node 0.
func packetFrame(t *testing.T, seq, ack uint32, u0 uint64, words int) []byte {
	t.Helper()
	pkt := amnet.Packet{Handler: hEcho, Src: 1, Dst: 0, U0: u0, Data: make([]float64, words)}
	fr, err := appendPacketFrame(nil, &pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	stampLink(fr, seq, ack)
	return fr
}

func (f *farEnd) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := f.conn.Write(b); err != nil {
		t.Fatalf("writing to the link: %v", err)
	}
}

func (p *lonePeer) expect(t *testing.T, u0 ...uint64) {
	t.Helper()
	for _, want := range u0 {
		select {
		case pkt := <-p.got:
			if pkt.U0 != want {
				t.Fatalf("delivered U0 %d, want %d", pkt.U0, want)
			}
		case <-time.After(bootTimeout):
			t.Fatalf("U0 %d was never delivered", want)
		}
	}
}

func (p *lonePeer) awaitDown(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(bootTimeout); p.l.state().Up; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the link never noticed its connection die")
		}
	}
}

// TestReplayInboundFrameCutMidBody cuts the connection halfway through a
// frame's body.  The reader must not deliver the fragment, must report
// the frame before it as its last, and after the peer replays from there
// — one frame too far back, as a peer acting on a stale hello would —
// must deliver every packet once, in order.
func TestReplayInboundFrameCutMidBody(t *testing.T) {
	p := newLonePeer(t)
	far := p.connect(t, seqBase)
	far.write(t, packetFrame(t, seqBase+1, seqBase, 1, 0))
	far.write(t, packetFrame(t, seqBase+2, seqBase, 2, 0))
	third := packetFrame(t, seqBase+3, seqBase, 3, 64)
	far.write(t, third[:len(third)/2])
	p.expect(t, 1, 2)
	far.conn.Close()
	p.awaitDown(t)
	if got := p.l.delivered(); got != seqBase+2 {
		t.Fatalf("the link reports last = %d after the cut, want %d", got, seqBase+2)
	}

	far = p.connect(t, seqBase)
	far.write(t, packetFrame(t, seqBase+2, seqBase, 2, 0)) // already delivered
	far.write(t, third)
	far.write(t, packetFrame(t, seqBase+4, seqBase, 4, 0))
	p.expect(t, 3, 4)
	select {
	case pkt := <-p.got:
		t.Fatalf("extra delivery: U0 %d", pkt.U0)
	case <-time.After(20 * time.Millisecond):
	}
	if st := p.tr.TransportStats(); st.DupFrames != 1 || st.WireRecvd != 4 {
		t.Errorf("DupFrames %d WireRecvd %d, want 1 and 4", st.DupFrames, st.WireRecvd)
	}

	// A gap is a broken connection, not a reordering to repair.
	far.write(t, packetFrame(t, seqBase+6, seqBase, 6, 0))
	p.awaitDown(t)
	if got := p.l.delivered(); got != seqBase+4 {
		t.Fatalf("last = %d after a gap, want %d", got, seqBase+4)
	}
}

// TestReplayOutboundFrameCutMidBody is the other direction: the peer
// stops reading in the middle of the link's second frame and hangs up.
// On the next connection, told the peer has the first, the writer must
// replay the second and third whole, under their original sequence
// numbers, before anything new.
func TestReplayOutboundFrameCutMidBody(t *testing.T) {
	p := newLonePeer(t)
	far := p.connect(t, seqBase)
	for i := uint64(1); i <= 3; i++ {
		pkt := amnet.Packet{Handler: hEcho, Dst: 1, U0: i, Data: make([]float64, 512)}
		if !p.tr.TrySend(pkt) {
			t.Fatalf("TrySend %d refused", i)
		}
	}
	if h, pkt := far.readPacket(t); h.seq != seqBase+1 || pkt.U0 != 1 {
		t.Fatalf("first frame: seq %d U0 %d", h.seq, pkt.U0)
	}
	if _, err := io.ReadFull(far.br, make([]byte, 1000)); err != nil { // into the second frame's body
		t.Fatal(err)
	}
	far.conn.Close()
	p.awaitDown(t)
	if !p.tr.TrySend(amnet.Packet{Handler: hEcho, Dst: 1, U0: 4}) {
		t.Fatal("TrySend refused while the link was down")
	}

	far = p.connect(t, seqBase+1)
	for i := uint64(2); i <= 4; i++ {
		h, pkt := far.readPacket(t)
		if h.seq != seqBase+uint32(i) || pkt.U0 != i || (i < 4 && len(pkt.Data) != 512) {
			t.Fatalf("after the redial, frame %d: seq %d U0 %d with %d data words", i, h.seq, pkt.U0, len(pkt.Data))
		}
	}
	// The fourth counts as replayed too when the writer had it in the
	// window before its write found the connection closed.  The writer
	// counts a replay after flushing it, so the frames can be read here
	// before the counter lands.
	for deadline := time.Now().Add(bootTimeout); p.tr.TransportStats().Replayed < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the replay was never counted: %+v", p.tr.TransportStats())
		}
	}
	if st := p.tr.TransportStats(); st.Replayed > 3 || st.WireDropped != 0 {
		t.Errorf("Replayed %d WireDropped %d, want 2 or 3 and 0", st.Replayed, st.WireDropped)
	}
	// An ack for all four empties the window.
	far.write(t, appendAckFrame(nil, seqBase+4))
	for deadline := time.Now().Add(bootTimeout); p.l.acked.Load() != seqBase+4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the ack never registered: link %+v", p.l.state())
		}
	}
	if s := p.l.state(); s.Unacked != 0 || s.SentSeq != seqBase+4 {
		t.Errorf("link state after the ack: %+v", s)
	}
}

// TestWindowTrimCompact drives the window alone: trims by cumulative
// ack, stale and overshooting acks, compaction keeping the bytes of the
// frames that remain, and all of it across the sequence wrap.
func TestWindowTrimCompact(t *testing.T) {
	for _, base := range []uint32{0, math.MaxUint32 - 3} {
		var w window
		w.next.Store(base + 1)
		add := func(u0 uint64) {
			w.compact()
			start := len(w.buf)
			pkt := amnet.Packet{U0: u0}
			w.buf, _ = appendPacketFrame(w.buf, &pkt, nil)
			w.retain(start, 0)
		}
		firstU0 := func() uint64 {
			_, body, _, err := readFrame(bytes.NewReader(w.buf[w.head:]), nil)
			if err != nil {
				t.Fatal(err)
			}
			pkt, _, _ := parsePacketBody(body)
			return pkt.U0
		}
		for i := uint64(1); i <= 8; i++ {
			add(i)
		}
		if n := w.trim(base); n != 0 || w.count != 8 {
			t.Fatalf("base %d: stale ack trimmed %d", base, n)
		}
		if n := w.trim(base + 5); n != 5 || w.count != 3 || firstU0() != 6 {
			t.Fatalf("base %d: trim to 5 dropped %d, %d left, first U0 %d", base, n, w.count, firstU0())
		}
		if n := w.trim(base + 2); n != 0 {
			t.Fatalf("base %d: an older ack trimmed %d more", base, n)
		}
		add(9) // compacts: five dead frames ahead of three live
		if w.head != 0 || w.count != 4 || firstU0() != 6 {
			t.Fatalf("base %d: after compaction head %d count %d first U0 %d", base, w.head, w.count, firstU0())
		}
		if n := w.trim(base + 100); n != 4 || w.count != 0 || len(w.buf) != 0 {
			t.Fatalf("base %d: overshooting ack trimmed %d, %d left, %d bytes", base, n, w.count, len(w.buf))
		}
		if got := w.next.Load(); got != base+10 {
			t.Fatalf("base %d: next = %d, want %d", base, got, base+10)
		}
	}
}

// TestAllocLinkWriterSteadyState guards the writer's per-frame path —
// encode into the window, stamp, retain, write, trim once acknowledged —
// at zero allocations amortised.
func TestAllocLinkWriterSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	reg, err := names.NewRegistry(names.SplitSpans(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a := writerAllocs(t, newLink(newTransport(reg, 0, 2), 1, "", "")); a != 0 {
		t.Fatalf("the link writer allocates %v times per frame, want 0", a)
	}
}

// writerAllocs drives l's writer path by hand, the peer acknowledging
// every eighth frame, and returns its allocations per frame once the
// window and the write buffer have grown to their working size.  Nothing
// else may be using l's writer half.
func writerAllocs(t *testing.T, l *link) float64 {
	t.Helper()
	bw := bufio.NewWriter(io.Discard)
	f := amnet.Packet{Handler: hEcho, Dst: 1, U0: 7, Data: make([]float64, 8)}
	send := func() {
		w := &l.win
		w.compact()
		start := len(w.buf)
		var err error
		if w.buf, err = l.encode(w.buf, &f); err != nil {
			t.Fatal(err)
		}
		if err := l.write(bw, start); err != nil {
			t.Fatal(err)
		}
		if seq := w.next.Load() - 1; seq%8 == 0 {
			w.trim(seq)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	return testing.AllocsPerRun(1000, send)
}

// TestAllocControlSteadyState guards the control lane the way
// TestAllocLinkWriterSteadyState guards the packet writer: a control
// message's SendControl, write, read and delivery to the OnControl
// receiver, on a real two-process mesh, allocate nothing once warm.
func TestAllocControlSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := bootMesh(t, "unix", filepath.Join(t.TempDir(), "hal.sock"), 1, 2, nil)
	var sent atomic.Uint64
	recvd := make(chan bool, 1)
	for slot, tr := range m.ts {
		tr.OnControl(func(peer int, kind uint8, body []byte) {
			recvd <- kind == 0x21 && len(body) == 8 && binary.LittleEndian.Uint64(body) == sent.Load()
		})
		startWireNode(t, tr, m.regs[slot], 2)
	}
	leader := m.byIdx(0)
	body := make([]byte, 8) // reused: SendControl copies it
	send := func() {
		binary.LittleEndian.PutUint64(body, sent.Add(1))
		if err := leader.SendControl(1, 0x21, body); err != nil {
			t.Fatal(err)
		}
		// Block rather than spin: AllocsPerRun runs on one P, where a
		// spinning goroutine keeps the scheduler from polling the socket.
		if !<-recvd {
			t.Fatal("the receiver got another message than was sent")
		}
	}
	for i := 0; i < 200; i++ {
		send()
	}
	if a := testing.AllocsPerRun(1000, send); a != 0 {
		t.Fatalf("a control message allocates %v times end to end, want 0", a)
	}
}
