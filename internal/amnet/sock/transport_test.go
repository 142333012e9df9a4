package sock

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
)

// bootTimeout bounds mesh boot and every cross-process wait in these
// tests; well under the 60s handshake timeout so a wedge fails fast.
const bootTimeout = 20 * time.Second

// mesh is one booted in-process process mesh: index 0 is the leader.
type mesh struct {
	ts    []*Transport
	regs  []*names.Registry
	blobs [][]byte // by transport slot; blobs[0] is the leader's (nil)
}

func (m *mesh) close() {
	for _, t := range m.ts {
		if t != nil {
			t.Close()
		}
	}
}

// byIdx returns the transport with process index idx (Join assigns
// indexes by arrival order, so slot order and index order can differ).
func (m *mesh) byIdx(idx int) *Transport {
	for _, t := range m.ts {
		if t != nil && t.Self() == idx {
			return t
		}
	}
	return nil
}

// slotOf returns the boot slot holding tr (for reaching its registry).
func (m *mesh) slotOf(tr *Transport) int {
	for i, t := range m.ts {
		if t == tr {
			return i
		}
	}
	return -1
}

// bootMesh boots a leader and `workers` joiners concurrently over the
// given socket family, all inside this test process.
func bootMesh(t *testing.T, network, addr string, workers, nodes int, blob []byte) *mesh {
	t.Helper()
	m := &mesh{
		ts:    make([]*Transport, workers+1),
		regs:  make([]*names.Registry, workers+1),
		blobs: make([][]byte, workers+1),
	}
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		m.ts[0], m.regs[0], errs[0] = Listen(LeaderConfig{
			Network: network, Addr: addr, Workers: workers, Nodes: nodes, Blob: blob,
		})
	}()
	for w := 1; w <= workers; w++ {
		go func(w int) {
			defer wg.Done()
			m.ts[w], m.regs[w], m.blobs[w], errs[w] = Join(network, addr)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(bootTimeout):
		t.Fatalf("mesh boot did not complete within %v", bootTimeout)
	}
	for i, err := range errs {
		if err != nil {
			m.close()
			t.Fatalf("boot process slot %d: %v", i, err)
		}
	}
	t.Cleanup(m.close)
	return m
}

func TestMeshBootAssignsSpansAndBlob(t *testing.T) {
	const workers, nodes = 2, 7
	blob := []byte("machine-spec")
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, workers, nodes, blob)

	procs := workers + 1
	seen := make(map[int]bool)
	for _, tr := range m.ts {
		if got := tr.Procs(); got != procs {
			t.Errorf("Procs() = %d, want %d", got, procs)
		}
		if idx := tr.Self(); idx < 0 || idx >= procs || seen[idx] {
			t.Errorf("Self() = %d: out of range or duplicated", idx)
		} else {
			seen[idx] = true
		}
	}
	if m.ts[0].Self() != 0 {
		t.Errorf("leader Self() = %d, want 0", m.ts[0].Self())
	}
	for w := 1; w <= workers; w++ {
		if !bytes.Equal(m.blobs[w], blob) {
			t.Errorf("worker %d blob = %q, want %q", w, m.blobs[w], blob)
		}
	}
	// Every process agrees on the layout, and residency matches it:
	// node i is resident exactly on the process whose span holds i.
	for slot, tr := range m.ts {
		reg := m.regs[slot]
		for i := 0; i < nodes; i++ {
			id := amnet.NodeID(i)
			owner := m.regs[0].Owner(id)
			if got := reg.Owner(id); got != owner {
				t.Fatalf("slot %d: Owner(%d) = %d, leader says %d", slot, i, got, owner)
			}
			if got, want := tr.Resident(id), owner == tr.Self(); got != want {
				t.Errorf("proc %d: Resident(%d) = %v, want %v", tr.Self(), i, got, want)
			}
		}
	}
}

func TestListenRejectsBadShapes(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "hal.sock")
	if _, _, err := Listen(LeaderConfig{Network: "unix", Addr: addr, Workers: 0, Nodes: 4}); err == nil {
		t.Error("Listen accepted 0 workers")
	}
	if _, _, err := Listen(LeaderConfig{Network: "unix", Addr: addr, Workers: 3, Nodes: 2}); err == nil {
		t.Error("Listen accepted fewer nodes than processes")
	}
}

// testCodec moves string payloads as raw bytes.
type testCodec struct{}

func (testCodec) AppendPayload(buf []byte, p *amnet.Packet) ([]byte, error) {
	s, ok := p.Payload.(string)
	if !ok {
		return buf, fmt.Errorf("testCodec: unexpected payload %T", p.Payload)
	}
	return append(buf, s...), nil
}

func (testCodec) DecodePayload(b []byte) (any, error) { return string(b), nil }

const hEcho amnet.HandlerID = 7

// wireNode is one process's kernel stand-in: a network attached to the
// transport plus a poller goroutine driving the endpoints this process
// hosts, delivering handled packets to got.
type wireNode struct {
	nw   *amnet.Network
	got  chan amnet.Packet
	stop chan struct{}
	wg   sync.WaitGroup
}

func startWireNode(t *testing.T, tr *Transport, reg *names.Registry, nodes int) *wireNode {
	t.Helper()
	n := &wireNode{got: make(chan amnet.Packet, 64), stop: make(chan struct{})}
	tr.SetPayloadCodec(testCodec{})
	nw, err := amnet.NewNetwork(amnet.Config{Nodes: nodes, Remote: tr})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	n.nw = nw
	nw.Register(hEcho, func(ep *amnet.Endpoint, p amnet.Packet) {
		select {
		case n.got <- p:
		default:
		}
	})
	if err := nw.StartTransport(); err != nil {
		t.Fatalf("StartTransport: %v", err)
	}
	lo, hi := reg.SpanOf(tr.Self())
	for id := lo; id < hi; id++ {
		ep := nw.Endpoint(id)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for ep.RecvBlock(n.stop, 0) {
			}
		}()
	}
	t.Cleanup(func() {
		nw.SetInjectDiscard(true)
		close(n.stop)
		n.wg.Wait()
	})
	return n
}

func recvPacket(t *testing.T, n *wireNode) amnet.Packet {
	t.Helper()
	select {
	case p := <-n.got:
		return p
	case <-time.After(bootTimeout):
		t.Fatalf("no packet delivered within %v", bootTimeout)
		return amnet.Packet{}
	}
}

func TestPacketsCrossTheMesh(t *testing.T) {
	const nodes = 4
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 1, nodes, nil)
	leader, worker := m.byIdx(0), m.byIdx(1)
	ln := startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes)

	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)

	// Leader -> worker, with data words and a coded payload.
	sent := amnet.Packet{
		Handler: hEcho, Src: llo, Dst: wlo,
		U0: 0xdead, U1: 1, U2: 2, U3: 3,
		VT: 12.5, Seq: 9,
		Payload: "ping",
		Data:    []float64{1, 2.5, -3},
	}
	if !leader.TrySend(sent) {
		t.Fatal("TrySend refused with an empty queue")
	}
	got := recvPacket(t, wn)
	if got.Handler != sent.Handler || got.Src != sent.Src || got.Dst != sent.Dst ||
		got.U0 != sent.U0 || got.VT != sent.VT || got.Seq != sent.Seq {
		t.Fatalf("delivered packet %+v, sent %+v", got, sent)
	}
	if s, ok := got.Payload.(string); !ok || s != "ping" {
		t.Fatalf("payload = %#v, want \"ping\"", got.Payload)
	}
	if len(got.Data) != 3 || got.Data[1] != 2.5 {
		t.Fatalf("data = %v, want [1 2.5 -3]", got.Data)
	}

	// Worker -> leader.
	if !worker.TrySend(amnet.Packet{Handler: hEcho, Src: wlo, Dst: llo, U0: 77}) {
		t.Fatal("worker TrySend refused")
	}
	if got := recvPacket(t, ln); got.U0 != 77 {
		t.Fatalf("worker packet U0 = %d, want 77", got.U0)
	}

	// A reader counts a packet after Inject delivered it, so recvPacket
	// can return before the counter lands.
	for deadline := time.Now().Add(bootTimeout); leader.TransportStats().WireRecvd < 1 || worker.TransportStats().WireRecvd < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("received packets never counted: leader %+v, worker %+v", leader.TransportStats(), worker.TransportStats())
		}
	}
	ls, ws := leader.TransportStats(), worker.TransportStats()
	if ls.WireSent < 1 || ws.WireSent < 1 {
		t.Errorf("stats did not count traffic: leader %+v, worker %+v", ls, ws)
	}
	if ls.WireBytesOut == 0 || ls.WireBytesIn == 0 {
		t.Errorf("byte counters stayed zero: %+v", ls)
	}
}

type ctlMsg struct {
	peer int
	kind uint8
	body string
}

func TestControlPlane(t *testing.T) {
	const nodes = 6
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 2, nodes, nil)

	chans := make(map[int]chan ctlMsg)
	for slot, tr := range m.ts {
		c := make(chan ctlMsg, 16)
		chans[tr.Self()] = c
		tr.OnControl(func(peer int, kind uint8, body []byte) {
			c <- ctlMsg{peer, kind, string(body)}
		})
		startWireNode(t, tr, m.regs[slot], nodes)
	}
	leader := m.byIdx(0)

	recv := func(idx int) ctlMsg {
		t.Helper()
		select {
		case msg := <-chans[idx]:
			return msg
		case <-time.After(bootTimeout):
			t.Fatalf("process %d: no control message within %v", idx, bootTimeout)
			return ctlMsg{}
		}
	}

	// Directed: leader -> each worker.
	for idx := 1; idx <= 2; idx++ {
		body := fmt.Sprintf("to-%d", idx)
		if err := leader.SendControl(idx, 0x21, []byte(body)); err != nil {
			t.Fatalf("SendControl(%d): %v", idx, err)
		}
		if msg := recv(idx); msg.peer != 0 || msg.kind != 0x21 || msg.body != body {
			t.Fatalf("worker %d got %+v", idx, msg)
		}
	}
	// Broadcast from a worker reaches the leader and the other worker.
	if err := m.byIdx(1).SendControl(-1, 0x22, []byte("all")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for _, idx := range []int{0, 2} {
		if msg := recv(idx); msg.peer != 1 || msg.kind != 0x22 || msg.body != "all" {
			t.Fatalf("process %d got %+v", idx, msg)
		}
	}

	// The transport-internal kind range is fenced off.
	if err := leader.SendControl(1, kHello, nil); err == nil {
		t.Error("SendControl accepted a transport-internal kind")
	}
	// No link to self or to an out-of-range peer.
	if err := leader.SendControl(0, 0x23, nil); err == nil {
		t.Error("SendControl accepted the sender's own index")
	}
	if err := leader.SendControl(99, 0x23, nil); err == nil {
		t.Error("SendControl accepted an out-of-range peer")
	}
}

func TestBounceRedialsAndRecovers(t *testing.T) {
	const nodes = 4
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 1, nodes, nil)
	leader, worker := m.byIdx(0), m.byIdx(1)
	ln := startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes)

	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)

	// Kill the pair's connection mid-mesh several times; each time the
	// worker (the dialing side) must re-establish it, and a packet offered
	// once — whether it lands before, during or after the redial — must
	// arrive once, in both directions.
	for round := 0; round < 3; round++ {
		before := worker.TransportStats().Redials
		leader.Bounce(1)
		marker := uint64(1000 + round)
		if !leader.TrySend(amnet.Packet{Handler: hEcho, Src: llo, Dst: wlo, U0: marker}) ||
			!worker.TrySend(amnet.Packet{Handler: hEcho, Src: wlo, Dst: llo, U0: marker}) {
			t.Fatalf("round %d: TrySend refused with a near-empty queue", round)
		}
		if p := recvPacket(t, wn); p.U0 != marker {
			t.Fatalf("round %d: worker got U0 %d, want %d", round, p.U0, marker)
		}
		if p := recvPacket(t, ln); p.U0 != marker {
			t.Fatalf("round %d: leader got U0 %d, want %d", round, p.U0, marker)
		}
		deadline := time.Now().Add(bootTimeout)
		for worker.TransportStats().Redials == before {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: link never redialed", round)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if d := leader.TransportStats().WireDropped + worker.TransportStats().WireDropped; d != 0 {
		t.Errorf("WireDropped = %d across the bounces, want 0", d)
	}
}

// freeTCPAddr reserves a loopback port and releases it, returning an
// address the leader can listen on and workers can dial (Join needs the
// literal address, so listening on :0 would leave workers nothing to
// dial).
func freeTCPAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving a port: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func TestTCPMesh(t *testing.T) {
	const nodes = 4
	m := bootMesh(t, "tcp", freeTCPAddr(t), 1, nodes, []byte("tcp"))
	leader, worker := m.byIdx(0), m.byIdx(1)
	if leader == nil || worker == nil {
		t.Fatal("mesh missing a process")
	}
	if !bytes.Equal(m.blobs[m.slotOf(worker)], []byte("tcp")) {
		t.Fatalf("blob did not survive the tcp handshake: %q", m.blobs)
	}
	// One packet each way proves the tcp links carry traffic.
	ln := startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes)
	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)
	if !leader.TrySend(amnet.Packet{Handler: hEcho, Src: llo, Dst: wlo, U0: 5}) {
		t.Fatal("TrySend refused")
	}
	if got := recvPacket(t, wn); got.U0 != 5 {
		t.Fatalf("U0 = %d, want 5", got.U0)
	}
	if !worker.TrySend(amnet.Packet{Handler: hEcho, Src: wlo, Dst: llo, U0: 6}) {
		t.Fatal("TrySend refused")
	}
	if got := recvPacket(t, ln); got.U0 != 6 {
		t.Fatalf("U0 = %d, want 6", got.U0)
	}
}

// TestCloseIsIdempotentQueuedWhileDownReplayedOnInstall pins what a link
// does with packets it cannot send yet.  Down: they queue, and go out —
// once, in order — when a connection is installed.  Closed: they are
// swallowed and counted, so a kernel mid-send never spins on a corpse.
func TestCloseIsIdempotentQueuedWhileDownReplayedOnInstall(t *testing.T) {
	p := newLonePeer(t)
	// No connection yet: the link is down, and takes packets anyway.
	for i := uint64(1); i <= 3; i++ {
		if !p.tr.TrySend(amnet.Packet{Handler: hEcho, Dst: 1, U0: i}) {
			t.Fatalf("TrySend %d refused while the link was down", i)
		}
	}
	if d := p.tr.TransportStats().WireDropped; d != 0 {
		t.Fatalf("WireDropped = %d while down, want 0 (queued, not dropped)", d)
	}
	far := p.connect(t, seqBase)
	for i := uint64(1); i <= 3; i++ {
		h, pkt := far.readPacket(t)
		if h.seq != seqBase+uint32(i) || pkt.U0 != i {
			t.Fatalf("frame %d after install: seq %d U0 %d", i, h.seq, pkt.U0)
		}
	}

	if err := p.tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	before := p.tr.TransportStats().WireDropped
	if !p.tr.TrySend(amnet.Packet{Handler: hEcho, Dst: 1}) {
		t.Error("TrySend on a closed transport should accept-and-drop, not refuse")
	}
	if got := p.tr.TransportStats().WireDropped; got != before+1 {
		t.Errorf("WireDropped = %d, want %d", got, before+1)
	}
	if err := p.tr.SendControl(1, 0x21, nil); err == nil {
		t.Error("SendControl on a closed transport succeeded")
	}
}
