package sock

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Handshake control kinds (0xF0+ is transport-internal; the kernel's
// control plane uses the space below).
const (
	kHello  uint8 = 0xF0 + iota // worker -> leader: first contact
	kAssign                     // leader -> worker: index, layout, spec blob
	kReady                      // worker -> leader: my listener address
	kPeers                      // leader -> worker: everyone's addresses
	kMesh                       // dialer <-> acceptor: who this is, and the last seq it delivered
	kLinked                     // worker -> leader: full mesh established
	kGo                         // leader -> worker: start
)

// Handshake message bodies (gob-encoded control frames).
type (
	helloMsg  struct{}
	assignMsg struct {
		Idx   int
		Procs int
		Nodes int
		Spans []names.Span
		Blob  []byte
	}
	readyMsg struct{ Addr string }
	peersMsg struct{ Addrs []string }
	meshMsg  struct {
		From int
		Last uint32
	}
	okMsg struct{}
)

type closedError struct{}

func (closedError) Error() string { return "sock: transport closed" }

var errClosed = closedError{}

// errCtlBacklog refuses a control message when ctlBacklogCap are already
// queued: the peer has been unreachable for a long time.
var errCtlBacklog = errors.New("sock: control backlog full")

// handshakeTimeout bounds every blocking step of machine boot; a worker
// that never shows up fails the leader loudly instead of hanging CI.
const handshakeTimeout = 60 * time.Second

// Transport carries amnet packets between the processes of one machine
// over a socket mesh: one connection per process pair, framed by
// frame.go, with node-to-process routing answered by a names.Registry.
// It implements amnet.Transport.
type Transport struct {
	reg   *names.Registry
	self  int
	procs int
	links []*link // by peer index; links[self] is nil
	lis   net.Listener

	codec amnet.PayloadCodec
	onCtl func(peer int, kind uint8, body []byte)

	nw       *amnet.Network
	startedc chan struct{}
	stopc    chan struct{}
	closed   atomic.Bool

	writers sync.WaitGroup // the links' writeLoops; Close lets them finish first
	wg      sync.WaitGroup // every other goroutine
	stats   transportCounters
}

// transportCounters is the atomic backing for TransportStats.
type transportCounters struct {
	wireSent     atomic.Uint64
	wireRecvd    atomic.Uint64
	wireBytesOut atomic.Uint64
	wireBytesIn  atomic.Uint64
	wireDropped  atomic.Uint64
	redials      atomic.Uint64
	ctlSent      atomic.Uint64
	ctlRecvd     atomic.Uint64
	replayed     atomic.Uint64
	ackFrames    atomic.Uint64
	dupFrames    atomic.Uint64
	faultCuts    atomic.Uint64
}

var _ amnet.Transport = (*Transport)(nil)

func newTransport(reg *names.Registry, self, procs int) *Transport {
	return &Transport{
		reg:      reg,
		self:     self,
		procs:    procs,
		links:    make([]*link, procs),
		startedc: make(chan struct{}),
		stopc:    make(chan struct{}),
	}
}

// LeaderConfig configures the leader's side of machine boot.
type LeaderConfig struct {
	// Network is "unix" or "tcp"; Addr is the listen address workers
	// dial (a socket path, or host:port).
	Network string
	Addr    string
	// Workers is how many worker processes join (total processes =
	// Workers+1; the leader is process 0 and hosts node 0 plus the
	// front end).
	Workers int
	// Nodes is the machine's kernel node count, split contiguously
	// across processes by names.SplitSpans.
	Nodes int
	// Blob is an opaque machine spec delivered to every worker during
	// the handshake, so all processes build identical machines.
	Blob []byte
}

// Listen boots the leader: it accepts Workers joins, assigns process
// indexes and node spans, distributes peer addresses, waits for the
// full mesh, and releases everyone.  It returns once every process is
// connected to every other.
func Listen(cfg LeaderConfig) (*Transport, *names.Registry, error) {
	if cfg.Workers < 1 {
		return nil, nil, fmt.Errorf("sock: leader needs at least 1 worker, got %d", cfg.Workers)
	}
	procs := cfg.Workers + 1
	if cfg.Nodes < procs {
		return nil, nil, fmt.Errorf("sock: %d nodes cannot span %d processes", cfg.Nodes, procs)
	}
	spans := names.SplitSpans(cfg.Nodes, procs)
	reg, err := names.NewRegistry(spans)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Network == "unix" {
		os.Remove(cfg.Addr)
	}
	lis, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, nil, err
	}
	t := newTransport(reg, 0, procs)
	t.lis = lis
	conns := make([]net.Conn, procs)
	fail := func(err error) (*Transport, *names.Registry, error) {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		lis.Close()
		return nil, nil, err
	}
	// Phase 1: greet each worker and assign its index and the layout.
	for i := 1; i < procs; i++ {
		conn, err := acceptTimeout(lis, handshakeTimeout)
		if err != nil {
			return fail(fmt.Errorf("sock: waiting for worker %d/%d: %w", i, cfg.Workers, err))
		}
		conns[i] = conn
		if _, _, err := expectCtl(conn, kHello); err != nil {
			return fail(err)
		}
		err = writeCtl(conn, kAssign, mustGob(assignMsg{
			Idx: i, Procs: procs, Nodes: cfg.Nodes, Spans: spans, Blob: cfg.Blob,
		}))
		if err != nil {
			return fail(err)
		}
	}
	// Phase 2+3: collect listener addresses, broadcast the peer table.
	addrs := make([]string, procs)
	addrs[0] = cfg.Addr
	for i := 1; i < procs; i++ {
		var rd readyMsg
		if err := expectCtlInto(conns[i], kReady, &rd); err != nil {
			return fail(err)
		}
		addrs[i] = rd.Addr
	}
	for i := 1; i < procs; i++ {
		if err := writeCtl(conns[i], kPeers, mustGob(peersMsg{Addrs: addrs})); err != nil {
			return fail(err)
		}
	}
	// Phase 4+5: wait for the mesh, then release everyone.
	for i := 1; i < procs; i++ {
		if _, _, err := expectCtl(conns[i], kLinked); err != nil {
			return fail(err)
		}
	}
	for i := 1; i < procs; i++ {
		if err := writeCtl(conns[i], kGo, mustGob(okMsg{})); err != nil {
			return fail(err)
		}
	}
	// The handshake connections become the leader-worker data links;
	// the leader accepts on every one of them.
	for i := 1; i < procs; i++ {
		t.links[i] = newLink(t, i, "", "")
		conns[i].SetDeadline(time.Time{})
		t.links[i].install(conns[i], seqBase)
	}
	t.startLoops()
	return t, reg, nil
}

// Join boots a worker: dial the leader, learn this process's index and
// the machine layout, open a listener for higher-indexed peers, dial
// lower-indexed ones, and wait for the leader's go.  It returns the
// transport, the node registry, and the leader's machine-spec blob.
// Workers typically launch concurrently with the leader, so the initial
// dial retries until the leader's listener appears (or handshakeTimeout
// passes).
func Join(network, addr string) (*Transport, *names.Registry, []byte, error) {
	conn, err := dialRetry(network, addr)
	if err != nil {
		return nil, nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	fail := func(err error) (*Transport, *names.Registry, []byte, error) {
		conn.Close()
		return nil, nil, nil, err
	}
	if err := writeCtl(conn, kHello, mustGob(helloMsg{})); err != nil {
		return fail(err)
	}
	var as assignMsg
	if err := expectCtlInto(conn, kAssign, &as); err != nil {
		return fail(err)
	}
	reg, err := names.NewRegistry(as.Spans)
	if err != nil {
		return fail(err)
	}
	t := newTransport(reg, as.Idx, as.Procs)

	// Our own listener, for peers with a higher index (and their
	// redials).  Unix sockets derive a sibling path; TCP takes an
	// ephemeral port on the address we reached the leader from.
	var laddr string
	switch network {
	case "unix":
		laddr = fmt.Sprintf("%s.w%d", addr, as.Idx)
		os.Remove(laddr)
		t.lis, err = net.Listen("unix", laddr)
	case "tcp":
		host, _, herr := net.SplitHostPort(conn.LocalAddr().String())
		if herr != nil {
			return fail(herr)
		}
		t.lis, err = net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err == nil {
			laddr = t.lis.Addr().String()
		}
	default:
		return fail(fmt.Errorf("sock: unsupported network %q", network))
	}
	if err != nil {
		return fail(err)
	}
	if err := writeCtl(conn, kReady, mustGob(readyMsg{Addr: laddr})); err != nil {
		return fail(err)
	}
	var peers peersMsg
	if err := expectCtlInto(conn, kPeers, &peers); err != nil {
		return fail(err)
	}

	// The leader link reuses the handshake connection; this side dialed,
	// so this side redials.
	t.links[0] = newLink(t, 0, network, addr)
	// Dial every lower-indexed worker (their listeners are up: the
	// leader only sends the peer table after collecting every address).
	for p := 1; p < as.Idx; p++ {
		pc, perr := net.DialTimeout(network, peers.Addrs[p], handshakeTimeout)
		if perr != nil {
			return fail(fmt.Errorf("sock: dialing peer %d at %s: %w", p, peers.Addrs[p], perr))
		}
		t.links[p] = newLink(t, p, network, peers.Addrs[p])
		peerLast, perr := t.links[p].helloDial(pc)
		if perr != nil {
			pc.Close()
			return fail(perr)
		}
		t.links[p].install(pc, peerLast)
	}
	// Accept every higher-indexed worker.
	for k := as.Idx + 1; k < as.Procs; k++ {
		pc, perr := acceptTimeout(t.lis, handshakeTimeout)
		if perr != nil {
			return fail(perr)
		}
		var mm meshMsg
		if perr := expectCtlInto(pc, kMesh, &mm); perr != nil {
			return fail(perr)
		}
		if mm.From <= as.Idx || mm.From >= as.Procs || t.links[mm.From] != nil {
			pc.Close()
			return fail(fmt.Errorf("sock: unexpected mesh hello from %d", mm.From))
		}
		t.links[mm.From] = newLink(t, mm.From, "", "")
		if perr := t.links[mm.From].helloAccept(pc, mm); perr != nil {
			pc.Close()
			return fail(perr)
		}
	}
	if err := writeCtl(conn, kLinked, mustGob(okMsg{})); err != nil {
		return fail(err)
	}
	if _, _, err := expectCtl(conn, kGo); err != nil {
		return fail(err)
	}
	conn.SetDeadline(time.Time{})
	t.links[0].install(conn, seqBase)
	t.startLoops()
	return t, reg, as.Blob, nil
}

// dialRetry dials with backoff until the handshake timeout: a refused
// connection or a missing socket path just means the leader has not
// reached Listen yet.
func dialRetry(network, addr string) (net.Conn, error) {
	deadline := time.Now().Add(handshakeTimeout)
	backoff := 10 * time.Millisecond
	for {
		conn, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("sock: leader at %s://%s never answered: %w", network, addr, err)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// startLoops spawns the per-link writers, the dialing-side recovery
// loops, and the redial accept loop.
func (t *Transport) startLoops() {
	for _, l := range t.links {
		if l == nil {
			continue
		}
		t.writers.Add(1)
		go l.writeLoop()
		if l.network != "" {
			t.wg.Add(1)
			go l.dialLoop()
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
}

// acceptLoop re-accepts replacement connections for links whose remote
// side dials this process (initial mesh setup accepted its connections
// synchronously during the handshake; everything here is a redial).
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			return // listener closed: transport shutting down
		}
		var mm meshMsg
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		if err := expectCtlInto(conn, kMesh, &mm); err != nil {
			conn.Close()
			continue
		}
		if mm.From < 0 || mm.From >= t.procs || t.links[mm.From] == nil {
			conn.Close()
			continue
		}
		if err := t.links[mm.From].helloAccept(conn, mm); err != nil {
			conn.Close()
			continue
		}
		t.stats.redials.Add(1)
	}
}

// The resync handshake.  Both ends of a new connection tell each other
// the last sequence number they delivered; each installs the connection
// with the peer's value, and its writer trims the window to it and
// replays the rest before anything new.  A value read while an old
// reader is still delivering can only be low, which costs a few replayed
// frames the reader then drops.

// helloDial runs the dialing side: identify, report, hear back.
func (l *link) helloDial(conn net.Conn) (peerLast uint32, err error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := writeCtl(conn, kMesh, mustGob(meshMsg{From: l.t.self, Last: l.delivered()})); err != nil {
		return 0, err
	}
	var mm meshMsg
	if err := expectCtlInto(conn, kMesh, &mm); err != nil {
		return 0, err
	}
	if mm.From != l.peer {
		return 0, fmt.Errorf("sock: dialed peer %d, reached %d", l.peer, mm.From)
	}
	return mm.Last, nil
}

// helloAccept answers the hello an acceptor just read from conn and
// installs the connection.
func (l *link) helloAccept(conn net.Conn, hello meshMsg) error {
	err := writeCtl(conn, kMesh, mustGob(meshMsg{From: l.t.self, Last: l.delivered()}))
	conn.SetDeadline(time.Time{})
	if err != nil {
		return err
	}
	l.install(conn, hello.Last)
	return nil
}

// --- amnet.Transport ----------------------------------------------------

// Self returns this process's index; 0 is the leader.
func (t *Transport) Self() int { return t.self }

// Procs returns the process count.
func (t *Transport) Procs() int { return t.procs }

// Resident reports whether node id's kernel goroutine runs here.
func (t *Transport) Resident(id amnet.NodeID) bool {
	return t.reg.Owner(id) == t.self
}

// TrySend offers a stamped packet to the link owning p.Dst.
func (t *Transport) TrySend(p amnet.Packet) bool {
	l := t.links[t.reg.Owner(p.Dst)]
	if l == nil {
		panic(fmt.Sprintf("sock: packet for resident node %d routed to the transport", p.Dst))
	}
	return l.offer(p)
}

// SendControl queues an out-of-band control message for peer (or for
// every peer when peer < 0).  It does not wait for the wire: the message
// goes out ahead of queued packets, exactly once, after any redial.  body
// is copied before SendControl returns, so the caller may reuse it.  An
// error means this link did not take it (transport closed, or a backlog
// of ctlBacklogCap behind a peer that is not coming back); a broadcast
// still reaches the other peers and returns the first failure.
func (t *Transport) SendControl(peer int, kind uint8, body []byte) error {
	if kind >= kHello {
		return fmt.Errorf("sock: control kind %#x collides with the transport-internal range", kind)
	}
	if len(body) > maxFrameBody-frameHeadBytes-1 {
		return fmt.Errorf("sock: control body %d exceeds the frame cap", len(body))
	}
	if peer >= 0 {
		if peer >= t.procs || t.links[peer] == nil {
			return fmt.Errorf("sock: no link to peer %d", peer)
		}
		return t.links[peer].sendCtl(kind, body)
	}
	var first error
	for i, l := range t.links {
		if l == nil {
			continue
		}
		if err := l.sendCtl(kind, body); err != nil && first == nil {
			first = fmt.Errorf("sock: control to peer %d: %w", i, err)
		}
	}
	return first
}

// OnControl installs the control receiver; must be called before Start.
// The body it is handed is the reader's frame buffer, valid only during
// the call.
func (t *Transport) OnControl(fn func(peer int, kind uint8, body []byte)) {
	t.onCtl = fn
}

// SetPayloadCodec installs the payload codec; must be called before
// Start.
func (t *Transport) SetPayloadCodec(c amnet.PayloadCodec) { t.codec = c }

// Start attaches the network and releases the reader goroutines, which
// were parked so no packet could be injected before the kernel's
// endpoints and handlers existed.  A fault plan on nw becomes each link's
// per-frame cut chance, seeded by the plan and the (self, peer) pair.
func (t *Transport) Start(nw *amnet.Network) error {
	if t.nw != nil {
		return fmt.Errorf("sock: transport started twice")
	}
	t.nw = nw
	if plan := nw.Faults(); plan != nil && plan.Cut > 0 {
		for _, l := range t.links {
			if l != nil {
				l.cut = plan.Cut
				l.dice = rand.New(rand.NewSource(plan.Seed + int64(t.self)*1000003 + int64(l.peer)))
			}
		}
	}
	close(t.startedc)
	return nil
}

// TransportStats snapshots the wire counters.
func (t *Transport) TransportStats() amnet.TransportStats {
	return amnet.TransportStats{
		WireSent:     t.stats.wireSent.Load(),
		WireRecvd:    t.stats.wireRecvd.Load(),
		WireBytesOut: t.stats.wireBytesOut.Load(),
		WireBytesIn:  t.stats.wireBytesIn.Load(),
		WireDropped:  t.stats.wireDropped.Load(),
		Redials:      t.stats.redials.Load(),
		CtlSent:      t.stats.ctlSent.Load(),
		CtlRecvd:     t.stats.ctlRecvd.Load(),
		Replayed:     t.stats.replayed.Load(),
		AckFrames:    t.stats.ackFrames.Load(),
		DupFrames:    t.stats.dupFrames.Load(),
		FaultCuts:    t.stats.faultCuts.Load(),
	}
}

// LinkStates snapshots every link, by peer index.
func (t *Transport) LinkStates() []amnet.LinkState {
	var out []amnet.LinkState
	for _, l := range t.links {
		if l != nil {
			out = append(out, l.state())
		}
	}
	return out
}

func (t *Transport) isClosed() bool { return t.closed.Load() }

// closeGrace bounds Close's wait for a writer whose peer stopped reading.
const closeGrace = time.Second

// Close tears the mesh down: the listener closes, the writers put the
// control messages still queued on the wire, then every connection
// closes, blocked injects unwind, all goroutines join, and queued packets
// are discarded (counted in WireDropped).
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stopc)
	if t.lis != nil {
		t.lis.Close()
	}
	t.eachLink(func(l *link) {
		if l.conn != nil {
			l.conn.SetWriteDeadline(time.Now().Add(closeGrace))
		}
	})
	t.writers.Wait()
	t.eachLink(func(l *link) {
		if l.conn != nil {
			l.conn.Close()
		}
		l.up = false
	})
	t.wg.Wait()
	return nil
}

// eachLink runs fn on every link under its mu, then wakes the link's
// waiters to look again.
func (t *Transport) eachLink(fn func(l *link)) {
	for _, l := range t.links {
		if l != nil {
			l.mu.Lock()
			fn(l)
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	}
}

// --- synchronous handshake I/O ------------------------------------------

func acceptTimeout(lis net.Listener, d time.Duration) (net.Conn, error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if dl, ok := lis.(deadliner); ok {
		dl.SetDeadline(time.Now().Add(d))
		defer dl.SetDeadline(time.Time{})
	}
	conn, err := lis.Accept()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(d))
	return conn, nil
}

// writeCtl writes one control frame synchronously.
func writeCtl(conn net.Conn, kind uint8, body []byte) error {
	buf, err := appendControlFrame(nil, kind, body)
	if err != nil {
		return err
	}
	_, err = conn.Write(buf)
	return err
}

// expectCtl reads one frame and requires a control frame of the given
// kind, returning its body.
func expectCtl(conn net.Conn, want uint8) (uint8, []byte, error) {
	h, body, _, err := readFrame(conn, nil)
	if err != nil {
		return 0, nil, err
	}
	if h.kind != frControl {
		return 0, nil, fmt.Errorf("sock: handshake expected a control frame, got kind %d", h.kind)
	}
	ck, rest, err := parseControlBody(body)
	if err != nil {
		return 0, nil, err
	}
	if ck != want {
		return 0, nil, fmt.Errorf("sock: handshake expected control %#x, got %#x", want, ck)
	}
	return ck, rest, nil
}

// expectCtlInto reads a control frame of the given kind and gob-decodes
// its body into out.
func expectCtlInto(conn net.Conn, want uint8, out any) error {
	_, rest, err := expectCtl(conn, want)
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(rest)).Decode(out)
}

// mustGob encodes v, panicking on failure (handshake bodies are
// in-package types; an encode error is a programming bug).
func mustGob(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
