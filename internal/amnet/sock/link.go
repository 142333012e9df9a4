package sock

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/amnet"
)

// The link protocol: exactly-once, in-order delivery across a process
// pair, however often the connection under it is replaced, and without a
// clock.
//
// Sender.  The link's single writer stamps every packet and control
// frame with the next sequence number and the cumulative ack of what
// this side has delivered, and keeps the frame's encoded bytes in a
// window until the peer acknowledges it.  Acks ride the link word of
// whatever flows back; a side with nothing to send writes a bare ack
// frame once ackEveryFrames frames (or ackEveryBytes bytes) are owed
// one.  A full window stops the writer taking packets from the outbound
// queue, which then fills and refuses TrySend — the kernel's ordinary
// poll-while-stalled backpressure.  Acks and control frames are never
// gated by the window, so two stalled sides cannot deadlock.
//
// Receiver.  The reader delivers seq == last+1, drops seq <= last (a
// replayed frame it already has), and treats a gap as a broken
// connection.  last advances only once the frame has been handed over,
// so a frame cut down mid-delivery is simply asked for again.
//
// Resync.  Whoever re-establishes the connection exchanges kMesh hellos
// carrying each side's last; both writers trim their windows to the
// peer's value and replay the remainder before any new frame.  Nothing
// is retransmitted on a timer: a connection either delivers in order or
// fails, and failure is the only trigger for replay.  A FaultPlan's
// losses are failures of that kind: the reader cuts the connection.

const (
	// outqCap is the per-link outbound queue depth, in packets.  A full
	// queue refuses TrySend, which propagates as the kernel's ordinary
	// poll-while-stalled backpressure.
	outqCap = 2048

	// winFrames and winBytes cap the unacknowledged window; whichever
	// fills first stops the writer taking from the outbound queue.  The
	// window's buffer grows on demand, so an idle or lightly loaded link
	// holds almost nothing; at the caps, queue plus window are about
	// 0.75 MB a link.
	winFrames = 4096
	winBytes  = 512 << 10

	// A receiver with no reverse traffic acknowledges on its own once
	// this much is owed: often enough that the sender's window never
	// fills in a one-way stream, rarely enough to be noise on the wire.
	ackEveryFrames = 64
	ackEveryBytes  = winBytes / 4

	// ctlBacklogCap bounds control messages queued behind a dead link.
	ctlBacklogCap = 1024
)

// Dial retry backoff bounds.  A dropped connection retries from
// redialMin, doubling to redialMax; the window holds what was in flight,
// so the backoff only has to avoid hammering a dead peer.
const (
	redialMin = 10 * time.Millisecond
	redialMax = 500 * time.Millisecond
)

// seqBase is where a new link's sequence numbers start; tests move it
// next to the 32-bit wrap.
var seqBase uint32

// window holds the encoded bytes of the frames the peer has not yet
// acknowledged, oldest first.  Each frame starts with its own length
// prefix, so the buffer is its own index.  It belongs to the link's
// writer goroutine.
type window struct {
	buf   []byte // buf[head:] is the unacknowledged frames
	head  int
	count int           // frames in buf[head:]
	next  atomic.Uint32 // seq the next frame will carry (read by LinkStates)
}

func (w *window) full() bool {
	return w.count >= winFrames || len(w.buf)-w.head >= winBytes
}

// trim drops the frames ack covers and reports how many that was.  An
// ack older than the window is a no-op; one beyond it is clamped.
func (w *window) trim(ack uint32) int {
	first := w.next.Load() - uint32(w.count)
	n := int(int32(ack-first)) + 1
	if n <= 0 {
		return 0
	}
	if n > w.count {
		n = w.count
	}
	for i := 0; i < n; i++ {
		w.head += wireLen(w.buf[w.head:])
	}
	if w.count -= n; w.count == 0 {
		w.head = 0
		if cap(w.buf) > 2*winBytes {
			w.buf = nil // a bulk frame grew it; do not keep that
		} else {
			w.buf = w.buf[:0]
		}
	}
	return n
}

// compact slides the live bytes to the front once they are the smaller
// half, so appends reuse the space trimmed frames left.
func (w *window) compact() {
	if live := len(w.buf) - w.head; w.head >= live && w.head > 0 {
		copy(w.buf, w.buf[w.head:])
		w.buf, w.head = w.buf[:live], 0
	}
}

// retain stamps the frame encoded at buf[start:] with the next sequence
// number and ack, and counts it into the window.  From here on the frame
// reaches the peer: by the write that follows or by a replay.
func (w *window) retain(start int, ack uint32) {
	seq := w.next.Load()
	stampLink(w.buf[start:], seq, ack)
	w.next.Store(seq + 1)
	w.count++
}

// link is one process pair's connection: a single writer goroutine
// owns the wire (preserving frame FIFO), a reader goroutine per live
// connection injects inbound traffic, and exactly one side — the
// higher process index — redials after a failure while the other
// re-accepts.
type link struct {
	t    *Transport
	peer int

	// network/raddr are set on the dialing side only; the accepting
	// side waits for its listener to install a replacement connection.
	network, raddr string

	outq chan amnet.Packet
	// kick wakes the writer for everything that is not a queued packet:
	// a new connection, a control message, an ack falling due, room in a
	// full window.  One slot: the writer re-examines all of them.
	kick chan struct{}

	// ctlPend holds the control frames SendControl encoded and the writer
	// has not taken yet, ctlN of them.  The writer swaps it for ctlSpare,
	// its own, so in steady state neither buffer is reallocated.
	ctlMu    sync.Mutex
	ctlPend  []byte
	ctlN     int
	ctlSpare []byte

	mu       sync.Mutex
	cond     *sync.Cond // signaled on install and on close
	conn     net.Conn
	gen      int // connection generation; stale failure reports are ignored
	up       bool
	peerLast uint32 // the peer's last, from the hello that came with conn

	// Sender half.
	win    window
	acked  atomic.Uint32 // highest ack the reader has seen from the peer
	wfull  atomic.Bool   // the writer is waiting for window room
	ackBuf [ackFrameBytes]byte

	// Receiver half.  rmu admits one reader at a time: a replacement
	// connection's reader waits for its predecessor to finish delivering,
	// so rx has a single author.
	rmu sync.Mutex
	// rx is last<<32 | bytes: the highest seq delivered, and the wire
	// bytes of everything delivered mod 2^32.  ackSent is the rx snapshot
	// the writer last put on the wire; their difference is what the peer
	// is owed an ack for.
	rx      atomic.Uint64
	ackSent atomic.Uint64
	// cut is the chance a sequenced frame ends its connection instead of
	// being delivered (Transport.Start, from the network's FaultPlan);
	// the reader draws dice, nil without a plan, under rmu.
	cut  float64
	dice *rand.Rand
}

func newLink(t *Transport, peer int, network, raddr string) *link {
	l := &link{t: t, peer: peer, network: network, raddr: raddr,
		outq: make(chan amnet.Packet, outqCap), kick: make(chan struct{}, 1)}
	l.cond = sync.NewCond(&l.mu)
	l.win.next.Store(seqBase + 1)
	l.acked.Store(seqBase)
	l.rx.Store(uint64(seqBase) << 32)
	l.ackSent.Store(uint64(seqBase) << 32)
	return l
}

// delivered is the highest sequence number this side has handed over;
// the handshake reports it to the peer.
func (l *link) delivered() uint32 { return uint32(l.rx.Load() >> 32) }

func (l *link) wake() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// offer enqueues a packet without blocking.  Link state is not
// consulted: while the link is down packets queue (and the window keeps
// what was in flight), a full queue refuses, and the sender polls.  Only
// a closed transport swallows the packet, so a kernel mid-send never
// spins on a corpse.
func (l *link) offer(p amnet.Packet) bool {
	if l.t.isClosed() {
		l.t.stats.wireDropped.Add(1)
		return true
	}
	select {
	case l.outq <- p:
		return true
	default:
		return false
	}
}

// sendCtl queues a control message and never waits on the wire: readers
// answer probes from inside the control callback, and a reader that
// waited for the writer would be waiting for acks only it can read.
// The frame is encoded into the pending buffer at once, so the caller
// may reuse body as soon as this returns.
func (l *link) sendCtl(kind uint8, body []byte) error {
	if l.t.isClosed() {
		return errClosed
	}
	l.ctlMu.Lock()
	if l.ctlN >= ctlBacklogCap {
		l.ctlMu.Unlock()
		return errCtlBacklog
	}
	l.ctlPend, _ = appendControlFrame(l.ctlPend, kind, body) // SendControl checked the size
	l.ctlN++
	l.ctlMu.Unlock()
	l.wake()
	return nil
}

// install replaces the link's connection (initial handshake, redial, or
// re-accept), waking the writer and spawning the reader for it.
// peerLast is the last sequence number the peer reported delivering.
func (l *link) install(conn net.Conn, peerLast uint32) {
	l.mu.Lock()
	if l.t.isClosed() {
		// Close has been, or will be, through this link under mu and only
		// closes what it finds; a connection arriving after it would
		// leave a reader nobody stops.
		l.mu.Unlock()
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close() // stale connection from before the failure
	}
	l.gen++
	gen := l.gen
	l.conn = conn
	l.peerLast = peerLast
	l.up = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wake()
	l.t.wg.Add(1)
	go l.readLoop(conn, gen)
}

// connFailed marks generation gen's connection dead.  Reports about
// already-replaced connections are ignored.
func (l *link) connFailed(gen int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen != l.gen || !l.up {
		return
	}
	l.up = false
	l.conn.Close()
	l.cond.Broadcast()
}

// waitUp blocks until the link has a live connection and returns it with
// its generation and the peer's last.  Recovery itself is not the
// caller's job: the dialing side's dialLoop (or the remote redialer plus
// this side's accept loop) installs the replacement.  A nil connection
// means the transport closed.
func (l *link) waitUp() (net.Conn, int, uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.up {
		if l.t.isClosed() {
			return nil, 0, 0
		}
		l.cond.Wait()
	}
	return l.conn, l.gen, l.peerLast
}

// current reports whether generation gen is still the live connection.
func (l *link) current(gen int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up && l.gen == gen
}

// state snapshots the link for a flight record.
func (l *link) state() amnet.LinkState {
	l.mu.Lock()
	up, gen := l.up, l.gen
	l.mu.Unlock()
	// A consistent pair: sent is read while acked holds still.  An ack
	// landing between two plain loads would make the difference wrap, or
	// overstate it.
	acked := l.acked.Load()
	sent := l.win.next.Load() - 1
	for a := l.acked.Load(); a != acked; a = l.acked.Load() {
		acked, sent = a, l.win.next.Load()-1
	}
	return amnet.LinkState{Peer: l.peer, Up: up, Gen: gen,
		Unacked: sent - acked, SentSeq: sent, AckedSeq: acked, RecvSeq: l.delivered()}
}

// dialLoop is the dialing side's recovery driver: whenever the link goes
// down it redials with backoff until a connection installs, independent
// of outbound traffic.  Recovery must not wait for something to send — a
// quiet link has to heal too, or traffic that only flows inbound (the
// leader's termination probes to an idle worker, say) would stay dark
// forever.
func (l *link) dialLoop() {
	defer l.t.wg.Done()
	backoff := redialMin
	for {
		l.mu.Lock()
		for l.up && !l.t.isClosed() {
			l.cond.Wait()
		}
		l.mu.Unlock()
		if l.t.isClosed() {
			return
		}
		if c, peerLast := l.redial(backoff); c != nil {
			l.install(c, peerLast)
			l.t.stats.redials.Add(1)
			backoff = redialMin
			continue
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// redial attempts one connection to the peer and runs the resync
// handshake on it.  Returns nil on failure (the caller backs off and
// retries).
func (l *link) redial(backoff time.Duration) (net.Conn, uint32) {
	conn, err := net.DialTimeout(l.network, l.raddr, redialMax)
	if err != nil {
		select {
		case <-l.t.stopc:
		case <-time.After(backoff):
		}
		return nil, 0
	}
	peerLast, err := l.helloDial(conn)
	if err != nil {
		conn.Close()
		return nil, 0
	}
	return conn, peerLast
}

const (
	// readBufBytes is each connection's read buffer: room for dozens of
	// ordinary frames per read(2) without showing in the process's heap.
	readBufBytes = 16 << 10
	// writeBufBytes is each link's write buffer.
	writeBufBytes = 64 << 10
)

// flushBatchFrames bounds how many frames the writer coalesces into the
// buffered writer before forcing a flush even with more queued: mirrors
// the in-memory BatchMax so one saturated link cannot starve latency
// indefinitely behind an ever-refilling queue.
const flushBatchFrames = 32

// errStale ends a writer's turn on a connection that was replaced or
// reported dead by the reader.
var errStale = errors.New("sock: connection replaced")

// writeLoop is the link's single writer.  For each connection the link
// is given it first resynchronises — trims the window to what the peer
// reported delivering and replays the rest — and then serves the
// outbound queue until the connection fails or is replaced.
func (l *link) writeLoop() {
	defer l.t.writers.Done()
	bw := bufio.NewWriterSize(nil, writeBufBytes)
	for {
		conn, gen, peerLast := l.waitUp()
		if conn == nil {
			break
		}
		bw.Reset(conn)
		err := l.replay(bw, peerLast)
		if err == nil {
			err = l.serve(bw, gen)
		}
		if err == errClosed {
			break
		}
		l.connFailed(gen) // a no-op if the reader or an install got there first
	}
	l.t.stats.wireDropped.Add(uint64(len(l.outq)))
}

// replay trims the window to the peer's last and re-sends what remains.
func (l *link) replay(bw *bufio.Writer, peerLast uint32) error {
	w := &l.win
	w.trim(peerLast)
	if w.count == 0 {
		return nil
	}
	pending := w.buf[w.head:]
	if _, err := bw.Write(pending); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	st := &l.t.stats
	for off := 0; off < len(pending); off += wireLen(pending[off:]) {
		if pending[off+frameKindOff] == frControl {
			st.ctlSent.Add(1)
		} else {
			st.wireSent.Add(1)
		}
	}
	st.replayed.Add(uint64(w.count))
	st.wireBytesOut.Add(uint64(len(pending)))
	return nil
}

// serve drains the outbound queue into one connection, coalescing frames
// while the queue is non-empty (the wire analog of SendBatched's
// staging) and flushing when the queue empties or flushBatchFrames
// accumulate.
func (l *link) serve(bw *bufio.Writer, gen int) error {
	w := &l.win
	var f amnet.Packet // outside the loop: encode takes its address
	unflushed, waiting := 0, false
	// Whatever kicked the previous connection's turn may not have been
	// served there; look at everything once on the way in.
	l.wake()
	for {
		w.trim(l.acked.Load())
		if w.full() && !waiting {
			// Announce the wait before the last look at acked, so an ack
			// landing in between finds the flag and kicks.
			waiting = true
			l.wfull.Store(true)
			w.trim(l.acked.Load())
		}
		q := l.outq
		if w.full() {
			q = nil
		} else if waiting {
			waiting = false
			l.wfull.Store(false)
		}
		if unflushed > 0 && len(q) == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
			unflushed = 0
		}
		if unflushed > 0 {
			// Mid-batch the queue is non-empty and this is its only
			// consumer, so the receive does not wait; kicks and the stop
			// signal get their turn at the batch boundary.
			f = <-q
		} else {
			select {
			case f = <-q:
			case <-l.kick:
				if err := l.serveKick(bw, gen); err != nil {
					return err
				}
				continue
			case <-l.t.stopc:
				// Control frames queued before Close still go out (a
				// worker's shutdown bye); Close waits for them.
				l.writeControls(bw)
				bw.Flush()
				return errClosed
			}
		}
		if err := l.writePacket(bw, &f); err != nil {
			return err
		}
		if unflushed++; unflushed >= flushBatchFrames {
			if err := bw.Flush(); err != nil {
				return err
			}
			unflushed = 0
		}
	}
}

// writePacket encodes f straight into the window and writes it from
// there.
func (l *link) writePacket(bw *bufio.Writer, f *amnet.Packet) error {
	w := &l.win
	w.compact()
	start := len(w.buf)
	buf, err := l.encode(w.buf, f)
	if err != nil {
		// Unencodable payload is a kernel bug, not a wire condition;
		// surface it loudly.
		panic(err)
	}
	w.buf = buf
	f.Payload, f.Data = nil, nil // f outlives the frame; its payload should not
	l.t.stats.wireSent.Add(1)
	return l.write(bw, start)
}

// serveKick does what a kick can be asking for: step aside for a new
// connection, send queued control messages, acknowledge.
func (l *link) serveKick(bw *bufio.Writer, gen int) error {
	if !l.current(gen) {
		return errStale
	}
	if err := l.writeControls(bw); err != nil {
		return err
	}
	if rx := l.rx.Load(); ackDue(rx, l.ackSent.Load()) {
		if _, err := bw.Write(appendAckFrame(l.ackBuf[:0], uint32(rx>>32))); err != nil {
			return err
		}
		l.ackSent.Store(rx)
		st := &l.t.stats
		st.ackFrames.Add(1)
		st.wireSent.Add(1)
		st.wireBytesOut.Add(ackFrameBytes)
	}
	return bw.Flush()
}

// write retains the frames encoded at win.buf[start:] — one packet, or a
// run of control frames — and writes them out.
func (l *link) write(bw *bufio.Writer, start int) error {
	w := &l.win
	rx := l.rx.Load()
	for off := start; off < len(w.buf); off += wireLen(w.buf[off:]) {
		w.retain(off, uint32(rx>>32))
	}
	_, err := bw.Write(w.buf[start:])
	l.ackSent.Store(rx)
	l.t.stats.wireBytesOut.Add(uint64(len(w.buf) - start))
	return err
}

// writeControls sends every queued control message.  They are sequenced
// and retained like packets but not gated by the window: there are few
// of them, and the kernel's termination protocol must keep moving while
// packet traffic is stalled.
func (l *link) writeControls(bw *bufio.Writer) error {
	l.ctlMu.Lock()
	batch, n := l.ctlPend, l.ctlN
	l.ctlPend, l.ctlN = l.ctlSpare[:0], 0
	l.ctlMu.Unlock()
	l.ctlSpare = batch
	if n == 0 {
		return nil
	}
	w := &l.win
	w.compact()
	start := len(w.buf)
	w.buf = append(w.buf, batch...)
	l.t.stats.ctlSent.Add(uint64(n))
	return l.write(bw, start)
}

// ackDue reports whether the peer is owed a standalone ack: rx is what
// has been delivered, sent what the last frame written acknowledged.
func ackDue(rx, sent uint64) bool {
	return uint32(rx>>32)-uint32(sent>>32) >= ackEveryFrames ||
		uint32(rx)-uint32(sent) >= ackEveryBytes
}

// encode renders one packet frame onto buf.  A boxed payload is written
// by the payload codec straight into the frame, between the head and the
// data words; endPacketFrame back-patches its length.
func (l *link) encode(buf []byte, p *amnet.Packet) ([]byte, error) {
	start := len(buf)
	buf = beginPacketFrame(buf, p)
	if p.Payload != nil {
		var err error
		if buf, err = l.t.codec.AppendPayload(buf, p); err != nil {
			return buf[:start], err
		}
	}
	return endPacketFrame(buf, start, p)
}

// readLoop drains one connection: packet frames decode and inject into
// the destination endpoint (blocking on inbox capacity — that is the
// wire's backpressure), control frames go to the kernel's control
// callback, and every frame's ack trims the writer's window.  Any read
// or parse error, or a gap in the sequence, retires the connection;
// recovery is the dialer's redial (or the listener's re-accept).
func (l *link) readLoop(conn net.Conn, gen int) {
	defer l.t.wg.Done()
	t := l.t
	select {
	case <-t.startedc:
	case <-t.stopc:
		return
	}
	l.rmu.Lock()
	defer l.rmu.Unlock()
	rx := l.rx.Load()
	// One read(2) usually brings in several frames (a frame is a few
	// hundred bytes); frames larger than the buffer bypass it.
	br := bufio.NewReaderSize(conn, readBufBytes)
	var scratch []byte
	for {
		h, body, s, err := readFrame(br, scratch)
		if err != nil {
			l.connFailed(gen)
			return
		}
		scratch = s
		wire := uint32(4 + frameHeadBytes + len(body))
		t.stats.wireBytesIn.Add(uint64(wire))
		if int32(h.ack-l.acked.Load()) > 0 {
			l.acked.Store(h.ack)
			if l.wfull.Load() {
				l.wake()
			}
		}
		if h.kind == frAck {
			continue
		}
		if h.kind != frPacket && h.kind != frControl {
			l.connFailed(gen)
			return
		}
		if l.dice != nil && l.dice.Float64() < l.cut {
			// A fault-plan loss: this frame and everything behind it go
			// down with the connection, and the redial replays them.
			t.stats.faultCuts.Add(1)
			l.connFailed(gen)
			return
		}
		if d := int32(h.seq - uint32(rx>>32)); d <= 0 {
			t.stats.dupFrames.Add(1) // a replay of something already delivered
			continue
		} else if d > 1 {
			l.connFailed(gen)
			return
		}
		if h.kind == frPacket {
			p, payload, err := parsePacketBody(body)
			if err != nil || p.Dst < 0 || int(p.Dst) >= t.nw.Nodes() {
				l.connFailed(gen)
				return
			}
			if len(payload) > 0 {
				v, derr := t.codec.DecodePayload(payload)
				if derr != nil {
					// The frame parsed, so this is a codec schema bug,
					// not line noise; fail loudly.
					panic(derr)
				}
				p.Payload = v
			}
			if t.nw.Endpoint(p.Dst).Inject(p, t.stopc) {
				t.stats.wireRecvd.Add(1)
			} else if t.isClosed() {
				return // not delivered: rx stays, the frame was never ours
			}
			// else the network is discarding (machine shutdown): the
			// packet was consumed, just not kept.
		} else {
			ck, rest, cerr := parseControlBody(body)
			if cerr != nil || ck >= kHello {
				l.connFailed(gen)
				return
			}
			t.stats.ctlRecvd.Add(1)
			if fn := t.onCtl; fn != nil {
				fn(l.peer, ck, rest) // rest is scratch: valid during the call only
			}
		}
		rx = uint64(h.seq)<<32 | uint64(uint32(rx)+wire)
		l.rx.Store(rx)
		if ackDue(rx, l.ackSent.Load()) {
			l.wake()
		}
	}
}
