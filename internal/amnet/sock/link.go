package sock

import (
	"bufio"
	"net"
	"sync"
	"time"

	"hal/internal/amnet"
)

// outFrame is one queued wire write: a packet or a control message.
type outFrame struct {
	pkt     amnet.Packet
	urgent  bool
	isCtl   bool
	ctlKind uint8
	ctlBody []byte
}

// outqCap is the per-link outbound queue depth, in frames.  A full
// queue refuses TrySend, which propagates as the kernel's ordinary
// poll-while-stalled backpressure.
const outqCap = 8192

// Dial retry backoff bounds.  A dropped connection retries from
// redialMin, doubling to redialMax; the kernel's reliable layer covers
// the gap, so the backoff only has to avoid hammering a dead peer.
const (
	redialMin = 10 * time.Millisecond
	redialMax = 500 * time.Millisecond
)

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

	outq chan outFrame

	mu   sync.Mutex
	cond *sync.Cond // signaled on install and on close
	conn net.Conn
	gen  int // connection generation; stale failure reports are ignored
	up   bool
}

func newLink(t *Transport, peer int, network, raddr string) *link {
	l := &link{t: t, peer: peer, network: network, raddr: raddr,
		outq: make(chan outFrame, outqCap)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// offer enqueues a packet without blocking.  While the link is down the
// packet is accepted and dropped — the wire gap is a fault-plan event
// the kernel's reliable layer retries through — so a stalled sender
// never spins on a peer that is mid-redial.
func (l *link) offer(p amnet.Packet, urgent bool) bool {
	if !l.isUp() {
		l.t.stats.wireDropped.Add(1)
		return true
	}
	select {
	case l.outq <- outFrame{pkt: p, urgent: urgent}:
		return true
	default:
		return false
	}
}

// sendCtl enqueues a control message, blocking for queue space.  Control
// frames survive connection replacement: the writer re-sends one that
// failed mid-write.  body is retained; callers must not reuse it.
func (l *link) sendCtl(kind uint8, body []byte) error {
	select {
	case l.outq <- outFrame{isCtl: true, ctlKind: kind, ctlBody: body}:
		return nil
	case <-l.t.stopc:
		return errClosed
	}
}

func (l *link) isUp() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up
}

// install replaces the link's connection (initial handshake, redial, or
// re-accept), waking the writer and spawning the reader for it.
func (l *link) install(conn net.Conn) {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close() // stale connection from before the failure
	}
	l.gen++
	gen := l.gen
	l.conn = conn
	l.up = true
	l.cond.Broadcast()
	l.mu.Unlock()
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

// bounce force-closes the current connection without marking the link
// down-by-intent: readers and the writer hit I/O errors and run the
// ordinary failure path.  Test hook for mid-frame kill coverage.
func (l *link) bounce() {
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// waitUp blocks until the link has a live connection and returns it with
// its generation.  Recovery itself is not the caller's job: the dialing
// side's dialLoop (or the remote redialer plus this side's accept loop)
// installs the replacement.  A nil connection means the transport closed.
func (l *link) waitUp() (net.Conn, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.up {
		if l.t.isClosed() {
			return nil, 0
		}
		l.cond.Wait()
	}
	return l.conn, l.gen
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
		if c := l.redial(backoff); c != nil {
			l.install(c)
			l.t.stats.redials.Add(1)
			backoff = redialMin
			continue
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// redial attempts one connection to the peer, identifying this process
// with a mesh frame so the acceptor routes the connection to the right
// link.  Returns nil on failure (the caller backs off and retries).
func (l *link) redial(backoff time.Duration) net.Conn {
	conn, err := net.DialTimeout(l.network, l.raddr, redialMax)
	if err != nil {
		select {
		case <-l.t.stopc:
		case <-time.After(backoff):
		}
		return nil
	}
	if err := writeCtl(conn, kMesh, mustGob(meshMsg{From: l.t.self})); err != nil {
		conn.Close()
		return nil
	}
	return conn
}

// readBufBytes is each connection's read buffer: room for dozens of
// ordinary frames per read(2) without showing in the process's heap.
const readBufBytes = 16 << 10

// flushBatchFrames bounds how many frames the writer coalesces into the
// buffered writer before forcing a flush even with more queued: mirrors
// the in-memory BatchMax so one saturated link cannot starve latency
// indefinitely behind an ever-refilling queue.
const flushBatchFrames = 32

// writeLoop is the link's single writer: it drains the outbound queue
// into the connection, coalescing frames while the queue is non-empty
// (the wire analog of SendBatched's staging) and flushing when the
// queue empties, a frame is urgent, or flushBatchFrames accumulate.
func (l *link) writeLoop() {
	defer l.t.wg.Done()
	var buf []byte
	var pending *outFrame // control frame to re-send after reconnect
	for {
		conn, gen := l.waitUp()
		if conn == nil {
			return
		}
		w := bufio.NewWriterSize(conn, 64<<10)
		unflushed := 0
		for {
			var f outFrame
			if pending != nil {
				f, pending = *pending, nil
			} else {
				select {
				case f = <-l.outq:
				case <-l.t.stopc:
					w.Flush()
					return
				}
			}
			var err error
			buf, err = l.encode(buf[:0], &f)
			if err != nil {
				// Unencodable payload is a kernel bug, not a wire
				// condition; surface it loudly.
				panic(err)
			}
			_, err = w.Write(buf)
			if err == nil {
				unflushed++
				if f.urgent || f.isCtl || len(l.outq) == 0 || unflushed >= flushBatchFrames {
					err = w.Flush()
					unflushed = 0
				}
			}
			if err != nil {
				if f.isCtl {
					pending = &f // control frames must survive the gap
				} else {
					l.t.stats.wireDropped.Add(1)
				}
				l.connFailed(gen)
				break
			}
			if f.isCtl {
				l.t.stats.ctlSent.Add(1)
			} else {
				l.t.stats.wireSent.Add(1)
			}
			l.t.stats.wireBytesOut.Add(uint64(len(buf)))
		}
	}
}

// encode renders one outbound frame into buf.  A boxed packet payload
// is written by the payload codec straight into the frame, between the
// head and the data words; endPacketFrame back-patches its length.
func (l *link) encode(buf []byte, f *outFrame) ([]byte, error) {
	if f.isCtl {
		return appendControlFrame(buf, f.ctlKind, f.ctlBody)
	}
	start := len(buf)
	buf = beginPacketFrame(buf, &f.pkt)
	if f.pkt.Payload != nil {
		var err error
		if buf, err = l.t.codec.AppendPayload(buf, &f.pkt); err != nil {
			return buf[:start], err
		}
	}
	return endPacketFrame(buf, start, &f.pkt)
}

// readLoop drains one connection: packet frames decode and inject into
// the destination endpoint (blocking on inbox capacity — that is the
// wire's backpressure), control frames go to the kernel's control
// callback.  Any read or parse error retires the connection; recovery
// is the writer's redial (or the listener's re-accept).
func (l *link) readLoop(conn net.Conn, gen int) {
	defer l.t.wg.Done()
	t := l.t
	select {
	case <-t.startedc:
	case <-t.stopc:
		return
	}
	// One read(2) usually brings in several frames (a frame is a few
	// hundred bytes); frames larger than the buffer bypass it.
	br := bufio.NewReaderSize(conn, readBufBytes)
	var scratch []byte
	for {
		kind, body, s, err := readFrame(br, scratch)
		if err != nil {
			l.connFailed(gen)
			return
		}
		scratch = s
		t.stats.wireBytesIn.Add(uint64(4 + len(body) + 1))
		switch kind {
		case frPacket:
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
			}
		case frControl:
			ck, rest, cerr := parseControlBody(body)
			if cerr != nil {
				l.connFailed(gen)
				return
			}
			if ck == kMesh {
				continue // redial identification frame; already routed
			}
			t.stats.ctlRecvd.Add(1)
			if fn := t.onCtl; fn != nil {
				// The scratch buffer is reused for the next frame; the
				// callback owns a copy.
				b := make([]byte, len(rest))
				copy(b, rest)
				fn(l.peer, ck, b)
			}
		default:
			l.connFailed(gen)
			return
		}
	}
}
