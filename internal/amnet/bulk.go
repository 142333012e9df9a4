package amnet

// Three-phase bulk transfer with selectable flow control.
//
// Active messages are not buffered at the receiver, so CMAM moves bulk data
// with a three-phase protocol: the sender announces the transfer (request),
// the receiver acknowledges when it is ready (ack), and only then do data
// segments flow, followed by a finishing message that delivers the payload
// to its handler.  The paper's contribution is the acknowledgment policy:
// the node manager grants only ONE active inbound transfer at a time
// (FlowOneActive), which keeps segments of concurrent transfers from
// backing up in the network and starving the small messages that drive
// software pipelining.
//
// Three policies are provided so the Table 1 experiment can compare them:
//
//   - FlowOneActive: the paper's minimal flow control.
//   - FlowAckAll:    three-phase protocol but every request is granted
//     immediately; concurrent transfers interleave freely (plain CMAM).
//   - FlowEager:     no handshake at all; the sender injects all segments
//     inline, stalling its PE whenever the destination link fills.
//
// With FlowOneActive and FlowAckAll the sending PE never blocks on bulk
// data: segments are pushed opportunistically from the poll loop (pump),
// so computation overlaps communication.  With FlowEager the send happens
// on the caller's stack, so a congested link steals compute cycles — the
// "packet back-up" effect Table 1 attributes to running without flow
// control.

import "time"

// FlowMode selects the bulk-transfer acknowledgment policy.
type FlowMode uint8

const (
	// FlowOneActive grants one inbound transfer at a time per node (the
	// paper's minimal flow control).  Default.
	FlowOneActive FlowMode = iota
	// FlowAckAll grants every transfer immediately.
	FlowAckAll
	// FlowEager skips the handshake and pushes segments inline.
	FlowEager
)

// String returns the mode's name.
func (m FlowMode) String() string {
	switch m {
	case FlowOneActive:
		return "one-active"
	case FlowAckAll:
		return "ack-all"
	case FlowEager:
		return "eager"
	default:
		return "invalid"
	}
}

// Reserved handler ids for the bulk protocol.  The runtime kernel must not
// use these.
const (
	HBulkReq HandlerID = 250 + iota
	HBulkAck
	HBulkSeg
	HBulkFin
)

// finEnvelope carries the user's finishing packet whole inside HBulkFin.
type finEnvelope struct {
	fin Packet
}

type outXfer struct {
	id    uint64
	dst   NodeID
	data  []float64
	off   int
	fin   Packet
	ready bool      // granted; segments may flow
	reqAt time.Time // when the request was sent, for GrantWait
}

type inXfer struct {
	buf     []float64
	granted bool // holds the FlowOneActive grant
}

type xferKey struct {
	src NodeID
	id  uint64
}

type bulkState struct {
	nextID uint64
	// Sender side: transfers awaiting grant or still pushing, FIFO.
	out []*outXfer
	// Receiver side.
	in      map[xferKey]*inXfer
	grantQ  []Packet // requests awaiting a grant (FlowOneActive)
	granted int      // inbound transfers currently holding a grant
}

func (b *bulkState) init(ep *Endpoint) {
	b.in = make(map[xferKey]*inXfer)
}

// BulkSend transfers data to dst and then delivers fin on dst with
// fin.Data set to the transferred payload.  Ownership of data passes to
// the network; the caller must not mutate it afterwards.  fin.Dst and
// fin.Src are stamped by the protocol; fin.Data is overwritten.
//
// Under FlowOneActive and FlowAckAll the call returns immediately and the
// transfer progresses from the endpoint's poll loop.  Under FlowEager, and
// for payloads of at most one segment, the data is injected inline before
// BulkSend returns (stalling the caller if links are full).
func (ep *Endpoint) BulkSend(dst NodeID, data []float64, fin Packet) {
	if ep.net.IsRemote(dst) {
		// The three-phase protocol's bookkeeping (finEnvelope, grant
		// state) is process-local; the kernel ships cross-process bulk
		// data inside a single framed packet instead, and the wire's own
		// flow control replaces the grant protocol.
		panic("amnet: BulkSend to a non-resident node; frame the data in one packet instead")
	}
	// Every branch below opens with a Send, which drains what is staged for
	// this link first: a small-then-bulk sequence to one peer cannot
	// reorder.
	ep.stats.BulkSends++
	fin.Dst = dst
	b := &ep.bulk
	b.nextID++
	id := b.nextID
	seg := ep.net.cfg.SegWords

	if ep.net.cfg.Flow == FlowEager || len(data) <= seg {
		for off := 0; off < len(data); off += seg {
			end := min(off+seg, len(data))
			ep.Send(Packet{Handler: HBulkSeg, Dst: dst, U0: id, U1: uint64(off), U2: uint64(len(data)), Data: data[off:end]})
		}
		ep.Send(Packet{Handler: HBulkFin, Dst: dst, U0: id, Payload: finEnvelope{fin: fin}})
		return
	}

	//halvet:allowwallclock reqAt seeds the GrantWait host-latency histogram, host-time by design
	x := &outXfer{id: id, dst: dst, data: data, fin: fin, reqAt: time.Now()}
	b.out = append(b.out, x)
	ep.Send(Packet{Handler: HBulkReq, Dst: dst, U0: id, U1: uint64(len(data))})
}

func registerBulkHandlers(nw *Network) {
	nw.Register(HBulkReq, func(ep *Endpoint, p Packet) {
		b := &ep.bulk
		if nw.cfg.Flow == FlowOneActive && b.granted > 0 {
			ep.stats.BulkQueued++
			b.grantQ = append(b.grantQ, p)
			return
		}
		ep.grant(p)
	})
	nw.Register(HBulkAck, func(ep *Endpoint, p Packet) {
		b := &ep.bulk
		for _, x := range b.out {
			if x.id == p.U0 && x.dst == p.Src {
				if !x.ready {
					//halvet:allowwallclock GrantWait is a host-microsecond latency histogram (observability plane, not simulation state)
					ep.stats.GrantWait.Observe(float64(time.Since(x.reqAt)) / 1e3)
				}
				x.ready = true
				break
			}
		}
		b.pump(ep)
	})
	nw.Register(HBulkSeg, func(ep *Endpoint, p Packet) {
		b := &ep.bulk
		k := xferKey{src: p.Src, id: p.U0}
		x := b.in[k]
		if x == nil {
			// Inline (ungranted) transfer: allocate on first segment.
			x = &inXfer{buf: make([]float64, int(p.U2))}
			b.in[k] = x
		}
		copy(x.buf[p.U1:], p.Data)
		ep.stats.BulkWords += uint64(len(p.Data))
	})
	nw.Register(HBulkFin, func(ep *Endpoint, p Packet) {
		b := &ep.bulk
		k := xferKey{src: p.Src, id: p.U0}
		x := b.in[k]
		var data []float64
		if x != nil {
			data = x.buf
			if x.granted {
				b.granted--
				if len(b.grantQ) > 0 {
					req := b.grantQ[0]
					b.grantQ = b.grantQ[1:]
					ep.grant(req)
				}
			}
			delete(b.in, k)
		}
		ep.stats.BulkRecvs++
		fin := p.Payload.(finEnvelope).fin
		fin.Src = p.Src
		fin.Dst = ep.id
		fin.Data = data
		ep.dispatch(fin)
	})
}

func (ep *Endpoint) grant(req Packet) {
	b := &ep.bulk
	k := xferKey{src: req.Src, id: req.U0}
	x := b.in[k]
	if x == nil {
		x = &inXfer{buf: make([]float64, int(req.U1))}
		b.in[k] = x
	}
	if ep.net.cfg.Flow == FlowOneActive && !x.granted {
		b.granted++
		x.granted = true
	}
	ep.Send(Packet{Handler: HBulkAck, Dst: req.Src, U0: req.U0})
}

// pump pushes segments of granted outbound transfers using TrySend so the
// PE never stalls on bulk data.  Called from PollAll and from the ack
// handler.  Transfers complete in FIFO order per sender.
func (b *bulkState) pump(ep *Endpoint) {
	seg := ep.net.cfg.SegWords
	for len(b.out) > 0 {
		x := b.out[0]
		if !x.ready {
			return // head-of-line transfer not yet granted
		}
		for x.off < len(x.data) {
			end := min(x.off+seg, len(x.data))
			ok := ep.TrySend(Packet{Handler: HBulkSeg, Dst: x.dst, U0: x.id, U1: uint64(x.off), U2: uint64(len(x.data)), Data: x.data[x.off:end]})
			if !ok {
				return // link full; resume on next pump
			}
			x.off = end
		}
		if !ep.TrySend(Packet{Handler: HBulkFin, Dst: x.dst, U0: x.id, Payload: finEnvelope{fin: x.fin}}) {
			return // retry the fin on the next pump
		}
		b.out = b.out[1:]
	}
}

// BulkBacklog reports the number of outbound transfers not yet fully
// injected.  Intended for tests and idle detection.
func (ep *Endpoint) BulkBacklog() int { return len(ep.bulk.out) }
