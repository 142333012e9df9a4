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
// Two policies are provided so the Table 1 experiment can compare them:
//
//   - FlowOneActive: the paper's minimal flow control.
//   - FlowEager:     no handshake at all; the sender injects all segments
//     inline, stalling its PE whenever the destination link fills.
//
// With FlowOneActive the sending PE never blocks on bulk data: segments
// are pushed opportunistically from the poll loop (pump), so computation
// overlaps communication.  With FlowEager the send happens on the
// caller's stack, so a congested link steals compute cycles — the
// "packet back-up" effect Table 1 attributes to running without flow
// control.
//
// Every packet of the protocol is a plain packet — words and a data
// section — so it runs unchanged between processes: the grants are the
// same grants, and a cut link replays segments like any other packet.
// The fin is the caller's packet itself, with its handler moved into U3
// beside the transfer id.

import "time"

// FlowMode selects the bulk-transfer acknowledgment policy.
type FlowMode uint8

const (
	// FlowOneActive grants one inbound transfer at a time per node (the
	// paper's minimal flow control).  Default.
	FlowOneActive FlowMode = iota
	// FlowEager skips the handshake and pushes segments inline.
	FlowEager
)

// String returns the mode's name.
func (m FlowMode) String() string {
	switch m {
	case FlowOneActive:
		return "one-active"
	case FlowEager:
		return "eager"
	default:
		return "invalid"
	}
}

// SegWords is the number of float64 words per bulk data segment (4 KiB
// segments).
const SegWords = 512

// Reserved handler ids for the bulk protocol.  The runtime kernel must not
// use these.
const (
	HBulkReq HandlerID = 250 + iota
	HBulkAck
	HBulkSeg
	HBulkFin
)

type outXfer struct {
	id    uint64
	dst   NodeID
	data  []float64
	off   int
	fin   Packet    // the HBulkFin packet
	ready bool      // granted; segments may flow
	reqAt time.Time // when the request was sent, for GrantWait
}

type inXfer struct {
	buf     []float64
	granted bool // holds the grant
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
	grantQ  []Packet // requests awaiting a grant
	granted int      // inbound transfers currently holding a grant
}

// reset drops every transfer in either direction.  Transfer ids keep
// counting, so a packet of a dropped transfer can never be taken for one
// of the next run's.
func (b *bulkState) reset() {
	clear(b.out)
	b.out = b.out[:0]
	clear(b.in)
	clear(b.grantQ)
	b.grantQ = b.grantQ[:0]
	b.granted = 0
}

// BulkSend transfers data to dst and then delivers fin on dst with
// fin.Data set to the transferred payload.  Ownership of data passes to
// the network; the caller must not mutate it afterwards.  fin.Dst and
// fin.Src are stamped by the protocol; fin.Data is overwritten, and fin.U3
// is the protocol's (it arrives zero).  dst may live in another process.
//
// Under FlowOneActive the call returns immediately and the transfer
// progresses from the endpoint's poll loop.  Under FlowEager, and for
// payloads of at most one segment, the data is injected inline before
// BulkSend returns (stalling the caller if links are full).
func (ep *Endpoint) BulkSend(dst NodeID, data []float64, fin Packet) {
	// Every branch below opens with a Send, which drains what is staged for
	// this link first: a small-then-bulk sequence to one peer cannot
	// reorder.
	ep.stats.BulkSends++
	b := &ep.bulk
	b.nextID++
	id := b.nextID
	// fin becomes the HBulkFin packet: its words, VT and payload ride
	// unchanged, and U3 carries the transfer id above its handler.
	fin.Dst, fin.Data = dst, nil
	fin.Handler, fin.U3 = HBulkFin, id<<8|uint64(fin.Handler)

	if ep.net.cfg.Flow == FlowEager || len(data) <= SegWords {
		for off := 0; off < len(data); off += SegWords {
			end := min(off+SegWords, len(data))
			ep.Send(Packet{Handler: HBulkSeg, Dst: dst, U0: id, U1: uint64(off), U2: uint64(len(data)), Data: data[off:end]})
		}
		ep.Send(fin)
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
		if b.granted > 0 {
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
		k := xferKey{src: p.Src, id: p.U3 >> 8}
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
		p.Handler, p.U3 = HandlerID(p.U3), 0
		p.Data = data
		ep.dispatch(p)
	})
}

func (ep *Endpoint) grant(req Packet) {
	b := &ep.bulk
	b.in[xferKey{src: req.Src, id: req.U0}] = &inXfer{buf: make([]float64, int(req.U1)), granted: true}
	b.granted++
	ep.Send(Packet{Handler: HBulkAck, Dst: req.Src, U0: req.U0})
}

// pump pushes segments of granted outbound transfers using TrySend so the
// PE never stalls on bulk data.  Called from PollAll and from the ack
// handler.  Transfers complete in FIFO order per sender.
func (b *bulkState) pump(ep *Endpoint) {
	for len(b.out) > 0 {
		x := b.out[0]
		if !x.ready {
			return // head-of-line transfer not yet granted
		}
		for x.off < len(x.data) {
			end := min(x.off+SegWords, len(x.data))
			ok := ep.TrySend(Packet{Handler: HBulkSeg, Dst: x.dst, U0: x.id, U1: uint64(x.off), U2: uint64(len(x.data)), Data: x.data[x.off:end]})
			if !ok {
				return // link full; resume on next pump
			}
			x.off = end
		}
		if !ep.TrySend(x.fin) {
			return // retry the fin on the next pump
		}
		b.out = b.out[1:]
	}
}

// BulkBacklog reports the number of outbound transfers not yet fully
// injected.  Intended for tests and idle detection.
func (ep *Endpoint) BulkBacklog() int { return len(ep.bulk.out) }
