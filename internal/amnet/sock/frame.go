// Package sock is the wire transport: it carries amnet packets between
// the OS processes of a machine that spans more than one, over
// unix-domain or TCP sockets (amnet.Transport is the seam).
//
// The wire format is a length-prefixed frame stream per connection.
// Every frame is
//
//	u32 LE body length | kind byte | u64 LE link word | rest
//
// The kind byte selects the frame: a packet frame carries one
// amnet.Packet (fixed 72-byte word section, then the codec-encoded
// payload bytes, then the bulk data words), a control frame carries an
// out-of-band message for the kernel's distributed control plane or the
// transport's own handshake (control kind byte, then the body), and an
// ack frame is the link word alone.  The word section's packing
// (packFrameMeta/unpackFrameMeta below) is pinned field for field by
// TestFrameMetaRoundTrip and FuzzFrameRoundTrip.
//
// The link word is the link protocol (link.go): seq<<32 | ack, both
// 32-bit serial numbers.  seq numbers the packet and control frames of
// one direction of one process pair, 1, 2, 3, … across every connection
// the pair ever uses; ack is the highest seq of the opposite direction
// this side has delivered.  Ack and handshake frames are unsequenced
// (seq 0, ignored).
//
// Ordering: one connection per process pair, frames written by a single
// writer goroutine per link, so per-(src,dst) FIFO holds across the wire
// exactly as it does across the in-memory ring.  Loss: none.  The writer
// keeps the encoded bytes of every frame the peer has not acknowledged
// and replays them when a dropped connection is re-established; the
// reader delivers seq == last+1 and drops what it has already seen, so a
// frame crosses exactly once however often the connection bounces.
package sock

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hal/internal/amnet"
)

const (
	// frPacket frames one amnet.Packet; frControl frames an out-of-band
	// control message (rest: kind byte + payload); frAck carries only the
	// link word, for a side with nothing else to send.
	frPacket  byte = 1
	frControl byte = 2
	frAck     byte = 3

	// packetWords is the fixed word section of a packet body: three
	// meta words (packFrameMeta) + U0..U3 + VT bits + Seq.
	packetWords = 9
	packetFixed = packetWords * 8

	// frameHeadBytes is what every frame body starts with: the kind byte
	// and the link word.
	frameHeadBytes = 1 + 8

	// maxFrameBody bounds a frame body (128 MiB): large enough for any
	// workload segment, small enough that a corrupt length prefix
	// cannot drive a huge allocation.
	maxFrameBody = 1 << 27
)

// packFrameMeta packs a packet's routing and section lengths into the
// three leading wire words: src/dst node ids (w0, src high), the handler
// id (w1), and the payload/data byte-section lengths (w2, payload high).
func packFrameMeta(src, dst amnet.NodeID, h amnet.HandlerID, payLen, dataLen uint32) (w0, w1, w2 uint64) {
	return uint64(uint32(src))<<32 | uint64(uint32(dst)),
		uint64(h),
		uint64(payLen)<<32 | uint64(dataLen)
}

// unpackFrameMeta is the inverse of packFrameMeta.
func unpackFrameMeta(w0, w1, w2 uint64) (src, dst amnet.NodeID, h amnet.HandlerID, payLen, dataLen uint32) {
	return amnet.NodeID(int32(uint32(w0 >> 32))), amnet.NodeID(int32(uint32(w0))),
		amnet.HandlerID(uint8(w1)),
		uint32(w2 >> 32), uint32(w2)
}

// packLink and unpackLink are the link word's two halves.
func packLink(seq, ack uint32) uint64 { return uint64(seq)<<32 | uint64(ack) }

func unpackLink(w uint64) (seq, ack uint32) { return uint32(w >> 32), uint32(w) }

// Byte offsets inside a frame: the body-length prefix, the kind byte,
// the link word, then (packet frames) the fixed word section led by the
// three meta words.
const (
	frameKindOff    = 4
	frameLinkOff    = frameKindOff + 1
	frameMetaOff    = frameKindOff + frameHeadBytes
	framePayloadOff = frameMetaOff + packetFixed
)

// wireLen is the length on the wire of the encoded frame that begins at
// frame[0], read from its prefix.
func wireLen(frame []byte) int { return 4 + int(binary.LittleEndian.Uint32(frame)) }

// stampLink writes the link word of the frame beginning at frame[0].
// Frames are encoded with a zero link word; the link's writer stamps
// each one as it goes out.
func stampLink(frame []byte, seq, ack uint32) {
	binary.LittleEndian.PutUint64(frame[frameLinkOff:], packLink(seq, ack))
}

// beginPacketFrame appends the head of p's wire frame to buf: the length
// prefix and the meta words (both filled in by endPacketFrame, which
// alone knows the section lengths), the kind byte, the link word and the
// packet's words.  The caller appends the codec-encoded Payload bytes,
// if any, directly after it and then calls endPacketFrame with the
// offset the frame started at.
func beginPacketFrame(buf []byte, p *amnet.Packet) []byte {
	var head [framePayloadOff]byte
	head[frameKindOff] = frPacket
	binary.LittleEndian.PutUint64(head[frameMetaOff+24:], p.U0)
	binary.LittleEndian.PutUint64(head[frameMetaOff+32:], p.U1)
	binary.LittleEndian.PutUint64(head[frameMetaOff+40:], p.U2)
	binary.LittleEndian.PutUint64(head[frameMetaOff+48:], p.U3)
	binary.LittleEndian.PutUint64(head[frameMetaOff+56:], math.Float64bits(p.VT))
	binary.LittleEndian.PutUint64(head[frameMetaOff+64:], p.Seq)
	return append(buf, head[:]...)
}

// endPacketFrame completes the frame begun at buf[start:]: everything
// after the head is the payload section, whose length it back-patches
// into the meta words together with the frame's length prefix, and the
// bulk data words follow.  On error buf comes back cut to start.
func endPacketFrame(buf []byte, start int, p *amnet.Packet) ([]byte, error) {
	payLen := len(buf) - start - framePayloadOff
	body := frameHeadBytes + packetFixed + payLen + 8*len(p.Data)
	if body > maxFrameBody {
		return buf[:start], fmt.Errorf("sock: packet frame body %d exceeds the %d-byte cap", body, maxFrameBody)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(body))
	w0, w1, w2 := packFrameMeta(p.Src, p.Dst, p.Handler, uint32(payLen), uint32(8*len(p.Data)))
	meta := buf[start+frameMetaOff:]
	binary.LittleEndian.PutUint64(meta[0:], w0)
	binary.LittleEndian.PutUint64(meta[8:], w1)
	binary.LittleEndian.PutUint64(meta[16:], w2)
	for _, v := range p.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// parsePacketBody decodes a packet frame's body (the kind byte and link
// word already stripped).  The returned payload aliases body and must be
// consumed before the caller reuses its read buffer; Data is freshly
// allocated (it outlives the frame inside the destination inbox).
func parsePacketBody(body []byte) (p amnet.Packet, payload []byte, err error) {
	if len(body) < packetFixed {
		return p, nil, fmt.Errorf("sock: truncated packet frame: %d bytes, want at least %d", len(body), packetFixed)
	}
	w0 := binary.LittleEndian.Uint64(body[0:])
	w1 := binary.LittleEndian.Uint64(body[8:])
	w2 := binary.LittleEndian.Uint64(body[16:])
	src, dst, h, payLen, dataLen := unpackFrameMeta(w0, w1, w2)
	p.Src, p.Dst, p.Handler = src, dst, h
	p.U0 = binary.LittleEndian.Uint64(body[24:])
	p.U1 = binary.LittleEndian.Uint64(body[32:])
	p.U2 = binary.LittleEndian.Uint64(body[40:])
	p.U3 = binary.LittleEndian.Uint64(body[48:])
	p.VT = math.Float64frombits(binary.LittleEndian.Uint64(body[56:]))
	p.Seq = binary.LittleEndian.Uint64(body[64:])
	rest := body[packetFixed:]
	if uint64(payLen)+uint64(dataLen) != uint64(len(rest)) {
		return amnet.Packet{}, nil, fmt.Errorf("sock: packet frame sections (%d payload + %d data) disagree with body length %d",
			payLen, dataLen, len(rest))
	}
	if dataLen%8 != 0 {
		return amnet.Packet{}, nil, fmt.Errorf("sock: packet frame data section %d is not word-aligned", dataLen)
	}
	payload = rest[:payLen]
	if dataLen > 0 {
		words := rest[payLen:]
		p.Data = make([]float64, dataLen/8)
		for i := range p.Data {
			p.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	}
	return p, payload, nil
}

// appendControlFrame appends a control frame (length prefix included):
// kind selects the receiver-side dispatch, body rides opaque.
func appendControlFrame(buf []byte, kind uint8, body []byte) ([]byte, error) {
	n := frameHeadBytes + 1 + len(body)
	if n > maxFrameBody {
		return buf, fmt.Errorf("sock: control frame body %d exceeds the %d-byte cap", n, maxFrameBody)
	}
	var head [frameMetaOff + 1]byte
	binary.LittleEndian.PutUint32(head[:], uint32(n))
	head[frameKindOff] = frControl
	head[frameMetaOff] = kind
	return append(append(buf, head[:]...), body...), nil
}

// parseControlBody splits a control frame's body (kind byte and link
// word stripped) into the control kind and its payload.
func parseControlBody(body []byte) (kind uint8, rest []byte, err error) {
	if len(body) < 1 {
		return 0, nil, fmt.Errorf("sock: empty control frame")
	}
	return body[0], body[1:], nil
}

// ackFrameBytes is the whole of an ack frame on the wire.
const ackFrameBytes = 4 + frameHeadBytes

// appendAckFrame appends a standalone acknowledgement of everything up
// to ack.
func appendAckFrame(buf []byte, ack uint32) []byte {
	var fr [ackFrameBytes]byte
	binary.LittleEndian.PutUint32(fr[:], frameHeadBytes)
	fr[frameKindOff] = frAck
	stampLink(fr[:], 0, ack)
	return append(buf, fr[:]...)
}

// frameHead is the part of a frame every kind shares.
type frameHead struct {
	kind     byte
	seq, ack uint32
}

// readFrame reads one frame from r, reusing scratch when it is big
// enough (the length prefix is read into its head, so a warmed-up reader
// allocates nothing per frame).  It returns the frame's head, the rest
// of the body, and the (possibly grown) scratch buffer.  Short reads —
// a connection dying mid-frame — surface as io errors from ReadFull; an
// ack frame with anything after its link word is rejected here.
func readFrame(r io.Reader, scratch []byte) (h frameHead, rest, newScratch []byte, err error) {
	if cap(scratch) < 4 {
		scratch = make([]byte, 512)
	}
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return h, nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(scratch[:4])
	if n < frameHeadBytes || n > maxFrameBody {
		return h, nil, scratch, fmt.Errorf("sock: frame body length %d out of range [%d,%d]", n, frameHeadBytes, maxFrameBody)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return h, nil, scratch, fmt.Errorf("sock: connection died mid-frame: %w", err)
	}
	h.kind = scratch[0]
	h.seq, h.ack = unpackLink(binary.LittleEndian.Uint64(scratch[1:]))
	if h.kind == frAck && n != frameHeadBytes {
		return h, nil, scratch, fmt.Errorf("sock: ack frame body is %d bytes, want %d", n, frameHeadBytes)
	}
	return h, scratch[frameHeadBytes:], scratch, nil
}
