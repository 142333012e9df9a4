package sock

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"hal/internal/amnet"
)

// appendPacketFrame assembles a whole packet frame around an already
// encoded payload section, the way link.encode does around the codec.
func appendPacketFrame(buf []byte, p *amnet.Packet, payload []byte) ([]byte, error) {
	start := len(buf)
	buf = append(beginPacketFrame(buf, p), payload...)
	return endPacketFrame(buf, start, p)
}

// randomPacket builds a packet with every wire-visible field populated
// from rng; payload is the already-encoded payload section.
func randomPacket(rng *rand.Rand) (amnet.Packet, []byte) {
	p := amnet.Packet{
		Handler: amnet.HandlerID(rng.Intn(256)),
		Src:     amnet.NodeID(rng.Intn(1 << 16)),
		Dst:     amnet.NodeID(rng.Intn(1 << 16)),
		U0:      rng.Uint64(),
		U1:      rng.Uint64(),
		U2:      rng.Uint64(),
		U3:      rng.Uint64(),
		VT:      rng.Float64() * 1e6,
	}
	if rng.Intn(2) == 0 {
		p.Data = make([]float64, rng.Intn(64))
		for i := range p.Data {
			p.Data[i] = rng.NormFloat64()
		}
		if len(p.Data) == 0 {
			p.Data = nil
		}
	}
	payload := make([]byte, rng.Intn(128))
	rng.Read(payload)
	if len(payload) == 0 {
		payload = nil
	}
	return p, payload
}

func packetsEqual(a, b amnet.Packet) bool {
	if a.Handler != b.Handler || a.Src != b.Src || a.Dst != b.Dst ||
		a.U0 != b.U0 || a.U1 != b.U1 || a.U2 != b.U2 || a.U3 != b.U3 ||
		math.Float64bits(a.VT) != math.Float64bits(b.VT) ||
		len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestFrameMetaRoundTrip pins packFrameMeta/unpackFrameMeta and the link
// word field for field: first the boundary values (NoNode is all ones as
// a uint32, the top bit and all ones of a section length or a sequence
// number) with neighbouring fields holding different ones, so a narrowed
// conversion, a dropped high half, two fields sharing bits and a swapped
// order each show; then random values.
func TestFrameMetaRoundTrip(t *testing.T) {
	check := func(src, dst amnet.NodeID, h amnet.HandlerID, payLen, dataLen uint32) {
		t.Helper()
		gs, gd, gh, gp, gl := unpackFrameMeta(packFrameMeta(src, dst, h, payLen, dataLen))
		if gs != src || gd != dst || gh != h || gp != payLen || gl != dataLen {
			t.Fatalf("meta round trip: (%d,%d,%d,%d,%d) -> (%d,%d,%d,%d,%d)",
				src, dst, h, payLen, dataLen, gs, gd, gh, gp, gl)
		}
		// The section lengths double as a (seq, ack) pair.
		if seq, ack := unpackLink(packLink(payLen, dataLen)); seq != payLen || ack != dataLen {
			t.Fatalf("link round trip: (%d,%d) -> (%d,%d)", payLen, dataLen, seq, ack)
		}
	}
	nodes := []amnet.NodeID{amnet.NoNode, 0, 1, 1 << 16, math.MaxInt32, math.MinInt32}
	lens := []uint32{0, 1, 1 << 16, 1 << 31, math.MaxUint32}
	handlers := []amnet.HandlerID{0, 1, 128, 255}
	for i, src := range nodes {
		for j, payLen := range lens {
			check(src, nodes[(i+1)%len(nodes)], handlers[(i+j)%len(handlers)],
				payLen, lens[(j+1)%len(lens)])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		check(amnet.NodeID(rng.Int31()), amnet.NodeID(rng.Int31()),
			amnet.HandlerID(rng.Intn(256)), rng.Uint32(), rng.Uint32())
	}
}

// TestPacketFrameRoundTrip streams random packets through the framer and
// parser, interleaved with control frames, over one buffer — the same
// mixed stream a connection carries.
func TestPacketFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var stream bytes.Buffer
	type sent struct {
		pkt      amnet.Packet
		payload  []byte
		ctl, ack bool
		kind     uint8
		body     []byte
		seq, lnk uint32 // the link word's halves
	}
	var wantSeq []sent
	var buf []byte
	for i := 0; i < 500; i++ {
		var err error
		w := sent{seq: rng.Uint32(), lnk: rng.Uint32()}
		switch rng.Intn(5) {
		case 0:
			w.ctl, w.kind = true, uint8(rng.Intn(256))
			w.body = make([]byte, rng.Intn(64))
			rng.Read(w.body)
			buf, err = appendControlFrame(buf[:0], w.kind, w.body)
		case 1:
			w.ack, w.seq = true, 0
			buf = appendAckFrame(buf[:0], w.lnk)
		default:
			w.pkt, w.payload = randomPacket(rng)
			buf, err = appendPacketFrame(buf[:0], &w.pkt, w.payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !w.ack {
			stampLink(buf, w.seq, w.lnk)
		}
		wantSeq = append(wantSeq, w)
		stream.Write(buf)
	}

	var scratch []byte
	for i, want := range wantSeq {
		h, body, s, err := readFrame(&stream, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = s
		kind := h.kind
		if h.seq != want.seq || h.ack != want.lnk {
			t.Fatalf("frame %d: link word (%d,%d), want (%d,%d)", i, h.seq, h.ack, want.seq, want.lnk)
		}
		if want.ack {
			if kind != frAck || len(body) != 0 {
				t.Fatalf("frame %d: kind %d with %d trailing bytes, want a bare ack", i, kind, len(body))
			}
			continue
		}
		if want.ctl {
			if kind != frControl {
				t.Fatalf("frame %d: kind %d, want control", i, kind)
			}
			ck, rest, err := parseControlBody(body)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if ck != want.kind || !bytes.Equal(rest, want.body) {
				t.Fatalf("frame %d: control (%d, %x) != (%d, %x)", i, ck, rest, want.kind, want.body)
			}
			continue
		}
		if kind != frPacket {
			t.Fatalf("frame %d: kind %d, want packet", i, kind)
		}
		p, payload, err := parsePacketBody(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !packetsEqual(p, want.pkt) {
			t.Fatalf("frame %d: packet %+v != %+v", i, p, want.pkt)
		}
		if !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %d: payload %x != %x", i, payload, want.payload)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes in the stream", stream.Len())
	}
}

// TestReadFrameTruncation proves every prefix of a valid frame fails
// cleanly: header short-reads surface the io error, body short-reads wrap
// it as a mid-frame death, and no prefix ever parses as a frame.
func TestReadFrameTruncation(t *testing.T) {
	p := amnet.Packet{Handler: 7, Src: 1, Dst: 2, U0: 42, VT: 3.5,
		Data: []float64{1, 2, 3}}
	whole, err := appendPacketFrame(nil, &p, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	stampLink(whole, 11, 5)
	ack := appendAckFrame(nil, 99)
	for _, fr := range [][]byte{whole, ack} {
		for cut := 0; cut < len(fr); cut++ {
			_, _, _, err := readFrame(bytes.NewReader(fr[:cut]), nil)
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes parsed as a frame", cut, len(fr))
			}
			if cut > 4 && err != nil {
				// Past the header the failure must be the mid-frame wrap, and
				// it must preserve the io error underneath.
				if !errorIsUnexpectedEOF(err) {
					t.Fatalf("truncation at %d: error %v does not wrap an io short-read", cut, err)
				}
			}
		}
	}
	if h, rest, _, err := readFrame(bytes.NewReader(ack), nil); err != nil || h != (frameHead{frAck, 0, 99}) || len(rest) != 0 {
		t.Fatalf("whole ack frame: head %+v rest %x err %v", h, rest, err)
	}
	// The whole frame still parses after all that.
	h, body, _, err := readFrame(bytes.NewReader(whole), nil)
	if err != nil || h != (frameHead{frPacket, 11, 5}) {
		t.Fatalf("whole frame: head %+v err %v", h, err)
	}
	got, payload, err := parsePacketBody(body)
	if err != nil || !packetsEqual(got, p) || string(payload) != "payload" {
		t.Fatalf("whole frame: %+v %q %v", got, payload, err)
	}
}

func errorIsUnexpectedEOF(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestReadFrameLengthBounds pins the corrupt-length-prefix guards: zero,
// shorter-than-a-head and oversized lengths are rejected before any
// allocation happens.
func TestReadFrameLengthBounds(t *testing.T) {
	for _, n := range []uint32{0, frameHeadBytes - 1, maxFrameBody + 1, math.MaxUint32} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		if _, _, _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil {
			t.Fatalf("length %d accepted", n)
		}
	}
}

// TestAckFrameLength pins the ack frame's exact size: its body is the
// kind byte and the link word, and one with anything after them is a
// corrupt stream, not an ack with options.
func TestAckFrameLength(t *testing.T) {
	fr := appendAckFrame(nil, 7)
	if len(fr) != ackFrameBytes {
		t.Fatalf("ack frame is %d bytes, want %d", len(fr), ackFrameBytes)
	}
	long := append(append([]byte(nil), fr...), 0xEE)
	binary.LittleEndian.PutUint32(long, frameHeadBytes+1)
	if _, _, _, err := readFrame(bytes.NewReader(long), nil); err == nil {
		t.Fatal("ack frame with a trailing byte accepted")
	}
	// The same length is fine on a frame kind that has a body.
	long[frameKindOff] = frControl
	if h, rest, _, err := readFrame(bytes.NewReader(long), nil); err != nil || h.kind != frControl || len(rest) != 1 {
		t.Fatalf("one-byte control frame: head %+v rest %x err %v", h, rest, err)
	}
}

// TestParsePacketBodyCorruption pins the section-length cross-checks.
func TestParsePacketBodyCorruption(t *testing.T) {
	p := amnet.Packet{Handler: 1, Src: 0, Dst: 1, Data: []float64{4, 5}}
	whole, err := appendPacketFrame(nil, &p, []byte{0xAA, 0xBB})
	if err != nil {
		t.Fatal(err)
	}
	body := whole[frameMetaOff:] // strip length prefix, kind byte and link word

	if _, _, err := parsePacketBody(body[:packetFixed-1]); err == nil {
		t.Fatal("short fixed section accepted")
	}
	// Declared payload length disagreeing with the actual body size.
	bad := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(bad[16:], uint64(1)<<32|uint64(16)) // payLen=1
	if _, _, err := parsePacketBody(bad); err == nil {
		t.Fatal("section/body length mismatch accepted")
	}
	// Non-word-aligned data section.
	bad = append(bad[:0], body...)
	binary.LittleEndian.PutUint64(bad[16:], uint64(3)<<32|uint64(15)) // 3+15 == 18 == rest
	if _, _, err := parsePacketBody(bad); err == nil {
		t.Fatal("unaligned data section accepted")
	}
	// Oversized frame refused at append time.
	big := amnet.Packet{Data: make([]float64, maxFrameBody/8+1)}
	if _, err := appendPacketFrame(nil, &big, nil); err == nil {
		t.Fatal("oversized packet frame accepted")
	}
	if _, err := appendControlFrame(nil, 1, make([]byte, maxFrameBody)); err == nil {
		t.Fatal("oversized control frame accepted")
	}
}

// TestReadFrameScratchReuse proves the scratch buffer grows once and is
// reused: the returned body aliases it, matching the documented contract
// that callers consume the body before the next readFrame.  After the
// first frame a read allocates nothing — the length prefix lands in the
// scratch buffer too.
func TestReadFrameScratchReuse(t *testing.T) {
	var stream bytes.Buffer
	var buf []byte
	for i := 0; i < 3; i++ {
		buf, _ = appendControlFrame(buf[:0], uint8(i), bytes.Repeat([]byte{byte(i)}, 32))
		stream.Write(buf)
	}
	var scratch []byte
	var lastCap int
	for i := 0; i < 3; i++ {
		_, body, s, err := readFrame(&stream, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if ck, rest, _ := parseControlBody(body); ck != uint8(i) || len(rest) != 32 {
			t.Fatalf("frame %d: kind %d len %d", i, ck, len(rest))
		}
		scratch = s
		if i > 0 && cap(s) != lastCap {
			t.Fatalf("scratch reallocated on same-size frame: %d -> %d", lastCap, cap(s))
		}
		lastCap = cap(s)
	}
	if raceEnabled {
		return // the detector's instrumentation allocates
	}
	r := bytes.NewReader(buf)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(buf)
		if _, _, scratch, _ = readFrame(r, scratch); len(scratch) == 0 {
			t.Fatal("readFrame lost the scratch buffer")
		}
	}); n != 0 {
		t.Fatalf("readFrame allocates %v times per frame with a warm scratch buffer, want 0", n)
	}
}
