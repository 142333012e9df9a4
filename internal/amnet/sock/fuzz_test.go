package sock

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hal/internal/amnet"
)

// FuzzFrameRoundTrip drives the frame codec from both ends.  The input
// bytes are interpreted twice:
//
//  1. as packet material: a packet is built from the words, framed, read
//     back through readFrame, and compared bit for bit (the encoder and
//     decoder must be exact inverses for every input), and
//  2. as a raw wire stream fed straight to readFrame/parsePacketBody/
//     parseControlBody, which must never panic, never allocate
//     unboundedly, and either parse or error — hostile bytes are what a
//     half-dead peer writes.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed, _ := appendControlFrame(nil, 3, []byte("hello"))
	f.Add(seed)
	p := amnet.Packet{Handler: 9, Src: 3, Dst: 1, U0: 1, U1: 2, U2: 3, U3: 4,
		VT: 2.5, Seq: 77, Data: []float64{1, 2}}
	seed2, _ := appendPacketFrame(nil, &p, []byte{0xCA, 0xFE})
	f.Add(seed2)
	f.Add(appendAckFrame(nil, 1<<31))

	f.Fuzz(func(t *testing.T, in []byte) {
		// Direction 1: bytes -> packet -> frame -> packet.
		word := func(i int) uint64 {
			var w [8]byte
			copy(w[:], in[min(8*i, len(in)):])
			return binary.LittleEndian.Uint64(w[:])
		}
		pkt := amnet.Packet{
			Handler: amnet.HandlerID(word(0)),
			Src:     amnet.NodeID(int32(word(1))),
			Dst:     amnet.NodeID(int32(word(2))),
			U0:      word(3), U1: word(4), U2: word(5), U3: word(6),
			VT:  math.Float64frombits(word(7)),
			Seq: word(8),
		}
		var payload []byte
		if len(in) > 72 {
			payload = in[72:min(len(in), 72+512):min(len(in), 72+512)]
		}
		nData := int(word(9) % 65)
		if nData > 0 {
			pkt.Data = make([]float64, nData)
			for i := range pkt.Data {
				pkt.Data[i] = math.Float64frombits(word(10 + i))
			}
		}
		frame, err := appendPacketFrame(nil, &pkt, payload)
		if err != nil {
			t.Fatalf("framing a bounded packet failed: %v", err)
		}
		seq, ack := unpackLink(word(8) ^ word(3))
		stampLink(frame, seq, ack)
		h, body, _, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil || h != (frameHead{frPacket, seq, ack}) {
			t.Fatalf("reading own frame: head %+v err %v, want seq %d ack %d", h, err, seq, ack)
		}
		got, gotPayload, err := parsePacketBody(body)
		if err != nil {
			t.Fatalf("parsing own frame: %v", err)
		}
		if !packetsEqual(got, pkt) {
			t.Fatalf("packet round trip mismatch:\n got %+v\nwant %+v", got, pkt)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload round trip mismatch: %x != %x", gotPayload, payload)
		}

		// Direction 2: bytes as a hostile wire stream.  Parse frames until
		// an error or exhaustion; nothing here may panic.
		r := bytes.NewReader(in)
		var scratch []byte
		for {
			h, body, s, err := readFrame(r, scratch)
			if err != nil {
				break
			}
			scratch = s
			switch h.kind {
			case frPacket:
				if p, payload, err := parsePacketBody(body); err == nil {
					_ = p
					_ = payload
				}
			case frControl:
				if ck, rest, err := parseControlBody(body); err == nil {
					_ = ck
					_ = rest
				}
			}
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
