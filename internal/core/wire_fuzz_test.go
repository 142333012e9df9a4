package core

import (
	"encoding/binary"
	"math"
	"testing"

	"hal/internal/amnet"
)

// FuzzReplyValueRoundTrip checks that every one-word member of the value
// set survives the word encoding bit-exactly.  The word form is the one
// place a value travels without its Go type — a reply packet's U2, a
// message's inline argument word — so a tag or bit-pattern slip silently
// corrupts join-continuation results and arguments alike.
func FuzzReplyValueRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), uint64(0), false)
	f.Add(uint64(1), int64(-7), uint64(0), true)
	f.Add(uint64(2), int64(0), math.Float64bits(3.5), false)
	f.Add(uint64(2), int64(0), uint64(0x7ff8000000000001), false) // NaN payload
	f.Add(uint64(3), int64(1<<62), uint64(1), true)
	f.Add(uint64(4), int64(math.MinInt64), uint64(0), false)
	f.Add(uint64(5), int64(0), uint64(math.MaxUint64), false)
	f.Add(uint64(6), int64(math.MinInt32), uint64(0), false)
	f.Add(uint64(7), int64(math.MaxInt32), uint64(0), false)
	f.Fuzz(func(t *testing.T, kind uint64, i int64, fbits uint64, b bool) {
		var v any
		switch kind % 8 {
		case 0:
			v = nil
		case 1:
			v = int(i)
		case 2:
			v = math.Float64frombits(fbits)
		case 3:
			v = b
		case 4:
			v = i
		case 5:
			v = fbits
		case 6:
			v = Selector(int32(i))
		case 7:
			v = TypeID(int32(i))
		}
		tag, bits, ok := wordOf(v)
		if !ok || !isWordTag(tag) {
			t.Fatalf("wordOf(%#v) = tag %d, ok %v: not a word", v, tag, ok)
		}
		got := wordValue(tag, bits)
		if want, isF := v.(float64); isF {
			gf, isF := got.(float64)
			if !isF || math.Float64bits(gf) != math.Float64bits(want) {
				t.Fatalf("float round-trip: got %#v, want bits %#x", got, math.Float64bits(want))
			}
		} else if got != v {
			t.Fatalf("round-trip: got %#v, want %#v", got, v)
		}
		// The same value as a message argument: inline, and the same again
		// after the codec's word body.
		msg := msgWith(&Message{}, v)
		r := wireReader{b: appendWord(nil, tag, bits)}
		if msg.more != nil || msg.tags[0] != tag || msg.w[0] != bits || r.word(tag) != bits || r.done() != nil {
			t.Fatalf("%#v as an argument: tag %d word %#x overflow %v (wire %v)", v, msg.tags[0], msg.w[0], msg.more, r.done())
		}
	})
}

// FuzzFIRRoundTrip checks that any word-encodable forwarding path comes
// back from the packet form hop-for-hop: the FIR encoding packs up to
// seven 16-bit hops plus a count into two words, which is exactly the
// kind of shift arithmetic an off-by-one quietly truncates.
func FuzzFIRRoundTrip(f *testing.F) {
	f.Add(uint64(17), int32(1), int32(2), []byte{})
	f.Add(uint64(1)<<40, int32(0), int32(3), []byte{0x03, 0x00, 0xff, 0xff})
	f.Add(uint64(0), int32(-1), int32(-1), []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0})
	f.Fuzz(func(t *testing.T, seq uint64, birth, hint int32, hopBytes []byte) {
		var path []amnet.NodeID
		for i := 0; i+1 < len(hopBytes) && len(path) < firMaxHops; i += 2 {
			path = append(path, amnet.NodeID(binary.LittleEndian.Uint16(hopBytes[i:])))
		}
		addr := Addr{Birth: amnet.NodeID(birth), Hint: amnet.NodeID(hint), Seq: seq}
		pkt, ok := encodeFIRPacket(3, addr, path)
		if !ok {
			t.Fatalf("encodeFIRPacket rejected a %d-hop path of 16-bit ids", len(path))
		}
		req := decodeFIRWords(pkt, nil)
		if req.addr != addr {
			t.Fatalf("addr round-trip: got %v, want %v", req.addr, addr)
		}
		if len(req.path) != len(path) {
			t.Fatalf("path length: got %d, want %d", len(req.path), len(path))
		}
		for i := range path {
			if req.path[i] != path[i] {
				t.Fatalf("hop %d: got %d, want %d", i, req.path[i], path[i])
			}
		}
	})
}

// FuzzLocRoundTrip checks the two codecs every other word encoding is
// built from: packNodes/unpackNodes and locPacket/decodeLoc.  Each field
// is compared on its own, and the seeds are the boundary values — NoNode
// (all ones as a uint32), the largest node id, the top bit and all ones
// of a sequence word — in every position at once, so a narrowed
// conversion, a shift that drops the high half, two fields sharing bits
// and a swapped field order each fail some comparison.
func FuzzLocRoundTrip(f *testing.F) {
	nodes := []int32{int32(amnet.NoNode), 0, 1, 1 << 16, math.MaxInt32, math.MinInt32}
	seqs := []uint64{0, 1, 1 << 32, 1 << 63, math.MaxUint64}
	for i, birth := range nodes {
		for j, seq := range seqs {
			// Neighbouring fields take different boundary values.
			hint, node := nodes[(i+1)%len(nodes)], nodes[(i+2)%len(nodes)]
			f.Add(seq, birth, hint, node, seqs[(j+1)%len(seqs)], uint8(i), int32(j))
		}
	}
	f.Fuzz(func(t *testing.T, aseq uint64, birth, hint, node int32, seq uint64, h uint8, dst int32) {
		a, b := unpackNodes(packNodes(amnet.NodeID(birth), amnet.NodeID(hint)))
		if a != amnet.NodeID(birth) || b != amnet.NodeID(hint) {
			t.Fatalf("nodes round trip: (%d, %d) -> (%d, %d)", birth, hint, a, b)
		}
		addr := Addr{Birth: amnet.NodeID(birth), Hint: amnet.NodeID(hint), Seq: aseq}
		pkt := locPacket(amnet.HandlerID(h), amnet.NodeID(dst), addr, amnet.NodeID(node), seq)
		if pkt.Handler != amnet.HandlerID(h) || pkt.Dst != amnet.NodeID(dst) {
			t.Fatalf("routing: handler %d dst %d, want %d %d", pkt.Handler, pkt.Dst, h, dst)
		}
		if pkt.Payload != nil || pkt.Data != nil {
			t.Fatalf("a location triple must ride in the four words alone: %+v", pkt)
		}
		gotAddr, gotNode, gotSeq := decodeLoc(pkt)
		if gotAddr.Birth != addr.Birth || gotAddr.Hint != addr.Hint || gotAddr.Seq != addr.Seq {
			t.Fatalf("addr round trip: got %+v, want %+v", gotAddr, addr)
		}
		if gotNode != amnet.NodeID(node) {
			t.Fatalf("node round trip: got %d, want %d", gotNode, node)
		}
		if gotSeq != seq {
			t.Fatalf("seq round trip: got %#x, want %#x", gotSeq, seq)
		}
	})
}
