package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hal/internal/amnet"
)

// wireBeh is a migrating behavior of a user type: opaque to the codec,
// carried by gob, and holding a Group so slot0 must survive GobEncode.
type wireBeh struct {
	Count int
	Next  Addr
	G     Group
}

func (*wireBeh) Receive(*Context, *Message) {}

// wirePoint is a registered user argument type; wireStranger is not
// registered anywhere.
type wirePoint struct{ X, Y int }
type wireStranger struct{ X int }

func init() {
	gob.Register(&wireBeh{})
	gob.Register(wirePoint{})
}

// wireCases is one payload of every kind the codec carries, each built
// around the corners the layout has to keep apart.  prog must belong to
// the codec's machine so decoding resolves to the same pointer.
func wireCases(prog *Program) map[string]any {
	grp := Group{ID: 3<<40 | 9, N: 5, Birth: 3, Base: 1, Nodes: 4, slot0: 77}
	plain := msgWith(&Message{
		To: Addr{Birth: 1, Hint: 2, Seq: 99}, Sel: -4,
		Reply: ReplyTo{Node: 1, JC: 12, Slot: -3},
		src:   2 | srcRouted, originLD: 1 << 50, dstSeq: 5, vt: 1234.5, prog: prog,
	}, 7, -1<<40, int64(math.MinInt64), uint64(math.MaxUint64), 2.5, true, false, "héllo", "")
	handles := msgWith(&Message{
		To: Nil, Sel: math.MaxInt32, Reply: invalidReply, src: maxNodes - 1,
		Data: []float64{},
	}, nil, Addr{Birth: 0, Hint: 3, Seq: 1 << 63}, grp, ReplyTo{Node: amnet.NoNode},
		Selector(-9), TypeID(4), []float64{1, -2}, []float64(nil), []float64{})
	opaque := msgWith(&Message{
		To:   Addr{Birth: 0, Hint: 0, Seq: 1},
		Data: []float64{3, 4, 5},
		prog: prog,
	}, Ref{V: wirePoint{X: 1, Y: -2}}, Ref{V: int32(-7)}, Ref{V: []string{"a", "b"}})
	// A letter of a stream (order.go): its number rides in the high half
	// of the origin word.
	numbered := func() *Message {
		return msgWith(&Message{To: Addr{Birth: 2, Hint: 2, Seq: 7}, src: 3, originLD: 1<<40 | 5, num: math.MaxUint32}, 1)
	}
	return map[string]any{
		"msg/numbered":  numbered(),
		"msg/scalars":   plain,
		"msg/handles":   handles,
		"msg/opaque":    opaque,
		"msg/nil-lists": &Message{To: Addr{Seq: 2}},
		// A message has one form of "no arguments": an empty list is the
		// nil list, in memory and on the wire.
		"msg/empty-args": msgWith(&Message{To: Addr{Seq: 2}, shared: true}, []any{}...),
		// The inline form: at most four one-word values ("msg/scalars" and
		// "msg/handles" take the overflow list).
		"msg/inline-words": msgWith(&Message{To: Addr{Seq: 3}}, nil, true, Selector(-9), TypeID(4)),
		"spawn":            &spawnRecord{alias: Addr{Birth: 2, Hint: 0, Seq: 8}, typ: 3, args: []any{1, grp}, vt: 9.25, prog: prog},
		"spawn/no-args":    &spawnRecord{alias: Nil, typ: -1},
		"fir":              firReq{addr: Addr{Birth: 1, Hint: 1, Seq: 4}, path: []amnet.NodeID{0, 65536, amnet.NoNode, 3, 4, 5, 6, 7}},
		"fir/nil-path":     firReq{addr: Addr{Seq: 4}},
		"fir/empty-path":   firReq{addr: Addr{Seq: 4}, path: []amnet.NodeID{}},
		"mig": &migBundle{
			addr: Addr{Birth: 1, Hint: 1, Seq: 6}, alias: Addr{Birth: 0, Hint: 1, Seq: 2},
			behavior: &wireBeh{Count: 3, Next: Addr{Birth: 2, Hint: 2, Seq: 1}, G: grp},
			msgs:     []*Message{plain, handles},
			side:     &actorSide{pending: []*Message{opaque}},
			prog:     prog,
		},
		"mig/bare": &migBundle{addr: Addr{Seq: 1}, alias: Nil, msgs: []*Message{}},
		// An actor that has taken letters of three streams and holds one
		// out of turn.
		"mig/hold": &migBundle{
			addr: Addr{Birth: 2, Hint: 2, Seq: 7}, alias: Nil,
			in: inStream{ld: 1<<40 | 5, node: 3, last: 41},
			side: &actorSide{
				streams: []inStream{{ld: 9, node: 0, last: 1}, {ld: 1, node: maxNodes - 1, last: math.MaxUint32}},
				held:    []*Message{numbered()},
			},
		},
		"group":      groupCreate{g: grp, typ: 2, args: []any{"x", 1.5}, prog: prog},
		"bcast":      &bcastWork{g: grp, root: 3, msg: msgWith(&Message{To: Nil, Sel: 1, shared: true, prog: prog}, 1)},
		"reply":      replyEnvelope{v: "done", prog: prog},
		"reply/user": replyEnvelope{v: wirePoint{X: 5}},
		"reply/nil":  replyEnvelope{},
		// A word reply's payload (wire.go): its program alone.
		"prog":     prog,
		"prog/nil": (*Program)(nil),
	}
}

// wireCodec is a codec over a bare machine with program id 1 known.
func wireCodec() (*payloadCodec, *Program) {
	m := bareMachine()
	return &payloadCodec{m: m}, m.progForWire(1)
}

// TestPayloadRoundTrip: every kind comes back deeply equal to what went
// in — nil and empty lists apart, signs and unexported delivery state
// intact, program pointers resolved — and re-encodes to the same bytes.
// Encoding consumes a message (it may come back as the decoded one), so
// the decoded value is held against a second build of the case.
func TestPayloadRoundTrip(t *testing.T) {
	c, prog := wireCodec()
	for name := range wireCases(prog) {
		t.Run(name, func(t *testing.T) {
			in, want := wireCases(prog)[name], wireCases(prog)[name]
			prefix := []byte("frame head")
			enc, err := c.AppendPayload(prefix, &amnet.Packet{Payload: in})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(enc, prefix) {
				t.Fatal("AppendPayload disturbed the bytes before it")
			}
			enc = enc[len(prefix):]
			out, err := c.DecodePayload(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, out) {
				t.Errorf("decoded\n %#v\nwant\n %#v", out, want)
			}
			again, err := c.AppendPayload(nil, &amnet.Packet{Payload: out})
			if err != nil || !bytes.Equal(again, enc) {
				t.Errorf("re-encoding differs (err %v)", err)
			}
			// Every proper prefix is an error, never a panic or a value.
			for cut := 0; cut < len(enc); cut++ {
				if v, err := c.DecodePayload(enc[:cut]); err == nil {
					t.Fatalf("truncated to %d of %d bytes decoded as %#v", cut, len(enc), v)
				}
			}
			if _, err := c.DecodePayload(append(enc[:len(enc):len(enc)], 0)); err == nil {
				t.Error("a trailing byte went unnoticed")
			}
		})
	}
}

// TestPayloadFloatBits: NaN payloads and negative zero cross bit-exactly
// in every float position — inline argument words, an overflow list and a
// []float64 inside it, Data, vt (DeepEqual cannot say so: NaN != NaN).
func TestPayloadFloatBits(t *testing.T) {
	c, _ := wireCodec()
	nan := math.Float64frombits(0x7ff8000000000abc)
	negZero := math.Copysign(0, -1)
	for name, args := range map[string][]any{
		"inline":   {nan, negZero},
		"overflow": {nan, negZero, []float64{nan, negZero}},
	} {
		in := msgWith(&Message{To: Addr{Seq: 1}, Data: []float64{negZero, nan}, vt: negZero}, args...)
		if (in.more != nil) != (name == "overflow") {
			t.Fatalf("%s arguments: overflow list %v", name, in.more)
		}
		enc, err := c.AppendPayload(nil, &amnet.Packet{Payload: in})
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.DecodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		out := v.(*Message)
		got := append([]float64{out.Float(0), out.Float(1), out.Arg(0).(float64), out.vt}, out.Data...)
		want := []float64{nan, negZero, nan, negZero, negZero, nan}
		if name == "overflow" {
			got = append(got, out.Arg(2).([]float64)...)
			want = append(want, nan, negZero)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %d floats, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: float %d: bits %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestPayloadRefusals: what must not cross says why, and leaves the
// frame buffer as it found it.
func TestPayloadRefusals(t *testing.T) {
	c, prog := wireCodec()
	head := []byte{1, 2, 3}
	for _, tc := range []struct {
		name, want string
		payload    any
	}{
		{"unregistered arg", "gob.Register user types", msgWith(&Message{}, 1, Ref{V: wireStranger{X: 1}})},
		{"unregistered reply", "gob.Register user types", replyEnvelope{v: &wireStranger{}}},
		{"program launch", "program loads never cross the wire", progLaunch{prog: prog}},
		{"unknown type", "has no wire form", 42},
	} {
		buf, err := c.AppendPayload(head, &amnet.Packet{Payload: tc.payload})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if !bytes.Equal(buf, head) {
			t.Errorf("%s: buffer came back as %v", tc.name, buf)
		}
	}

	// Decoder side: a kind, a value tag and a program id from nowhere.
	msg, _ := c.AppendPayload(nil, &amnet.Packet{Payload: msgWith(&Message{To: Addr{Seq: 1}}, 1)})
	far, _ := c.AppendPayload(nil, &amnet.Packet{Payload: replyEnvelope{prog: &Program{id: maxProgAhead + 2}}})
	badTag := bytes.Clone(msg)
	badTag[len(badTag)-9] = 0xEE // the int argument's tag
	for name, b := range map[string][]byte{"empty": nil, "kind 0": {0}, "kind 99": {99, 0, 0}, "value tag": badTag, "program id": far} {
		if v, err := c.DecodePayload(b); err == nil {
			t.Errorf("%s decoded as %#v", name, v)
		}
	}
	if got := c.m.progSeq.Load(); got != 1 {
		t.Errorf("refused payloads materialized programs: progSeq %d, want 1", got)
	}
}

// TestProgForWireFillsGaps: an id ahead of the table materializes every
// id up to it, in order, once; a finished id resolves to nil from then on.
func TestProgForWireFillsGaps(t *testing.T) {
	m := bareMachine()
	p5 := m.progForWire(5)
	if p5 == nil || p5.id != 5 || m.progSeq.Load() != 5 {
		t.Fatalf("progForWire(5) = %+v with progSeq %d", p5, m.progSeq.Load())
	}
	for id := uint64(1); id <= 5; id++ {
		if p := m.progByID(id); p == nil || p.id != id {
			t.Errorf("program %d missing or misnumbered: %+v", id, p)
		}
	}
	if m.progForWire(5) != p5 || m.progForWire(0) != nil {
		t.Error("second resolution differs, or id 0 is not nil")
	}
	m.progByID(3).finishProg()
	p5.finishProg()
	if p, q := m.progForWire(3), m.progForWire(5); p != nil || q != nil {
		t.Errorf("finished programs resolve to %+v and %+v, want nil", p, q)
	}
	if len(m.progs) != 3 || m.progSeq.Load() != 5 {
		t.Errorf("table holds %d programs with progSeq %d, want 3 with 5", len(m.progs), m.progSeq.Load())
	}
}

// TestControlBodyRoundTrip covers the dist control plane's four bodies.
func TestControlBodyRoundTrip(t *testing.T) {
	rm := reportMsg{Wave: 7,
		Progs:   []progCountWire{{ID: 1, Created: 10, Consumed: -1}, {ID: 2}},
		Results: []resultWire{{Prog: 2, V: []byte{1, 2, 3}, Force: true}, {Prog: 1}}}
	var got reportMsg
	if err := decodeReport(rm.appendTo(nil), &got); err != nil || !reflect.DeepEqual(got, rm) {
		t.Errorf("report: %+v, %v", got, err)
	}
	// Decoding into a used report reuses it: nothing of the old one shows.
	if err := decodeReport(reportMsg{Wave: 1}.appendTo(nil), &got); err != nil ||
		got.Wave != 1 || len(got.Progs) != 0 || len(got.Results) != 0 {
		t.Errorf("empty report: %+v, %v", got, err)
	}
	if got, err := decodeProbe(probeMsg{Wave: 1 << 60}.appendTo(nil)); err != nil || got.Wave != 1<<60 {
		t.Errorf("probe: %+v, %v", got, err)
	}
	if got, err := decodeDone(doneMsg{Prog: 9}.appendTo(nil)); err != nil || got.Prog != 9 {
		t.Errorf("done: %+v, %v", got, err)
	}
	sm := shutMsg{Stalled: true, Msg: "counters stable"}
	if got, err := decodeShut(sm.appendTo(nil)); err != nil || got != sm {
		t.Errorf("shutdown: %+v, %v", got, err)
	}
	// Truncated and over-long bodies are errors; a lying count does not
	// allocate (the list check fails first).
	enc := rm.appendTo(nil)
	for cut := 0; cut < len(enc); cut++ {
		if err := decodeReport(enc[:cut], &got); err == nil {
			t.Fatalf("report truncated to %d bytes decoded", cut)
		}
	}
	lying := le.AppendUint32(le.AppendUint64(nil, 1), 1<<30)
	if err := decodeReport(lying, &got); err == nil {
		t.Error("report with a 2^30-entry list decoded")
	}
	if _, err := decodeDone(append(doneMsg{Prog: 1}.appendTo(nil), 0)); err == nil {
		t.Error("trailing byte after a done body went unnoticed")
	}
}

// FuzzPayloadDecode feeds the decoder arbitrary bytes: it must never
// panic, never allocate beyond what the input's size justifies (a count
// or length the bytes cannot back is refused before anything is made for
// it), and whatever it accepts must encode and decode again to itself.
//
// Allocation is read from the runtime, so the bound has slack for what
// one payload may legitimately cause: maxProgAhead placeholder programs
// (under 1 MiB), and, only when an opaque value is present, package gob's
// own buffers, which this codec does not control.
func FuzzPayloadDecode(f *testing.F) {
	c, prog := wireCodec()
	for name := range wireCases(prog) {
		// A fresh build per case: encoding consumes a message, and the
		// migration case carries the message cases' messages.
		enc, err := c.AppendPayload(nil, &amnet.Packet{Payload: wireCases(prog)[name]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := &payloadCodec{m: bareMachine()}
		slack := uint64(2 << 20)
		opaque := bytes.IndexByte(b, tvGob) >= 0
		if opaque {
			slack = 32 << 20
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		v, err := c.DecodePayload(b)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > slack+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		enc, err := c.AppendPayload(nil, &amnet.Packet{Payload: v})
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", v, err)
		}
		v2, err := c.DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		// gob does not promise one byte form per value, so only payloads
		// without an opaque part are held to a fixed point.
		if enc2, _ := c.AppendPayload(nil, &amnet.Packet{Payload: v2}); !opaque && !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}
