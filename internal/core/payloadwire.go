package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"hal/internal/amnet"
	"hal/internal/names"
)

// The payload codec for a machine spanning several OS processes.  The
// frame codec (amnet/sock) moves Packet's fixed words bit-exactly; boxed
// payloads — the pointer-rich runtime-protocol bodies that move by
// reference inside one process — are this file's problem.  Each payload
// kind has one hand-written little-endian layout: a kind byte, the
// kind's fixed fields as 64-bit words, then its variable tails.
//
//	Addr     nodes(Birth,Hint) | Seq
//	ReplyTo  Node<<32|Slot | JC
//	Group    ID | N | nodes(Birth,Base) | Nodes | slot0
//	message  To | Sel<<32|flags | Reply | origin | originLD | dstSeq |
//	         vt bits | program id | Data floats | argument values
//	wtMsg    message
//	wtSpawn  alias | typ | vt bits | program id | args values
//	wtFIR    addr | path list (u32 node ids)
//	wtMig    addr | alias | program id | behavior value |
//	         msgs list (messages) | pending list (messages)
//	wtGroup  Group | typ | program id | args values
//	wtBcast  Group | root | message
//	wtReply  program id | value
//	wtProg   program id (a word reply's whole payload, wire.go)
//
// A list is a u32 element count (nilList marks a nil slice, so nil and
// empty survive the trip apart) followed by its elements; floats are a
// list of 8-byte words.  A value is a tag byte and the tag's body (see
// the tv* constants): the scalars, strings, kernel handle types and
// []float64 that make up the kernel's value set (types.go) are written as
// words — a message's inline argument words go out and come back as they
// are, never boxed in between; a message with no arguments writes the nil
// list and reads either form.  Any other value — an argument or reply
// passed as a Ref, a constructor argument of a user-defined type, a
// migrating Behavior — is opaque to the kernel and crosses as tvGob: its
// gob bytes, through gob's interface mechanism, so applications register
// those concrete types with gob.Register in every process, the same way
// they register behavior types with RegisterType.  gob appears nowhere else on the wire: no type
// descriptor is sent, and no gob engine built, for a payload made of the
// types above.
//
// Program pointers cross as leader-assigned ids, materialized on demand
// and nil once the program finished (progForWire).  Every decoder checks
// a length against the bytes that remain before it allocates for it.
//
// progLaunch deliberately has no wire form: its body is a Go closure.
// Programs load on the leader, whose node 0 serves hLoadProgram locally;
// a launch packet reaching the codec is a kernel bug, reported loudly.

func init() {
	// The kernel types that legally appear in interface slots inside an
	// opaque user value.  Scalars are pre-registered by package gob itself.
	gob.Register(names.Addr{})
	gob.Register(Group{})
	gob.Register(ReplyTo{})
	gob.Register(Selector(0))
	gob.Register(TypeID(0))
}

// Payload kind tags (first byte of every encoded payload).
const (
	wtMsg byte = 1 + iota
	wtSpawn
	wtFIR
	wtMig
	wtGroup
	wtBcast
	wtReply
	wtProg
)

// Value tags.
const (
	tvNil byte = iota
	tvInt
	tvInt64
	tvUint64
	tvFloat64
	tvBool
	tvString
	tvAddr
	tvGroup
	tvReplyTo
	tvSelector
	tvTypeID
	tvFloats
	tvGob // u32 length + encodeValue bytes
)

// Message flag bits (low half of the selector word).
const (
	mfRouted uint64 = 1 << iota
	mfShared
)

const (
	// nilList is the list header of a nil slice.
	nilList = ^uint32(0)

	// msgMinBytes is the shortest encoded message (fixed words plus two
	// empty list headers): what a message list charges per element when
	// its count is checked against the bytes remaining.
	msgMinBytes = 88

	// maxProgAhead bounds how far past the programs this process knows a
	// program id from the wire may lie.  Ids are dense and every process
	// hears of every program when it finishes (dcDone), so a real gap is
	// at most the programs in flight; a corrupt id must not materialize
	// placeholders without bound.
	maxProgAhead = 4096
)

var le = binary.LittleEndian

// --- encoding -------------------------------------------------------------

func appendAddr(b []byte, a Addr) []byte {
	b = le.AppendUint64(b, packNodes(a.Birth, a.Hint))
	return le.AppendUint64(b, a.Seq)
}

func appendReplyTo(b []byte, rt ReplyTo) []byte {
	b = le.AppendUint64(b, packNodes(rt.Node, amnet.NodeID(rt.Slot)))
	return le.AppendUint64(b, rt.JC)
}

func appendGroup(b []byte, g Group) []byte {
	b = le.AppendUint64(b, g.ID)
	b = le.AppendUint64(b, uint64(g.N))
	b = le.AppendUint64(b, packNodes(g.Birth, g.Base))
	b = le.AppendUint64(b, uint64(g.Nodes))
	return le.AppendUint64(b, g.slot0)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendBytes appends a u32 length and the bytes.
func appendBytes[T ~string | ~[]byte](b []byte, s T) []byte {
	b = le.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendListLen appends the header of list s.
func appendListLen[T any](b []byte, s []T) []byte {
	if s == nil {
		return le.AppendUint32(b, nilList)
	}
	return le.AppendUint32(b, uint32(len(s)))
}

func appendFloats(b []byte, f []float64) []byte {
	b = appendListLen(b, f)
	for _, v := range f {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// appendWord appends the body of a one-word value (wordOf's tag and bits).
func appendWord(b []byte, tag byte, w uint64) []byte {
	switch tag {
	case tvNil:
		return b
	case tvBool:
		return append(b, byte(w))
	case tvSelector, tvTypeID:
		return le.AppendUint32(b, uint32(w))
	}
	return le.AppendUint64(b, w)
}

// appendValue appends one tagged value.  Only the opaque escape can fail.
func appendValue(b []byte, v any) ([]byte, error) {
	if tag, w, ok := wordOf(v); ok {
		return appendWord(append(b, tag), tag, w), nil
	}
	switch x := v.(type) {
	case string:
		return appendBytes(append(b, tvString), x), nil
	case Addr:
		return appendAddr(append(b, tvAddr), x), nil
	case Group:
		return appendGroup(append(b, tvGroup), x), nil
	case ReplyTo:
		return appendReplyTo(append(b, tvReplyTo), x), nil
	case []float64:
		return appendFloats(append(b, tvFloats), x), nil
	}
	g, err := encodeValue(v)
	if err != nil {
		return b, err
	}
	return appendBytes(append(b, tvGob), g), nil
}

func appendValues(b []byte, vs []any) ([]byte, error) {
	b = appendListLen(b, vs)
	var err error
	for _, v := range vs {
		if b, err = appendValue(b, v); err != nil {
			return b, err
		}
	}
	return b, nil
}

func progID(p *Program) uint64 {
	if p == nil {
		return 0
	}
	return p.id
}

// appendMsg appends a Message, unexported delivery state included: a
// message forwarded across processes must keep its origin/cache
// bookkeeping or the receiving name server would repair the wrong caches.
func appendMsg(b []byte, msg *Message) ([]byte, error) {
	b = appendAddr(b, msg.To)
	var flags uint64
	if msg.routed {
		flags |= mfRouted
	}
	if msg.shared {
		flags |= mfShared
	}
	b = le.AppendUint64(b, uint64(uint32(msg.Sel))<<32|flags)
	b = appendReplyTo(b, msg.Reply)
	b = le.AppendUint64(b, uint64(uint32(msg.origin)))
	b = le.AppendUint64(b, msg.originLD)
	b = le.AppendUint64(b, msg.dstSeq)
	b = le.AppendUint64(b, math.Float64bits(msg.vt))
	b = le.AppendUint64(b, progID(msg.prog))
	b = appendFloats(b, msg.Data)
	if msg.more != nil {
		return appendValues(b, *msg.more)
	}
	if msg.nargs == 0 {
		return le.AppendUint32(b, nilList), nil // the one form of "no arguments"
	}
	b = le.AppendUint32(b, uint32(msg.nargs))
	for i, tag := range msg.tags[:msg.nargs] {
		b = appendWord(append(b, tag), tag, msg.w[i])
	}
	return b, nil
}

func appendMsgs(b []byte, msgs []*Message) ([]byte, error) {
	b = appendListLen(b, msgs)
	var err error
	for _, msg := range msgs {
		if b, err = appendMsg(b, msg); err != nil {
			return b, err
		}
	}
	return b, nil
}

// payloadCodec implements amnet.PayloadCodec for one machine process.
type payloadCodec struct {
	m *Machine
}

var _ amnet.PayloadCodec = (*payloadCodec)(nil)

// AppendPayload appends a boxed kernel payload's wire form to buf.  On
// error buf comes back at its original length.  A message that encodes is
// consumed: a sent message is the sender's no longer (types.go), its bytes
// are all the link keeps, so it goes back to the machine's spill pool for
// the next decode — unless it is shared (a broadcast's, with other
// readers).
func (c *payloadCodec) AppendPayload(buf []byte, p *amnet.Packet) ([]byte, error) {
	start := len(buf)
	var err error
	switch v := p.Payload.(type) {
	case *Message:
		if buf, err = appendMsg(append(buf, wtMsg), v); err == nil && !v.shared {
			*v = Message{}
			c.m.msgSpill.Put(v)
		}
	case *spawnRecord:
		buf = appendAddr(append(buf, wtSpawn), v.alias)
		buf = le.AppendUint64(buf, uint64(uint32(v.typ)))
		buf = le.AppendUint64(buf, math.Float64bits(v.vt))
		buf = le.AppendUint64(buf, progID(v.prog))
		buf, err = appendValues(buf, v.args)
	case firReq:
		buf = appendAddr(append(buf, wtFIR), v.addr)
		buf = appendListLen(buf, v.path)
		for _, hop := range v.path {
			buf = le.AppendUint32(buf, uint32(hop))
		}
	case *migBundle:
		buf = appendAddr(append(buf, wtMig), v.addr)
		buf = appendAddr(buf, v.alias)
		buf = le.AppendUint64(buf, progID(v.prog))
		if buf, err = appendValue(buf, v.behavior); err == nil {
			if buf, err = appendMsgs(buf, v.msgs); err == nil {
				buf, err = appendMsgs(buf, v.pending)
			}
		}
	case groupCreate:
		buf = appendGroup(append(buf, wtGroup), v.g)
		buf = le.AppendUint64(buf, uint64(uint32(v.typ)))
		buf = le.AppendUint64(buf, progID(v.prog))
		buf, err = appendValues(buf, v.args)
	case *bcastWork:
		buf = appendGroup(append(buf, wtBcast), v.g)
		buf = le.AppendUint64(buf, uint64(uint32(v.root)))
		buf, err = appendMsg(buf, v.msg)
	case replyEnvelope:
		buf = le.AppendUint64(append(buf, wtReply), progID(v.prog))
		buf, err = appendValue(buf, v.v)
	case *Program:
		buf = le.AppendUint64(append(buf, wtProg), progID(v))
	case progLaunch:
		return buf, fmt.Errorf("core: program loads never cross the wire (hLoadProgram is leader-local)")
	default:
		return buf, fmt.Errorf("core: handler %d payload %T has no wire form", p.Handler, p.Payload)
	}
	if err != nil {
		return buf[:start], fmt.Errorf("core: payload %T does not encode: %w (gob.Register user types in every process)", p.Payload, err)
	}
	return buf, nil
}

// --- decoding -------------------------------------------------------------

var errShortWire = errors.New("truncated")

// wireReader consumes a little-endian body front to back.  The first
// failure sticks: later reads return zeros, and done reports it.
type wireReader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil once the body has run out.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errShortWire
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// listLen reads a list header and checks that count elements of at least
// elem bytes each still fit in the body, so a caller may allocate count
// of them.
func (r *wireReader) listLen(elem int) (count int, isNil bool) {
	c := r.u32()
	if r.err != nil || c == nilList {
		return 0, true
	}
	if uint64(c)*uint64(elem) > uint64(len(r.b)) {
		r.err = fmt.Errorf("list of %d needs %d bytes, %d remain", c, uint64(c)*uint64(elem), len(r.b))
		return 0, true
	}
	return int(c), false
}

// bytes reads a u32 length and that many bytes, aliasing the body.
func (r *wireReader) bytes() []byte {
	return r.take(int(r.u32()))
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) addr() Addr {
	birth, hint := unpackNodes(r.u64())
	return Addr{Birth: birth, Hint: hint, Seq: r.u64()}
}

func (r *wireReader) replyTo() ReplyTo {
	node, slot := unpackNodes(r.u64())
	return ReplyTo{Node: node, Slot: int32(slot), JC: r.u64()}
}

func (r *wireReader) group() Group {
	g := Group{ID: r.u64(), N: int(r.u64())}
	g.Birth, g.Base = unpackNodes(r.u64())
	g.Nodes = int(r.u64())
	g.slot0 = r.u64()
	return g
}

func (r *wireReader) node() amnet.NodeID { return amnet.NodeID(int32(uint32(r.u64()))) }

func (r *wireReader) floats() []float64 {
	n, isNil := r.listLen(8)
	if isNil {
		return nil
	}
	f := make([]float64, n)
	for i := range f {
		f[i] = math.Float64frombits(r.u64())
	}
	return f
}

// word reads the body of a one-word value: appendWord's inverse.
func (r *wireReader) word(tag byte) uint64 {
	switch tag {
	case tvNil:
		return 0
	case tvBool:
		if r.bool() {
			return 1
		}
		return 0
	case tvSelector, tvTypeID:
		return uint64(r.u32())
	}
	return r.u64()
}

// value reads one tagged value.
func (r *wireReader) value() any {
	tag := r.u8()
	if isWordTag(tag) {
		return wordValue(tag, r.word(tag))
	}
	switch tag {
	case tvString:
		return string(r.bytes())
	case tvAddr:
		return r.addr()
	case tvGroup:
		return r.group()
	case tvReplyTo:
		return r.replyTo()
	case tvFloats:
		return r.floats()
	case tvGob:
		g := r.bytes()
		if r.err != nil {
			return nil
		}
		v, err := decodeValue(g)
		if err != nil {
			r.err = fmt.Errorf("opaque value does not decode: %w (gob.Register user types in every process)", err)
		}
		return v
	default:
		if r.err == nil {
			r.err = fmt.Errorf("unknown value tag %d", tag)
		}
		return nil
	}
}

func (r *wireReader) values() []any {
	n, isNil := r.listLen(1)
	if isNil {
		return nil
	}
	return r.valueList(n)
}

// valueList reads the n values after a list header.
func (r *wireReader) valueList(n int) []any {
	vs := make([]any, n)
	for i := range vs {
		vs[i] = r.value()
	}
	return vs
}

// done reports the reader's failure, or bytes left over after a body
// that should have ended.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// payloadReader is a wireReader that also resolves program ids.
type payloadReader struct {
	wireReader
	m *Machine
	// progLimit is the largest acceptable program id, fixed when decoding
	// starts so one payload materializes at most maxProgAhead programs.
	progLimit uint64
}

func (r *payloadReader) prog() *Program {
	id := r.u64()
	if id > r.progLimit {
		if r.err == nil {
			r.err = fmt.Errorf("program id %d is more than %d past the programs known here", id, maxProgAhead)
		}
		return nil
	}
	return r.m.progForWire(id)
}

// msg decodes a message into one from the spill pool (zeroed there),
// where the encoder returns every message it sent.
func (r *payloadReader) msg() *Message {
	msg, _ := r.m.msgSpill.Get().(*Message)
	if msg == nil {
		msg = new(Message)
	}
	msg.To = r.addr()
	w := r.u64()
	msg.Sel = Selector(uint32(w >> 32))
	msg.routed, msg.shared = w&mfRouted != 0, w&mfShared != 0
	msg.Reply = r.replyTo()
	msg.origin = r.node()
	msg.originLD = r.u64()
	msg.dstSeq = r.u64()
	msg.vt = math.Float64frombits(r.u64())
	msg.prog = r.prog()
	msg.Data = r.floats()
	r.args(msg)
	return msg
}

// args reads a message's argument list: one-word values straight into the
// inline words when the whole list fits them, anything else — from the
// list's first byte again — into a private overflow list.  (The list is
// declared on that path: as a variable of the whole function its address
// being taken would cost every decode the slice header.)
func (r *payloadReader) args(msg *Message) {
	n, isNil := r.listLen(1)
	if isNil || n == 0 {
		return
	}
	first := r.b
	if n <= maxInline && r.inlineArgs(msg, n) {
		return
	}
	msg.tags, msg.w = [maxInline]byte{}, [maxInline]uint64{}
	r.b = first
	list := r.valueList(n)
	msg.more = &list
}

// inlineArgs is Message.setInline for a list on the wire, so a message has
// one form whichever way it was built.
func (r *payloadReader) inlineArgs(msg *Message, n int) bool {
	for i := 0; i < n; i++ {
		tag := r.u8()
		if !isWordTag(tag) {
			return false
		}
		msg.tags[i], msg.w[i] = tag, r.word(tag)
	}
	msg.nargs = uint8(n)
	return true
}

func (r *payloadReader) msgs() []*Message {
	n, isNil := r.listLen(msgMinBytes)
	if isNil {
		return nil
	}
	out := make([]*Message, n)
	for i := range out {
		out[i] = r.msg()
	}
	return out
}

// DecodePayload rebuilds the payload value the receiving handler type-
// asserts on (handlers.go): pointer kinds come back as pointers, value
// kinds as values.
func (c *payloadCodec) DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("core: empty payload body")
	}
	r := payloadReader{wireReader: wireReader{b: b[1:]}, m: c.m, progLimit: c.m.progSeq.Load() + maxProgAhead}
	var v any
	switch b[0] {
	case wtMsg:
		v = r.msg()
	case wtSpawn:
		rec := &spawnRecord{alias: r.addr(), typ: TypeID(uint32(r.u64()))}
		rec.vt = math.Float64frombits(r.u64())
		rec.prog = r.prog()
		rec.args = r.values()
		v = rec
	case wtFIR:
		req := firReq{addr: r.addr()}
		if n, isNil := r.listLen(4); !isNil {
			req.path = make([]amnet.NodeID, n)
			for i := range req.path {
				req.path[i] = amnet.NodeID(int32(r.u32()))
			}
		}
		v = req
	case wtMig:
		mb := &migBundle{addr: r.addr(), alias: r.addr()}
		mb.prog = r.prog()
		if bv := r.value(); bv != nil {
			beh, ok := bv.(Behavior)
			if !ok && r.err == nil {
				r.err = fmt.Errorf("migrating behavior decoded as %T, not a Behavior", bv)
			}
			mb.behavior = beh
		}
		mb.msgs = r.msgs()
		mb.pending = r.msgs()
		v = mb
	case wtGroup:
		gc := groupCreate{g: r.group(), typ: TypeID(uint32(r.u64()))}
		gc.prog = r.prog()
		gc.args = r.values()
		v = gc
	case wtBcast:
		bw := &bcastWork{g: r.group(), root: r.node()}
		bw.msg = r.msg()
		bw.msg.shared = true
		v = bw
	case wtReply:
		env := replyEnvelope{prog: r.prog()}
		env.v = r.value()
		v = env
	case wtProg:
		v = r.prog()
	default:
		return nil, fmt.Errorf("core: unknown payload kind %d", b[0])
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("core: payload kind %d: %w", b[0], err)
	}
	return v, nil
}

// progForWire resolves a leader-assigned program id in this process.  The
// leader allocates ids densely from 1 and is the only process that
// launches, so an id past progSeq is news here: it materializes a
// placeholder for every id up to it, and later ids stay aligned.  An id
// at or below progSeq that the table lacks is a finished program (or 0):
// nil, which counts nothing, and never materialized again.  Callers bound
// id first (maxProgAhead).
func (m *Machine) progForWire(id uint64) *Program {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	if p, ok := m.progs[id]; ok || id <= m.progSeq.Load() {
		return p
	}
	for m.progSeq.Load() < id {
		m.newProg()
	}
	return m.progs[id]
}

// --- opaque values ----------------------------------------------------------

// groupWire is Group's gob image; slot0 is load-bearing (Member computes
// alias addresses from it) and must survive the trip.
type groupWire struct {
	ID    uint64
	N     int
	Birth amnet.NodeID
	Base  amnet.NodeID
	Nodes int
	Slot0 uint64
}

// GobEncode serializes the handle including its unexported alias base, so
// Group values inside opaque user values (arguments of user types,
// behaviors, results) stay usable across processes.
func (g Group) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(groupWire{
		ID: g.ID, N: g.N, Birth: g.Birth, Base: g.Base, Nodes: g.Nodes, Slot0: g.slot0,
	})
	return buf.Bytes(), err
}

// GobDecode is GobEncode's inverse.
func (g *Group) GobDecode(b []byte) error {
	var w groupWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	*g = Group{ID: w.ID, N: w.N, Birth: w.Birth, Base: w.Base, Nodes: w.Nodes, slot0: w.Slot0}
	return nil
}

// valueBox wraps an arbitrary value so gob's interface mechanism (with
// its concrete-type registry) carries it.
type valueBox struct {
	V any
}

// encodeValue is the gob escape for a value the kernel cannot see into:
// tvGob values above and program results (dist.go).
func encodeValue(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(valueBox{V: v}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeValue(b []byte) (any, error) {
	var box valueBox
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
		return nil, err
	}
	return box.V, nil
}
