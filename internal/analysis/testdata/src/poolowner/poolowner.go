// Package fixture exercises halvet-poolowner: the consumer-frees
// ownership discipline of pooled control-plane values.
package fixture

import (
	"hal/internal/amnet"
	"hal/internal/names"
)

type path struct {
	hops []uint8
	vt   float64
}

var pathPool []*path

func newPath() *path   { return &path{} }
func freePath(p *path) { pathPool = append(pathPool, p) }

const hFIR amnet.HandlerID = 1

// True positive, the use-after-freePath bug class: reading a path after
// returning it to the pool races the next allocation's reuse.
func useAfterFree() float64 {
	p := newPath()
	p.hops = append(p.hops, 3)
	freePath(p)
	return p.vt // want `pooled FIR path "p" used after free`
}

// True positive: a double free hands the same record to two future
// allocations.
func doubleFree() {
	p := newPath()
	freePath(p)
	freePath(p) // want `pooled FIR path "p" freed twice`
}

// True positive: once the value rides a packet the consumer owns it.
func useAfterSend(ep *amnet.Endpoint, dst amnet.NodeID) {
	p := newPath()
	ep.Send(amnet.Packet{Handler: hFIR, Dst: dst, Payload: p})
	p.vt = 9 // want `pooled FIR path "p" used after ownership transfer`
}

// True positive: the producer must not also free after handing off.
func freeAfterSend(ep *amnet.Endpoint, dst amnet.NodeID) {
	p := newPath()
	ep.Send(amnet.Packet{Handler: hFIR, Dst: dst, Payload: p})
	freePath(p) // want `freed after its ownership transferred`
}

// Negative: consumer-side free — the receiving handler unboxes the payload
// it now owns and frees it exactly once.
func consumerFrees(p amnet.Packet) float64 {
	req := p.Payload.(*path)
	vt := req.vt
	freePath(req)
	return vt
}

// Negative: the packet literal may read fields of the value it transfers —
// ownership moves when the send returns, not mid-expression.
func sendReadsFields(ep *amnet.Endpoint, dst amnet.NodeID) {
	p := newPath()
	p.vt = 4
	ep.Send(amnet.Packet{Handler: hFIR, Dst: dst, VT: p.vt, Payload: p})
}

// Negative: the boxed-payload fallback — storing into a non-Packet
// composite hands ownership to the box, and tracking stops.
type box struct{ p *path }

func boxed() *box {
	p := newPath()
	b := &box{p: p}
	p.vt = 1
	return b
}

// Negative: a freed seq handle is a generation-checked token; Get on a
// stale seq is the documented recovery path, not a use-after-free.
func staleSeqOK(a *names.Arena) bool {
	seq, ld := a.Alloc()
	ld.State = names.LDLocal
	a.Free(seq)
	return a.Get(seq) == nil
}

// True positive: the descriptor pointer itself IS dead after free.
func staleDescriptor(a *names.Arena) names.LDState {
	seq, ld := a.Alloc()
	a.Free(seq)
	return ld.State // want `pooled descriptor "ld" used after free`
}

// --- interprocedural: helpers whose summaries carry the effect ----------

// consumePath frees its argument; callers lose ownership at the call.
func consumePath(p *path) { freePath(p) }

// consumeDeep frees through two levels of helpers.
func consumeDeep(p *path) { consumePath(p) }

// stash publishes its argument into package state (escape, not free).
var stashed *path

func stash(p *path) { stashed = p }

// passThrough returns its own argument: callers hold the same value
// under a new name.
func passThrough(p *path) *path { return p }

// makePath allocates through a helper: the caller owns the result.
func makePath() *path { return newPath() }

// True positive, the PR 2 FIR bug class one call deep: the helper frees,
// the caller keeps reading.
func helperUseAfterFree() float64 {
	p := newPath()
	consumePath(p)
	return p.vt // want `pooled FIR path "p" used after free`
}

// True positive: the free summary folds transitively through helpers.
func helperDeepUseAfterFree() float64 {
	p := makePath()
	consumeDeep(p)
	return p.vt // want `pooled FIR path "p" used after free`
}

// True positive: a helper free plus a direct free is a double free.
func helperDoubleFree() {
	p := newPath()
	consumePath(p)
	freePath(p) // want `pooled FIR path "p" freed twice`
}

// True positive: an alias returned by a helper shares the group — a free
// through the alias kills the original too.
func helperAlias() float64 {
	p := newPath()
	q := passThrough(p)
	freePath(q)
	return p.vt // want `pooled FIR path "p" used after free`
}

// Negative: a helper that stores its argument takes ownership with it —
// tracking ends, later reads are the stash owner's business.
func helperEscape() float64 {
	p := newPath()
	stash(p)
	return p.vt
}
