package core

import (
	"hal/internal/amnet"
	"hal/internal/names"
)

// Kernel active-message handlers.  Every cross-node interaction of the
// runtime — message delivery, name-service repair, creation, migration,
// load balancing, broadcast, replies — is one of these handlers; they run
// on the receiving node's goroutine during a poll ("a request to a node
// manager is delivered in the form of a message: ... it steals the
// processor from the actor that is currently executing, processes the
// request using that actor's stack frame and subsequently resumes").
const (
	hDeliverMsg amnet.HandlerID = 1 + iota
	hCacheUpdate
	hCreate
	hAliasBind
	hFIR
	hFIRFound
	hMigrate
	hMigrateAck
	hStealReq
	hStealGrant
	hStealDeny
	hGroupCreate
	hGroupCast
	hReply
	hLoadProgram
)

// learnLoc handles a cache update, an FIR answer and a migration notice:
// each teaches this node one location (the ids differ for traces and the
// wire).  A method, not a closure in a variable, so halvet's handler
// reachability follows it.
func (m *Machine) learnLoc(ep *amnet.Endpoint, p amnet.Packet) {
	addr, node, seq := decodeLoc(p)
	m.nodes[ep.ID()].applyCacheUpdate(addr, node, seq)
}

func registerKernelHandlers(m *Machine) {
	at := func(ep *amnet.Endpoint) *node { return m.nodes[ep.ID()] }

	m.nw.Register(hDeliverMsg, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		msg := p.Payload.(*Message)
		msg.vt = p.VT
		if p.Data != nil { // bulk payload reattached by the transfer fin
			msg.Data = p.Data
			// Receiving a bulk transfer costs this PE per-word handler
			// time; concurrent inbound transfers therefore serialize on
			// the receiver's virtual clock.
			n.charge(float64(len(p.Data)) * costPerWord)
		}
		n.deliverHere(msg)
	})

	m.nw.Register(hCacheUpdate, m.learnLoc)
	m.nw.Register(hFIRFound, m.learnLoc)
	m.nw.Register(hMigrateAck, m.learnLoc)

	m.nw.Register(hCreate, func(ep *amnet.Endpoint, p amnet.Packet) {
		// Queue the creation through the dispatcher heap instead of
		// serving it at (real) arrival time: its stamp may lie in this
		// node's virtual future, and instantiating early would drag the
		// clock forward past work that is logically earlier.
		n := at(ep)
		rec := p.Payload.(*spawnRecord)
		rec.vt = p.VT
		n.ready.Push(rec, rec.vt)
	})

	m.nw.Register(hAliasBind, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		alias, node, seq := decodeLoc(p)
		if ld := n.arena.Get(alias.Seq); ld != nil && ld.State != names.LDLocal {
			n.resolveAlias(ld, alias, node, seq)
		}
	})

	m.nw.Register(hFIR, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		n.handleFIR(n.decodeFIR(p))
	})

	m.nw.Register(hMigrate, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleMigrate(p.Src, p.Payload.(*migBundle), p.VT)
	})

	m.nw.Register(hStealReq, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealReq(p.Src, p.VT)
	})

	m.nw.Register(hStealGrant, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealGrant(p.Payload.(*spawnRecord))
	})

	m.nw.Register(hStealDeny, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealDeny()
	})

	m.nw.Register(hGroupCreate, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleGroupCreate(p.Payload.(groupCreate), p.VT)
	})

	m.nw.Register(hGroupCast, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleBcast(p.Payload.(*bcastWork), p.VT)
	})

	m.nw.Register(hReply, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		slot := int32(uint32(p.U1))
		if env, ok := p.Payload.(replyEnvelope); ok { // boxed fallback
			n.applyReply(p.U0, slot, env.v, env.prog, p.VT)
			return
		}
		n.applyReply(p.U0, slot, wordValue(byte(p.U1>>32), p.U2), n.m.progByID(p.U3), p.VT)
	})

	m.nw.Register(hLoadProgram, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleLoadProgram(p.Payload.(progLaunch))
	})
}
