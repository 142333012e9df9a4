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
	hCtlAck
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

	// Under fault injection, kernel packets arrive sequenced (Packet.Seq
	// != 0, see reliable.go): acknowledge each one and suppress
	// duplicates BEFORE the handler runs, so every handler below behaves
	// exactly-once without being individually idempotent.  Fault-free,
	// the wrapper costs one branch.
	reg := func(id amnet.HandlerID, h amnet.Handler) {
		m.nw.Register(id, func(ep *amnet.Endpoint, p amnet.Packet) {
			if p.Seq != 0 {
				n := at(ep)
				ok := n.rel.accept(p.Src, p.Seq)
				n.ackCtl(p.Src, p.Seq)
				if !ok {
					n.stats.DupsFiltered++
					n.trace(EvDedup, Nil, p.Src)
					return
				}
			}
			h(ep, p)
		})
	}

	// Acks themselves are unsequenced and idempotent.
	m.nw.Register(hCtlAck, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleCtlAck(p.Src, p.U0)
	})

	reg(hDeliverMsg, func(ep *amnet.Endpoint, p amnet.Packet) {
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

	reg(hCacheUpdate, m.learnLoc)
	reg(hFIRFound, m.learnLoc)
	reg(hMigrateAck, m.learnLoc)

	reg(hCreate, func(ep *amnet.Endpoint, p amnet.Packet) {
		// Queue the creation through the dispatcher heap instead of
		// serving it at (real) arrival time: its stamp may lie in this
		// node's virtual future, and instantiating early would drag the
		// clock forward past work that is logically earlier.
		n := at(ep)
		rec := p.Payload.(*spawnRecord)
		rec.vt = p.VT
		n.ready.Push(rec, rec.vt)
	})

	reg(hAliasBind, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		alias, node, seq := decodeLoc(p)
		if ld := n.arena.Get(alias.Seq); ld != nil && ld.State != names.LDLocal {
			n.resolveAlias(ld, alias, node, seq)
		}
	})

	reg(hFIR, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		n.handleFIR(n.decodeFIR(p))
	})

	reg(hMigrate, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleMigrate(p.Src, p.Payload.(*migBundle), p.VT)
	})

	reg(hStealReq, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealReq(p.Src, p.VT)
	})

	reg(hStealGrant, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealGrant(p.Payload.(*spawnRecord))
	})

	reg(hStealDeny, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleStealDeny()
	})

	reg(hGroupCreate, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleGroupCreate(p.Payload.(groupCreate), p.VT)
	})

	reg(hGroupCast, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleBcast(p.Payload.(*bcastWork), p.VT)
	})

	reg(hReply, func(ep *amnet.Endpoint, p amnet.Packet) {
		n := at(ep)
		slot := int32(uint32(p.U1))
		if env, ok := p.Payload.(replyEnvelope); ok { // boxed fallback
			n.applyReply(p.U0, slot, env.v, env.prog, p.VT)
			return
		}
		n.applyReply(p.U0, slot, wordValue(byte(p.U1>>32), p.U2), n.m.progByID(p.U3), p.VT)
	})

	reg(hLoadProgram, func(ep *amnet.Endpoint, p amnet.Packet) {
		at(ep).handleLoadProgram(p.Payload.(progLaunch))
	})
}
