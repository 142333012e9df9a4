package core

import (
	"time"

	"hal/internal/amnet"
)

// Dynamic load balancing: receiver-initiated random polling (§ 7.2, after
// Kumar, Grama, and Rao).
//
// An idle node polls a uniformly random victim with a steal request.  The
// victim's node manager hands over the OLDEST deferred creation in its
// spawn queue (the front — oldest records tend to root the largest
// subtrees of a divide-and-conquer computation), or denies.  The alias
// mechanism makes the transfer trivial: the creation record already
// carries the alias under which the world knows the future actor, so the
// thief just instantiates it locally and the normal alias-binding path
// redirects traffic.
//
// As in the paper's receiver-initiated random polling, an idle PE polls
// continuously: a denied thief retries another random victim after a
// short constant pause (the virtual cost of a poll), with one request
// outstanding at a time so steal traffic stays bounded at one packet per
// round trip per idle node.

// sendSteal issues one steal request if none is outstanding and the
// backoff window has elapsed.
//
//halvet:allowwallclock steal-poll backoff and the stealSent escalation clock pace on host time: the polling PE is idle, so its VT is frozen
func (n *node) sendSteal() {
	if len(n.m.nodes) < 2 {
		return
	}
	if !n.nextSteal.IsZero() && time.Now().Before(n.nextSteal) {
		return
	}
	n.stealOut = true
	n.stats.StealReqs++
	// stealSent doubles as the fault-mode escalation clock (idle) and the
	// start of the steal-wait latency measurement.
	n.stealSent = time.Now()
	n.sendCtl(amnet.Packet{Handler: hStealReq, Dst: n.randomVictim(), VT: n.stamp(0)}, nil, 0, 0)
}

// handleStealReq serves a thief from the front (oldest) of the spawn
// queue.
func (n *node) handleStealReq(thief amnet.NodeID, vt float64) {
	if rec, ok := n.spawnq.PopFront(); ok {
		n.stats.StolenFrom++
		n.trace(EvStolenFrom, rec.alias, thief)
		// Node-manager (interrupt-style) service: the grant leaves at
		// the later of the request's arrival and the record's spawn
		// time, without waiting for this PE's own compute to finish.
		if rec.vt < vt {
			rec.vt = vt
		}
		rec.vt += costSteal + costNetLatency
		// The granted record is one accounted (deferred-creation) unit.
		n.sendCtl(amnet.Packet{Handler: hStealGrant, Dst: thief, VT: rec.vt, Payload: rec}, rec.prog, 1, 1)
		return
	}
	n.sendCtl(amnet.Packet{Handler: hStealDeny, Dst: thief, VT: vt + costSteal + costNetLatency}, nil, 0, 0)
}

func (n *node) handleStealGrant(rec *spawnRecord) {
	n.stealOut = false
	n.stealBackoff = stealBackoffBase
	n.nextSteal = time.Time{}
	n.stats.StealHits++
	if !n.stealSent.IsZero() {
		//halvet:allowwallclock StealWait is a host-microsecond latency histogram (observability plane, not simulation state)
		n.stats.StealWait.Observe(float64(time.Since(n.stealSent)) / 1e3)
	}
	n.trace(EvStealHit, rec.alias, rec.alias.Birth)
	n.spawnq.PushBack(rec)
}

// handleStealDeny clears the outstanding poll.  The thief's virtual clock
// does not advance: an idle PE's waiting time is not on any critical
// path, and the stolen record's stamp (spawn time plus steal hops)
// carries the causally required time when a grant finally lands.
func (n *node) handleStealDeny() {
	n.stealOut = false
	n.stats.StealMisses++
	//halvet:allowwallclock steal backoff paces on host time; the denied thief is idle and its VT is frozen
	n.nextSteal = time.Now().Add(n.stealBackoff)
}
