package core

import (
	"slices"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Per-pair order across forwarding hops.
//
// The links are FIFO, but a letter that meets a forwarding descriptor
// waits there for an FIR answer and then chases the actor, while a later
// letter from the same sender can reach the actor by a shorter path: the
// actor came back to the node that re-routed the earlier letter, or a
// forwarder released the earlier letters toward a node the actor had
// already left.  So each node numbers the letters it sends through a
// descriptor (names.LD.Out), and the actor takes each stream — one
// node's letters through one of its descriptors, keyed (origin,
// originLD) — in number order.  A letter that arrives ahead of its turn
// waits in the actor's reorder hold until the letters before it have
// come; the count and the hold belong to the actor and migrate with it.
//
// A descriptor numbers nothing while it is local and has never sent a
// letter off the node: such letters go straight to the mail queue, which
// is FIFO by itself, so the local hop does no new work.  SendFast, the
// broadcast copies a node hands its own members, and the letters the
// DisableLDCache ablation routes without a descriptor are unnumbered and
// take no turn.

// inStream is an actor's place in one stream.
type inStream struct {
	ld   uint64       // the sender's descriptor (originLD); 0 for no stream
	node amnet.NodeID // the sending node (origin)
	last uint32       // the number of the last letter queued
}

// nextNum is the number after x.  It skips 0, which marks an unnumbered
// letter, so a stream survives wrapping around.
func nextNum(x uint32) uint32 {
	if x++; x == 0 {
		x = 1
	}
	return x
}

// number makes msg the next letter of the stream this node sends through
// its descriptor seq.
func (n *node) number(msg *Message, ld *names.LD, seq uint64) {
	ld.Out = nextNum(ld.Out)
	msg.num, msg.originLD = ld.Out, seq
	msg.src = msg.src&srcRouted | uint16(n.id)
}

// admit queues a numbered letter of stream st that is next in it, then
// every held letter that is next after it; an early letter waits in the
// hold.
func (n *node) admit(a *Actor, msg *Message, st *inStream) {
	if msg.num != nextNum(st.last) {
		s := a.cold()
		s.held = append(s.held, msg)
		n.stats.Reordered++
		return
	}
	st.last = msg.num
	n.queue(a, msg)
	held := a.side.held // an in-turn letter comes here only while some are held
	for i := 0; i < len(held); i++ {
		h := held[i]
		if h.originLD == st.ld && h.origin() == st.node && h.num == nextNum(st.last) {
			held = slices.Delete(held, i, i+1)
			st.last = h.num
			n.queue(a, h)
			i = -1 // its successor may have come earlier
		}
	}
	a.side.held = held
}

// stream returns a's place in the stream of node's letters through its
// descriptor ld, starting the stream if it is new.
func (a *Actor) stream(node amnet.NodeID, ld uint64) *inStream {
	if a.in.ld == ld && a.in.node == node {
		return &a.in
	}
	if a.in.ld == 0 {
		a.in = inStream{ld: ld, node: node}
		return &a.in
	}
	s := a.cold()
	for i := range s.streams {
		if st := &s.streams[i]; st.ld == ld && st.node == node {
			return st
		}
	}
	s.streams = append(s.streams, inStream{ld: ld, node: node})
	return &s.streams[len(s.streams)-1]
}

// turn is the number a's stream (node, ld) takes next.
func (a *Actor) turn(node amnet.NodeID, ld uint64) uint32 {
	if a.in.ld == ld && a.in.node == node {
		return nextNum(a.in.last)
	}
	if a.side != nil {
		for _, st := range a.side.streams {
			if st.ld == ld && st.node == node {
				return nextNum(st.last)
			}
		}
	}
	return 1
}
