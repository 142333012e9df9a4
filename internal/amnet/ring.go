// Lock-free bounded MPSC inbox ring.
//
// Each Endpoint's inbox is a Vyukov-style bounded ring restricted to one
// consumer: producers (any goroutine holding a reserved capacity token)
// claim slots with a CAS on the tail cursor and publish them by bumping
// the slot's sequence word; the single consumer — the endpoint's owning
// goroutine — reads slots in claim order off a plain head cursor.  The
// ring replaces the former `chan qItem` inbox: a push is one CAS plus two
// stores instead of a mutex acquisition, and under GOMAXPROCS > 1 the
// chan's single lock word stops being the point every sender to a hot
// node serializes on.
//
// Capacity discipline.  The ring never fills: senders reserve packet
// tokens against Endpoint.inq (bounded by Config.InboxCap) BEFORE
// pushing, every item carries at least one packet, and the slot count is
// InboxCap rounded up to a power of two — so items in flight can never
// exceed slots.  push therefore has no full path; finding the ring full
// is an accounting bug and panics.  The full↔space edge lives entirely in
// the token counter (reserve/release + spaceWake), unchanged from the
// channel implementation.
//
// Publication order.  A producer that wins the tail CAS owns slot
// tail&mask exclusively until it stores the slot's qItem and then
// publishes by storing seq = pos+1.  The consumer reads seq first and the
// item only after observing seq == head+1, so the item stores
// happen-before every consumer read (Go atomics are sequentially
// consistent).  After consuming, the consumer recycles the slot for the
// next lap by storing seq = pos+len(slots).  Slots are written by exactly
// one producer per lap and then owned by the consumer.  Three things hold
// that ownership in place.  push is declared on ringProducer, a type
// without the consumer's head cursor, so a producer reading consumer-owned
// state does not compile.  A producer writing a plain field (slots, mask)
// races with every other push, which TestRingMultiProducerStress reports
// under -race.  A slot address that outlives pop and is written through
// later races with the producer reusing the slot on the next lap;
// TestRingParkUnparkEdges runs a 4-slot ring, where every push is on a
// wrapping lap, under -race in CI.
//
// Empty↔non-empty edge.  The consumer parks on recvWake (a one-token
// channel) only after (a) setting rsleep and (b) re-checking the ring —
// the same check-then-block order as stall's lost-wakeup fix.  A producer
// that observes rsleep set after publishing swaps it back to 0, and the
// one producer whose swap succeeds sends the token.  Sequential
// consistency rules out the lost wakeup: if the consumer's re-check
// missed the item, the re-check ordered before the publish, hence the
// rsleep store ordered before the producer's rsleep load, which therefore
// sees it.  A consumer that ends its own sleep (the re-check found an
// item, a timer, stop) swaps rsleep back itself; if a producer's swap won
// that race, the consumer takes the token that is coming before it goes
// on, so no token is ever left for a later sleep (wait.go).
//
// Two more orderings ride on that one.  Yield before park: during its
// yield phase the consumer has not set rsleep, so a producer publishing
// then sends no token — and needs none: the consumer pops after every
// Gosched, and if the yields run out it goes through the unchanged
// declare / re-check / block sequence, whose re-check finds whatever was
// published while rsleep read 0.  Stop: the kernel's park does not select
// on a stop channel.  The stopper closes stop and THEN calls Wake on
// every endpoint; the waiter checks stop (without blocking) after setting
// rsleep and re-checking the ring, and then blocks on recvWake alone.
// Close-then-wake against check-then-block: a Wake that found rsleep
// clear ordered before the waiter's rsleep store, and the close before
// that, so the waiter's check sees stop closed; a Wake that found it set
// sends the token, which a buffered channel keeps for a waiter that has
// not blocked yet.
package amnet

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// ringSlot is one inbox cell.  seq is the Vyukov sequence word: slot i is
// writable by the producer that claimed position pos (pos&mask == i) when
// seq == pos, published when seq == pos+1, and recycled for the next lap
// by the consumer storing pos+len(slots).  The item field is written once
// per lap by that single producer, then read and cleared by the consumer;
// no other access is legal.
type ringSlot struct {
	seq  atomic.Uint64
	item qItem
	// Pad the slot to a cache-line multiple so two producers publishing
	// adjacent slots never write-share a line.  unsafe.Sizeof is a
	// constant expression, so the pad tracks qItem layout changes
	// automatically; ring_test.go asserts the resulting slot size.
	_ [(64 - (8+unsafe.Sizeof(qItem{}))%64) % 64]byte
}

// ringProducer is the part of the inbox a producer may touch: the slots
// (read-only header; each slot's words under the protocol above) and tail,
// the producer cursor (next position to claim, multi-writer CAS).  push is
// its only method.
type ringProducer struct {
	slots []ringSlot
	mask  uint64
	_     [48]byte
	tail  atomic.Uint64
	_     [56]byte
}

// mpscRing is the bounded lock-free inbox: the producer half plus head,
// the consumer cursor, a plain word because exactly one goroutine — the
// endpoint owner — moves it.  The cursors sit on separate cache lines:
// tail's line is contended by producers and must not also carry the word
// the consumer spins on.
type mpscRing struct {
	ringProducer
	head uint64
	_    [56]byte
}

// ringCap rounds n up to a power of two (minimum 2).
func ringCap(n int) int {
	c := 2
	for c < n {
		c <<= 1
	}
	return c
}

// init sizes the ring before it is shared.
func (r *mpscRing) init(capacity int) {
	n := ringCap(capacity)
	r.slots = make([]ringSlot, n)
	r.mask = uint64(n - 1)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	r.tail.Store(0)
	r.head = 0
}

// push claims the next tail slot and publishes q.  Safe for any number of
// concurrent producers.  The caller must hold reserved inq tokens for
// every packet in q (see the capacity discipline above); push panics on a
// full ring because that cannot happen under the token invariant.
func (r *ringProducer) push(q qItem) {
	pos := r.tail.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.item = q
				slot.seq.Store(pos + 1) // publish
				return
			}
			pos = r.tail.Load()
		case seq < pos:
			// The slot still holds last lap's item: the ring is full.
			// Unreachable when every producer reserved tokens first.
			panic(fmt.Sprintf("amnet: inbox ring overflow (pos=%d seq=%d cap=%d): push without a reserved token", pos, seq, len(r.slots)))
		default:
			// Another producer claimed pos and may have published; reload.
			pos = r.tail.Load()
		}
	}
}

// pop removes the item at head, reporting whether one was ready.  Single
// consumer only.  A claimed-but-unpublished head slot reads as empty
// until its producer's publish store lands, preserving claim order (and
// with it per-(src,dst) FIFO: one sender's packets are claimed in its
// program order).
func (r *mpscRing) pop() (qItem, bool) {
	slot := &r.slots[r.head&r.mask]
	if slot.seq.Load() != r.head+1 {
		return qItem{}, false
	}
	q := slot.item
	slot.item = qItem{} // drop Payload/Data/batch references
	slot.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	return q, true
}

// empty reports whether no published item is ready at head.  Single
// consumer only; a false return may already be stale by the time the
// caller acts, which every call site tolerates by re-popping.
func (r *mpscRing) empty() bool {
	return r.slots[r.head&r.mask].seq.Load() != r.head+1
}
