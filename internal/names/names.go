// Package names implements the data structures of the paper's distributed
// name server: mail addresses, locality descriptors, and per-node name
// tables.
//
// Each actor is uniquely identified by a mail address — in the paper a pair
// (birthplace, memory address of a locality descriptor).  A locality
// descriptor (LD) holds the runtime's current best guess about where the
// actor lives: a direct reference if the actor is local, or the remote node
// plus the remote LD's address if it is not.  Every node keeps a name table
// mapping addresses to local LDs, so a locality check needs only locally
// available information; inconsistency introduced by migration is tolerated
// and repaired lazily by the kernel's FIR protocol (package core).
//
// This package is purely node-local data; the protocol that keeps the
// tables "mostly right" is driven by the runtime kernel.  All types here
// are confined to a single node's goroutine and need no locking.
package names

import (
	"fmt"

	"hal/internal/amnet"
)

// Addr is an actor mail address.
//
// Birth is the node holding the defining locality descriptor, and Seq is
// that descriptor's slot in Birth's arena — the analog of the paper's
// "memory address of a locality descriptor".  Hint is the node the actor
// was actually created on; for ordinary addresses Hint == Birth, while for
// aliases (remote creation, § 5 of the paper) Birth is the node that
// *requested* the creation and Hint is the node the creation request was
// sent to, which the paper encodes inside the birthplace field.  A node
// with no cached location for an address routes messages to Hint, assuming
// the actor has not migrated.
type Addr struct {
	Birth amnet.NodeID
	Hint  amnet.NodeID
	Seq   uint64
}

// Nil is the zero-value-adjacent invalid address.
var Nil = Addr{Birth: amnet.NoNode, Hint: amnet.NoNode}

// IsNil reports whether a is the invalid address.
func (a Addr) IsNil() bool { return a.Birth == amnet.NoNode }

// IsAlias reports whether a was allocated as an alias (creation requested
// on Birth, performed on Hint).
func (a Addr) IsAlias() bool { return a.Birth != a.Hint }

// String formats the address for traces, e.g. "a3:17" or alias "a3>5:17".
func (a Addr) String() string {
	if a.IsNil() {
		return "a<nil>"
	}
	if a.IsAlias() {
		return fmt.Sprintf("a%d>%d:%d", a.Birth, a.Hint, seqSlot(a.Seq))
	}
	return fmt.Sprintf("a%d:%d", a.Birth, seqSlot(a.Seq))
}

// LDState enumerates locality-descriptor states.
type LDState uint8

const (
	// LDFree marks an unallocated arena slot.
	LDFree LDState = iota
	// LDLocal: the actor lives on this node; Actor is set.
	LDLocal
	// LDRemote: best guess is that the actor lives on RNode; RSeq is the
	// LD slot on RNode when known (enabling the receiver to skip its
	// name table), or 0 when only the node is known.
	LDRemote
	// LDUnresolved: a send is in flight to the address's Hint node and
	// the remote LD address has not come back yet.  Outgoing messages
	// may still be routed via Hint; the kernel counts these.
	LDUnresolved
	// LDInTransit: the actor is migrating away from this node; messages
	// are held on the descriptor until the new location is acknowledged.
	LDInTransit
	// LDAliasPending: an alias whose creation request is in flight;
	// location defaults to the Hint node.
	LDAliasPending
	// LDDead is a tombstone: the actor terminated here.  Sends become
	// dead letters instead of chasing an actor that will never answer.
	LDDead
)

// String returns the state's name.
func (s LDState) String() string {
	switch s {
	case LDFree:
		return "free"
	case LDLocal:
		return "local"
	case LDRemote:
		return "remote"
	case LDUnresolved:
		return "unresolved"
	case LDInTransit:
		return "in-transit"
	case LDAliasPending:
		return "alias-pending"
	case LDDead:
		return "dead"
	default:
		return "invalid"
	}
}

// LD is a locality descriptor.  Actor and Held hold kernel-owned values
// (the kernel's actor and message types); they are `any` here because the
// name server is a substrate below the kernel.
//
// The 72-byte size is part of the performance contract (one descriptor
// per live actor, arena-allocated): TestLDSize fails if a field lands
// the struct on a new size bucket.
type LD struct {
	State LDState
	// FIRSent dedupes forwarding-information requests per descriptor:
	// once a node has asked "where did this actor go", further messages
	// for the same descriptor just join Held.  (Placed beside State so
	// the flag rides in the descriptor's existing padding: arenas hold
	// one LD per actor and slab growth amortizes into creation cost.)
	FIRSent bool
	// Out numbers the letters this node sends through the descriptor
	// (the kernel's per-pair order): the number of the last one, 0 while
	// the descriptor has only ever delivered locally.  It fills the
	// padding after State, like FIRSent.
	Out uint32
	// Actor is the local actor when State == LDLocal.
	Actor any
	// RNode/RSeq are the best-guess remote location (LDRemote,
	// LDInTransit after the ack, LDAliasPending's creation target).
	RNode amnet.NodeID
	RSeq  uint64
	// Held buffers messages (and forwarded FIRs) that cannot be routed
	// until the descriptor resolves.
	Held []any
	// FIRSentAt is when the outstanding request left (host clock, Unix
	// nanoseconds); the kernel measures the repair round trip from it
	// when the descriptor resolves.  An int64 rather than a time.Time
	// keeps the descriptor at its pre-observability size.
	FIRSentAt int64
}

// Arena is a node's locality-descriptor storage.  Slots are named by Seq
// values that embed a generation counter, so freed slots can be reused
// without confusing stale cached addresses: a lookup with an outdated
// generation fails, which the kernel treats as "actor is gone".
//
// Seq layout: low 40 bits slot index, high 24 bits generation.  Slot 0 is
// never handed out so that Seq == 0 means "no descriptor".
type Arena struct {
	slots []ldSlot
	free  []uint64 // slot indexes available for reuse
	live  int
}

type ldSlot struct {
	ld  LD
	gen uint32
}

const (
	seqSlotBits = 40
	seqSlotMask = (uint64(1) << seqSlotBits) - 1
)

func seqSlot(seq uint64) uint64 { return seq & seqSlotMask }
func seqGen(seq uint64) uint32  { return uint32(seq >> seqSlotBits) }

// MakeSeq assembles a Seq from slot and generation; exported for tests.
func MakeSeq(slot uint64, gen uint32) uint64 { return slot | uint64(gen)<<seqSlotBits }

// NewArena returns an empty arena.
func NewArena() *Arena {
	a := &Arena{}
	a.slots = append(a.slots, ldSlot{}) // slot 0 reserved invalid
	return a
}

// Alloc allocates a fresh descriptor, returning its Seq and a pointer to
// the descriptor for initialization.  The descriptor starts in LDFree;
// callers must set a real state before the Seq escapes the node.
func (a *Arena) Alloc() (uint64, *LD) {
	a.live++
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		s := &a.slots[slot]
		s.ld = LD{}
		return MakeSeq(slot, s.gen), &s.ld
	}
	a.slots = append(a.slots, ldSlot{})
	slot := uint64(len(a.slots) - 1)
	return MakeSeq(slot, 0), &a.slots[slot].ld
}

// AllocRange appends n fresh consecutive slots (all generation 0) and
// returns the first slot index; member i's Seq is MakeSeq(first+i, 0).
// Range slots bypass the free list so that a group of actors created
// together (grpnew) has alias addresses computable from the group handle
// alone.
func (a *Arena) AllocRange(n int) uint64 {
	first := uint64(len(a.slots))
	for i := 0; i < n; i++ {
		a.slots = append(a.slots, ldSlot{})
	}
	a.live += n
	return first
}

// Get returns the descriptor named by seq, or nil if seq is invalid, was
// freed, or refers to an older generation of a reused slot.
func (a *Arena) Get(seq uint64) *LD {
	slot := seqSlot(seq)
	if slot == 0 || slot >= uint64(len(a.slots)) {
		return nil
	}
	s := &a.slots[slot]
	if s.gen != seqGen(seq) {
		return nil
	}
	return &s.ld
}

// Free releases the descriptor named by seq.  Future Gets with this seq
// return nil; the slot is recycled under a new generation.  Freeing an
// invalid or stale seq is a no-op.
func (a *Arena) Free(seq uint64) {
	slot := seqSlot(seq)
	if slot == 0 || slot >= uint64(len(a.slots)) {
		return
	}
	s := &a.slots[slot]
	if s.gen != seqGen(seq) {
		return
	}
	s.gen++
	s.ld = LD{}
	if s.gen>>24 == 0 { // retire slots whose generation counter wrapped
		a.free = append(a.free, slot)
	}
	a.live--
}

// Live returns the number of allocated descriptors.
func (a *Arena) Live() int { return a.live }

// ForEach visits every slot's current descriptor (including freed slots,
// whose state is LDFree).  Intended for diagnostics.
func (a *Arena) ForEach(f func(seq uint64, ld *LD)) {
	for slot := 1; slot < len(a.slots); slot++ {
		s := &a.slots[slot]
		f(MakeSeq(uint64(slot), s.gen), &s.ld)
	}
}

// Cap returns the number of slots ever allocated (arena footprint).
func (a *Arena) Cap() int { return len(a.slots) - 1 }

// tableShards is the number of sub-maps a Table spreads its bindings
// over; must be a power of two.
const tableShards = 16

// Table is a node's name table: mail address -> local LD Seq.  The paper
// implements it as a hash table of locality descriptors; here the arena
// owns the descriptors and the table stores their Seqs.
//
// The table is sharded by a hash of the address's owner node (Birth):
// at million-actor scale one flat map's buckets no longer fit any cache
// level and every rehash is a multi-megabyte stop inside the kernel loop,
// while sixteen owner-partitioned maps keep probes in smaller, hotter
// bucket arrays and amortize growth into sixteen small rehashes.  The
// owner-node key also gives workloads their natural locality — a node
// corresponding mostly with a few peers concentrates its lookups in a few
// shards — and is the partition a future cross-process name service would
// shard its locks by; today the table is still goroutine-confined and
// lock-free.
type Table struct {
	m [tableShards]map[Addr]uint64
	// hits/misses support the Table 2 "locality check" measurements.
	Hits   uint64
	Misses uint64
	// binds counts live bindings across shards so Len is O(1).
	binds int
}

// shardOf hashes the address's owner node into a shard index.  Fibonacci
// hashing spreads the dense small NodeIDs; Seq is mixed in so the
// million-actors-on-few-nodes case still uses every shard.
func shardOf(a Addr) int {
	h := uint64(uint32(a.Birth))*0x9E3779B97F4A7C15 ^ a.Seq*0x9E3779B97F4A7C15
	return int(h >> (64 - 4)) // log2(tableShards)
}

// NewTable returns an empty name table.  Shard maps allocate lazily: most
// nodes never cache addresses owned by most other nodes.
func NewTable() *Table { return &Table{} }

// Lookup returns the local LD Seq for addr, or 0 if none is cached.
func (t *Table) Lookup(addr Addr) uint64 {
	if seq, ok := t.m[shardOf(addr)][addr]; ok {
		t.Hits++
		return seq
	}
	t.Misses++
	return 0
}

// Bind records addr -> seq, replacing any previous binding.
func (t *Table) Bind(addr Addr, seq uint64) {
	s := shardOf(addr)
	m := t.m[s]
	if m == nil {
		m = make(map[Addr]uint64)
		t.m[s] = m
	}
	if _, had := m[addr]; !had {
		t.binds++
	}
	m[addr] = seq
}

// Unbind removes addr's binding if it currently maps to seq (guarding
// against racing rebinds during migration).
func (t *Table) Unbind(addr Addr, seq uint64) {
	m := t.m[shardOf(addr)]
	if cur, ok := m[addr]; ok && cur == seq {
		delete(m, addr)
		t.binds--
	}
}

// Len returns the number of bindings.
func (t *Table) Len() int { return t.binds }
