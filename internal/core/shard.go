package core

import "sync/atomic"

// Machine-wide gauges sharded per node.
//
// The kernel's global accounting words — live work, the progress beat, the
// parked-node count — are written by every node goroutine.  At
// GOMAXPROCS=1 a single atomic is free; with real cores underneath, P
// goroutines doing fetch-adds on one cache line serialize the whole
// machine on that line's ownership.  Each counter is therefore an array of
// per-node slots, each padded to its own cache line: a node updates only
// its slot (an uncontended RMW that stays in its core's cache), and the
// few readers — the stall monitor, the idle gate, diagnostics — aggregate
// with a sum over the slots.
//
// Who writes, and when: a node writes its live and beat slots only from
// settle (program.go) — before a packet leaves it, before it waits, at the
// run loop's 64-iteration epoch — with whatever its ledger accumulated
// since; a local hop, whose ledger nets to zero, writes live not at all
// and beat once an epoch.  The front end's Launch writes live's extra
// slot.  parked is written on each idle transition.
//
// The aggregated read is a racy sum: slots are read one at a time while
// writers keep going, so a sum taken mid-flight can be off by in-transit
// work (even transiently negative for a gauge whose + and - land on
// different nodes' slots), and a busy node's slots lag it by up to an
// epoch.  Every reader tolerates that: the stall monitor requires two
// consecutive quiet observations (and a busy node's beat moves every
// epoch, resetting its strikes), the idle gate treats any nonzero as "work
// may exist" (and live stays positive while any node holds unsettled
// work), and a node that waits has settled, so when the machine is
// quiescent the slots are stable and the sum is exact.
type counterShard struct {
	v atomic.Int64
	_ [56]byte
}

// sharded is a per-node-sharded int64 gauge/counter.
type sharded struct {
	shards []counterShard
}

func newSharded(slots int) sharded {
	return sharded{shards: make([]counterShard, slots)}
}

// add accumulates d into slot i (the writer's own shard).
func (s *sharded) add(i int, d int64) { s.shards[i].v.Add(d) }

// sum aggregates all slots.  See the package comment on racy sums.
func (s *sharded) sum() int64 {
	var t int64
	for i := range s.shards {
		t += s.shards[i].v.Load()
	}
	return t
}

// reset zeroes every slot (machine start, between runs).
func (s *sharded) reset() {
	for i := range s.shards {
		s.shards[i].v.Store(0)
	}
}
