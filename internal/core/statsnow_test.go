package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hal/internal/hist"
)

// Tests for the live statistics snapshot.  StatsNow must be callable from
// any goroutine while the machine runs (race-clean — the CI flake-hunter
// runs this file under -race), each per-node snapshot must be internally
// consistent, and once the machine stops it must agree with Stats exactly.

// tokenRelay forwards a hop-counted token around a ring of actors, one
// per node, generating steady cross-node traffic for the poller to watch.
type tokenRelay struct {
	next Addr
}

const selToken Selector = 60

func (b *tokenRelay) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selInit:
		b.next = msg.Addr(0)
	case selToken:
		if ttl := msg.Int(0); ttl > 0 {
			ctx.Send(b.next, selToken, ttl-1)
		}
	}
}

// histSane reports whether a histogram's bucket counts account for every
// observation.
func histSane(h *hist.H) bool {
	var n uint64
	for _, c := range h.B {
		n += c
	}
	return n == h.N
}

// checkSnapshot asserts the internal-consistency invariants of one
// StatsNow result against the previous one.  It runs on the poller
// goroutine, so failures use t.Errorf (never Fatalf).
func checkSnapshot(t *testing.T, prev, cur MachineStats) {
	for i := range cur.PerNode {
		c := &cur.PerNode[i]
		// Counters only move forward.
		if i < len(prev.PerNode) {
			p := &prev.PerNode[i]
			if c.Delivered < p.Delivered || c.Net.Sent < p.Net.Sent ||
				c.Net.Received < p.Net.Received || c.CreatesLocal < p.CreatesLocal {
				t.Errorf("node %d: counters went backwards between snapshots: %+v -> %+v", i, p, c)
				return
			}
		}
		// A node never resolves more steals than it requested.
		if c.StealHits+c.StealMisses > c.StealReqs {
			t.Errorf("node %d: steal hits+misses %d+%d exceed requests %d",
				i, c.StealHits, c.StealMisses, c.StealReqs)
		}
		// Histograms were copied whole, not mid-update.
		for name, h := range map[string]*hist.H{
			"FIRRepair": &c.FIRRepair, "StealWait": &c.StealWait,
			"GrantWait": &c.Net.GrantWait, "FlushOcc": &c.Net.FlushOcc,
		} {
			if !histSane(h) {
				t.Errorf("node %d: %s bucket counts do not sum to N=%d", i, name, h.N)
			}
		}
	}
	// The aggregate is derived from exactly these per-node snapshots.
	var delivered, sent uint64
	for i := range cur.PerNode {
		delivered += cur.PerNode[i].Delivered
		sent += cur.PerNode[i].Net.Sent
	}
	if delivered != cur.Total.Delivered || sent != cur.Total.Net.Sent {
		t.Errorf("aggregate out of sync with per-node snapshots: delivered %d vs %d, sent %d vs %d",
			cur.Total.Delivered, delivered, cur.Total.Net.Sent, sent)
	}
}

func TestStatsNowMidRunConsistency(t *testing.T) {
	statsNowMidRunConsistency(t)
}

// TestStatsNowMidRunConsistencyGOMAXPROCS4 repeats the mid-run poll with
// four Ps: the sharded machine gauges and padded per-node snap mirrors
// only interleave for real when node goroutines and the poller run
// concurrently (the nightly flake-hunter runs this under -race x20).
func TestStatsNowMidRunConsistencyGOMAXPROCS4(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	statsNowMidRunConsistency(t)
}

func statsNowMidRunConsistency(t *testing.T) {
	const nodes = 4
	m := testMachine(t, Config{Nodes: nodes, LoadBalance: true})
	typ := m.RegisterType("relay", func(args []any) Behavior { return &tokenRelay{} })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	polls := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev MachineStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := m.StatsNow()
			checkSnapshot(t, prev, cur)
			prev = cur
			polls++
		}
	}()

	run(t, m, func(ctx *Context) {
		relays := make([]Addr, nodes)
		for i := range relays {
			relays[i] = ctx.NewOn(i, typ)
		}
		for i, a := range relays {
			ctx.Send(a, selInit, relays[(i+1)%nodes])
		}
		// Several concurrent tokens, each circling the ring many times.
		for i, a := range relays {
			ctx.Send(a, selToken, 2000+i)
		}
	})
	close(stop)
	wg.Wait()
	if polls == 0 {
		t.Fatal("poller never ran")
	}

	// Stopped machine: the mirrors have caught up, so the live snapshot
	// and the authoritative post-run view agree field for field.
	now, post := m.StatsNow(), m.Stats()
	if !reflect.DeepEqual(now, post) {
		t.Errorf("after Run, StatsNow != Stats:\nnow:  %+v\npost: %+v", now.Total, post.Total)
	}
	if post.Total.Delivered == 0 || post.Total.Net.Sent == 0 {
		t.Fatalf("workload generated no traffic: %+v", post.Total)
	}
}

// TestStatsNowBeforeStart: the snapshot is valid (all zero) on a machine
// that has never run.
func TestStatsNowBeforeStart(t *testing.T) {
	m := testMachine(t, Config{Nodes: 2})
	st := m.StatsNow()
	if len(st.PerNode) != 2 {
		t.Fatalf("PerNode len %d, want 2", len(st.PerNode))
	}
	if st.Total != (NodeStats{}) {
		t.Errorf("unstarted machine reports activity: %+v", st.Total)
	}
}
