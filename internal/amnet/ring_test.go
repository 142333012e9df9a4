package amnet

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Tests for the bounded lock-free MPSC inbox ring (ring.go) and its
// integration with the endpoint send/receive paths: multi-producer
// ordering, token conservation across park/unpark edges, clean drain,
// and the zero-allocation guarantee of the steady-state hot path.

func TestRingCapRounding(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := ringCap(in); got != want {
			t.Errorf("ringCap(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestPacketSize pins a Packet at twelve words: every send, ring slot and
// stall-loop drain copies one, so a new field is a deliberate edit.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 96", got)
	}
}

// TestRingSlotLayout pins the padding arithmetic: a slot must occupy a
// whole number of cache lines or neighboring slots share a line and the
// MPSC ring inherits exactly the false sharing it exists to remove.
func TestRingSlotLayout(t *testing.T) {
	if s := unsafe.Sizeof(ringSlot{}); s%64 != 0 {
		t.Fatalf("ringSlot is %d bytes; want a multiple of the 64-byte cache line", s)
	}
	// tail and head must not share a line with each other or the slots
	// header: producers hammer tail while the consumer owns head.
	var r mpscRing
	tailOff := unsafe.Offsetof(r.tail)
	headOff := unsafe.Offsetof(r.head)
	if tailOff/64 == headOff/64 {
		t.Fatalf("tail (offset %d) and head (offset %d) share a cache line", tailOff, headOff)
	}
}

// TestRingPushPopWraps exercises the sequence-number recycling across
// several laps of a small ring, checking FIFO order and emptiness edges.
func TestRingPushPopWraps(t *testing.T) {
	var r mpscRing
	r.init(3) // rounds up to 4 slots
	if len(r.slots) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.slots))
	}
	next := uint64(1)
	for lap := 0; lap < 5; lap++ {
		if !r.empty() {
			t.Fatalf("lap %d: ring not empty at lap start", lap)
		}
		for i := 0; i < 4; i++ {
			r.push(qItem{pkt: Packet{U0: next}})
			next++
		}
		for want := next - 4; want < next; want++ {
			q, ok := r.pop()
			if !ok {
				t.Fatalf("lap %d: pop returned empty, want %d", lap, want)
			}
			if q.pkt.U0 != want {
				t.Fatalf("lap %d: popped %d, want %d (FIFO violated)", lap, q.pkt.U0, want)
			}
		}
		if _, ok := r.pop(); ok {
			t.Fatalf("lap %d: pop succeeded on drained ring", lap)
		}
	}
}

// TestRingOverfillPanics pins the capacity discipline: pushing past the
// slot count without a reserved token is an invariant breach, not a spin.
func TestRingOverfillPanics(t *testing.T) {
	var r mpscRing
	r.init(2)
	r.push(qItem{})
	r.push(qItem{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing into a full ring")
		}
	}()
	r.push(qItem{})
}

// stressRing drives producers sender endpoints at one consumer endpoint
// and checks per-(src,dst) FIFO, exact packet counts, and full token
// drain.  send is called per (producer endpoint, sequence number); the
// batched variant plugs in coalesced sends.
func stressRing(t *testing.T, cfg Config, packets int, send func(ep *Endpoint, j uint64), finish func(ep *Endpoint)) {
	t.Helper()
	producers := cfg.Nodes - 1
	dst := NodeID(producers)
	last := make([]uint64, producers)
	total := 0
	nw := newTestNet(t, cfg, map[HandlerID]Handler{
		hCount: func(ep *Endpoint, p Packet) {
			if int(p.Src) >= producers {
				t.Errorf("packet from unexpected src %d", p.Src)
				return
			}
			if p.U0 != last[p.Src]+1 {
				t.Errorf("src %d: got seq %d after %d (per-pair FIFO violated)", p.Src, p.U0, last[p.Src])
			}
			last[p.Src] = p.U0
			total++
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := nw.Endpoint(NodeID(i))
			// Seeded per-producer scheduling jitter permutes the
			// producer interleaving deterministically-ish without
			// relying on wall clocks.
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(i)))
			for j := uint64(1); j <= uint64(packets); j++ {
				send(ep, j)
				if rng.Intn(8) == 0 {
					runtime.Gosched()
				}
			}
			if finish != nil {
				finish(ep)
			}
		}(i)
	}
	stop := make(chan struct{})
	cons := nw.Endpoint(dst)
	want := producers * packets
	deadline := time.Now().Add(30 * time.Second)
	for total < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: handled %d/%d packets (pending %d)", total, want, cons.Pending())
		}
		if cons.PollAll() == 0 {
			cons.RecvBlock(stop, 200*time.Microsecond)
		}
	}
	wg.Wait()
	if cons.PollAll() != 0 || total != want {
		t.Fatalf("handled %d packets, want exactly %d", total, want)
	}
	// Token conservation: every reserve was matched by a release.
	if n := cons.Pending(); n != 0 {
		t.Errorf("consumer inbox still holds %d tokens after drain", n)
	}
	if !cons.ring.empty() {
		t.Error("consumer ring not empty after drain")
	}
	if got := cons.Stats().Received; got != uint64(want) {
		t.Errorf("consumer Received = %d, want %d", got, want)
	}
	for i := 0; i < producers; i++ {
		if got := last[i]; got != uint64(packets) {
			t.Errorf("src %d: last seq %d, want %d", i, got, packets)
		}
	}
}

// TestRingMultiProducerStress hammers one inbox from eight concurrent
// producers through the plain Send path.
func TestRingMultiProducerStress(t *testing.T) {
	stressRing(t, Config{Nodes: 9}, 4000, func(ep *Endpoint, j uint64) {
		ep.Send(Packet{Handler: hCount, Dst: 8, U0: j})
	}, nil)
}

// TestRingParkUnparkEdges shrinks the inbox so producers continually hit
// the full edge (park on spaceWake) and the consumer continually hits
// the empty edge (park on recvWake), exercising both wake protocols and
// token accounting under maximal contention.
func TestRingParkUnparkEdges(t *testing.T) {
	stressRing(t, Config{Nodes: 5}, 3000, func(ep *Endpoint, j uint64) {
		ep.Send(Packet{Handler: hCount, Dst: 4, U0: j})
	}, nil)
	stressRing(t, Config{Nodes: 5, InboxCap: 4}, 3000, func(ep *Endpoint, j uint64) {
		ep.Send(Packet{Handler: hCount, Dst: 4, U0: j})
	}, nil)
}

// TestRingBatchedStress drives the coalescing path (SendBatched with a
// periodic Send barrier) through the ring; batches and singletons
// must interleave FIFO per pair and conserve tokens exactly.
func TestRingBatchedStress(t *testing.T) {
	stressRing(t, Config{Nodes: 5, InboxCap: 32}, 3000, func(ep *Endpoint, j uint64) {
		if j%64 == 0 {
			ep.Send(Packet{Handler: hCount, Dst: 4, U0: j})
		} else {
			ep.SendBatched(Packet{Handler: hCount, Dst: 4, U0: j})
		}
	}, func(ep *Endpoint) { ep.flushOut() })
}

// TestRingCleanDrainAfterStop checks that an inbox abandoned mid-burst
// drains to exactly zero tokens via PollDiscard and stays usable.
func TestRingCleanDrainAfterStop(t *testing.T) {
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 64}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	for i := 0; i < 50; i++ {
		src.Send(Packet{Handler: hPing, Dst: 1, U0: uint64(i)})
	}
	drained := 0
	for dst.PollDiscard() {
		drained++
	}
	if drained != 50 {
		t.Fatalf("PollDiscard drained %d packets, want 50", drained)
	}
	if n := dst.Pending(); n != 0 {
		t.Fatalf("Pending = %d after drain, want 0", n)
	}
	if !dst.ring.empty() {
		t.Fatal("ring not empty after drain")
	}
	// The drained inbox must remain fully usable.
	src.Send(Packet{Handler: hPing, Dst: 1})
	if !dst.PollOne() {
		t.Fatal("inbox unusable after drain")
	}
}

// TestRingSendRecvZeroAlloc guards the steady-state hot path: a word-only
// packet through Send -> ring -> PollOne must not allocate.
func TestRingSendRecvZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nw := newTestNet(t, Config{Nodes: 2, InboxCap: 256}, map[HandlerID]Handler{
		hPing: func(*Endpoint, Packet) {},
	})
	src, dst := nw.Endpoint(0), nw.Endpoint(1)
	step := func() {
		for i := 0; i < 64; i++ {
			src.Send(Packet{Handler: hPing, Dst: 1, U0: uint64(i)})
		}
		for dst.PollOne() {
		}
	}
	step() // warm handler tables and pools
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("ring send/recv allocated %.1f times per 64-packet burst, want 0", n)
	}
}
