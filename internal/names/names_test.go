package names

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"hal/internal/amnet"
)

// TestLDSize pins the descriptor's size: arenas hold one LD per live
// actor, so a field that lands the struct on a new size bucket is a
// memory and creation-cost regression that nothing else would notice.
func TestLDSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 72-byte pin is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(LD{}); got != 72 {
		t.Errorf("unsafe.Sizeof(LD{}) = %d, want 72", got)
	}
}

func TestAddrNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	a := Addr{Birth: 0, Hint: 0, Seq: 1}
	if a.IsNil() {
		t.Error("valid addr reported nil")
	}
}

func TestAddrAlias(t *testing.T) {
	ord := Addr{Birth: 2, Hint: 2, Seq: 5}
	ali := Addr{Birth: 2, Hint: 7, Seq: 5}
	if ord.IsAlias() {
		t.Error("ordinary addr reported alias")
	}
	if !ali.IsAlias() {
		t.Error("alias addr not reported alias")
	}
}

func TestAddrString(t *testing.T) {
	cases := []struct {
		a    Addr
		want string
	}{
		{Nil, "a<nil>"},
		{Addr{Birth: 3, Hint: 3, Seq: 17}, "a3:17"},
		{Addr{Birth: 3, Hint: 5, Seq: 17}, "a3>5:17"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestAddrMapKey(t *testing.T) {
	m := map[Addr]int{}
	a := Addr{Birth: 1, Hint: 1, Seq: 9}
	m[a] = 42
	if m[Addr{Birth: 1, Hint: 1, Seq: 9}] != 42 {
		t.Error("Addr not usable as map key")
	}
}

func TestArenaAllocGet(t *testing.T) {
	a := NewArena()
	seq, ld := a.Alloc()
	if seq == 0 {
		t.Fatal("Alloc returned reserved seq 0")
	}
	ld.State = LDLocal
	if got := a.Get(seq); got == nil || got.State != LDLocal {
		t.Fatal("Get did not return the allocated descriptor")
	}
	if a.Live() != 1 {
		t.Errorf("Live=%d want 1", a.Live())
	}
}

func TestArenaGetInvalid(t *testing.T) {
	a := NewArena()
	if a.Get(0) != nil {
		t.Error("Get(0) != nil")
	}
	if a.Get(999) != nil {
		t.Error("Get(out of range) != nil")
	}
}

func TestArenaFreeInvalidatesSeq(t *testing.T) {
	a := NewArena()
	seq, ld := a.Alloc()
	ld.State = LDLocal
	a.Free(seq)
	if a.Get(seq) != nil {
		t.Fatal("stale seq resolved after Free")
	}
	if a.Live() != 0 {
		t.Errorf("Live=%d want 0", a.Live())
	}
}

func TestArenaReuseBumpsGeneration(t *testing.T) {
	a := NewArena()
	seq1, _ := a.Alloc()
	a.Free(seq1)
	seq2, ld2 := a.Alloc()
	ld2.State = LDRemote
	if seqSlot(seq1) != seqSlot(seq2) {
		t.Fatalf("slot not reused: %d vs %d", seqSlot(seq1), seqSlot(seq2))
	}
	if seq1 == seq2 {
		t.Fatal("reused slot kept the same generation")
	}
	if a.Get(seq1) != nil {
		t.Fatal("old generation still resolves")
	}
	if got := a.Get(seq2); got == nil || got.State != LDRemote {
		t.Fatal("new generation does not resolve")
	}
}

func TestArenaDoubleFreeNoop(t *testing.T) {
	a := NewArena()
	seq, _ := a.Alloc()
	a.Free(seq)
	a.Free(seq) // deliberate double free of a stale seq: must not corrupt
	seq2, _ := a.Alloc()
	if a.Get(seq2) == nil {
		t.Fatal("arena corrupted by double free")
	}
	if a.Live() != 1 {
		t.Errorf("Live=%d want 1", a.Live())
	}
}

func TestArenaFreeClearsDescriptor(t *testing.T) {
	a := NewArena()
	seq, ld := a.Alloc()
	ld.State = LDLocal
	ld.Held = append(ld.Held, "msg")
	a.Free(seq)
	seq2, ld2 := a.Alloc()
	if seqSlot(seq2) == seqSlot(seq) && (ld2.State != LDFree || ld2.Held != nil) {
		t.Fatal("reused descriptor not zeroed")
	}
}

// Property: an arena under a random alloc/free workload never confuses
// live and freed descriptors.
func TestArenaSlotmapProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%500) + 50
		a := NewArena()
		type entry struct {
			seq uint64
			tag amnet.NodeID
		}
		var live []entry
		var dead []uint64
		for i := 0; i < ops; i++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				seq, ld := a.Alloc()
				tag := amnet.NodeID(rng.Int31())
				ld.State = LDRemote
				ld.RNode = tag
				live = append(live, entry{seq, tag})
			} else {
				k := rng.Intn(len(live))
				a.Free(live[k].seq)
				dead = append(dead, live[k].seq)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if a.Live() != len(live) {
			return false
		}
		for _, e := range live {
			ld := a.Get(e.seq)
			if ld == nil || ld.RNode != e.tag {
				return false
			}
		}
		for _, seq := range dead {
			if a.Get(seq) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeSeqRoundTrip(t *testing.T) {
	f := func(slotRaw uint64, gen uint32) bool {
		slot := slotRaw & seqSlotMask
		gen &= 0xffffff
		seq := MakeSeq(slot, gen)
		return seqSlot(seq) == slot && seqGen(seq) == gen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableLookupMiss(t *testing.T) {
	tb := NewTable()
	if tb.Lookup(Addr{Birth: 1, Hint: 1, Seq: 3}) != 0 {
		t.Error("miss returned nonzero seq")
	}
	if tb.Misses != 1 || tb.Hits != 0 {
		t.Errorf("miss counters wrong: hits=%d misses=%d", tb.Hits, tb.Misses)
	}
}

func TestTableBindLookup(t *testing.T) {
	tb := NewTable()
	a := Addr{Birth: 1, Hint: 1, Seq: 3}
	tb.Bind(a, 99)
	if got := tb.Lookup(a); got != 99 {
		t.Errorf("Lookup=%d want 99", got)
	}
	if tb.Hits != 1 {
		t.Errorf("hits=%d want 1", tb.Hits)
	}
	tb.Bind(a, 100) // rebind replaces
	if got := tb.Lookup(a); got != 100 {
		t.Errorf("after rebind Lookup=%d want 100", got)
	}
}

func TestTableUnbindGuarded(t *testing.T) {
	tb := NewTable()
	a := Addr{Birth: 1, Hint: 1, Seq: 3}
	tb.Bind(a, 5)
	tb.Unbind(a, 6) // wrong seq: must not remove
	if tb.Lookup(a) != 5 {
		t.Fatal("guarded unbind removed a live binding")
	}
	tb.Unbind(a, 5)
	if tb.Lookup(a) != 0 {
		t.Fatal("unbind did not remove binding")
	}
	if tb.Len() != 0 {
		t.Errorf("Len=%d want 0", tb.Len())
	}
}

func TestLDStateStrings(t *testing.T) {
	want := map[LDState]string{
		LDFree: "free", LDLocal: "local", LDRemote: "remote",
		LDUnresolved: "unresolved", LDInTransit: "in-transit",
		LDAliasPending: "alias-pending", LDState(99): "invalid",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("LDState(%d).String()=%q want %q", s, s.String(), w)
		}
	}
}

func TestArenaCap(t *testing.T) {
	a := NewArena()
	for i := 0; i < 10; i++ {
		a.Alloc()
	}
	if a.Cap() != 10 {
		t.Errorf("Cap=%d want 10", a.Cap())
	}
}

func TestAllocRangeContiguous(t *testing.T) {
	a := NewArena()
	seq1, _ := a.Alloc()
	a.Free(seq1) // free list must NOT be used by AllocRange
	first := a.AllocRange(5)
	for i := 0; i < 5; i++ {
		seq := MakeSeq(first+uint64(i), 0)
		ld := a.Get(seq)
		if ld == nil {
			t.Fatalf("range slot %d not resolvable", i)
		}
		ld.State = LDAliasPending
	}
	if a.Live() != 5 {
		t.Errorf("Live=%d want 5", a.Live())
	}
	// Slots are consecutive and generation zero.
	seqNext, _ := a.Alloc() // reuses the freed slot, not the range
	if seqSlot(seqNext) >= first && seqSlot(seqNext) < first+5 {
		t.Error("Alloc handed out a range slot")
	}
}

func TestArenaForEach(t *testing.T) {
	a := NewArena()
	s1, ld1 := a.Alloc()
	ld1.State = LDLocal
	s2, ld2 := a.Alloc()
	ld2.State = LDRemote
	a.Free(s2)
	seen := map[uint64]LDState{}
	a.ForEach(func(seq uint64, ld *LD) { seen[seq] = ld.State })
	if len(seen) != 2 {
		t.Fatalf("ForEach visited %d slots, want 2", len(seen))
	}
	if seen[s1] != LDLocal {
		t.Error("live slot state wrong")
	}
	// The freed slot is visited under its NEW generation with free state.
	if _, ok := seen[s2]; ok {
		t.Error("freed slot visited under stale seq")
	}
}
