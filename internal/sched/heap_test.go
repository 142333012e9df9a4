package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHeapEmpty(t *testing.T) {
	var h Heap[int]
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("zero heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := h.MinKey(); ok {
		t.Fatal("MinKey on empty returned ok")
	}
}

func TestHeapOrdersByKey(t *testing.T) {
	var h Heap[string]
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	for _, want := range []string{"a", "b", "c"} {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("got %q want %q", v, want)
		}
	}
}

func TestHeapFIFOTieBreak(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 50; i++ {
		h.Push(i, 7.0)
	}
	for i := 0; i < 50; i++ {
		v, _ := h.Pop()
		if v != i {
			t.Fatalf("tie-break not FIFO: got %d want %d", v, i)
		}
	}
}

func TestHeapMinKey(t *testing.T) {
	var h Heap[int]
	h.Push(1, 5)
	h.Push(2, 3)
	if k, ok := h.MinKey(); !ok || k != 3 {
		t.Fatalf("MinKey=%v,%v", k, ok)
	}
	if h.Len() != 2 {
		t.Fatal("MinKey consumed an item")
	}
}

// Property: popping everything yields keys in nondecreasing order and the
// same multiset that went in.
func TestHeapSortsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 500)
		var h Heap[float64]
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(100))
			h.Push(keys[i], keys[i])
		}
		var got []float64
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != n {
			return false
		}
		if !sort.Float64sAreSorted(got) {
			return false
		}
		sort.Float64s(keys)
		for i := range keys {
			if keys[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	var h Heap[int]
	h.Push(5, 5)
	h.Push(1, 1)
	if v, _ := h.Pop(); v != 1 {
		t.Fatal("wrong min")
	}
	h.Push(0, 0)
	h.Push(9, 9)
	if v, _ := h.Pop(); v != 0 {
		t.Fatal("wrong min after interleave")
	}
	if v, _ := h.Pop(); v != 5 {
		t.Fatal("wrong order")
	}
	if v, _ := h.Pop(); v != 9 {
		t.Fatal("wrong last")
	}
}

// TestHeapMatchesReference drives random interleaved Push, Pop and PopKey
// against a reference kept sorted by (key, insertion order).  Keys come
// from a handful of values, so ties are the common case, and every round
// ends drained to empty before the next refills it.
func TestHeapMatchesReference(t *testing.T) {
	type entry struct {
		val int
		key float64
	}
	rng := rand.New(rand.NewSource(1))
	var h Heap[int]
	var ref []entry // sorted by key, insertion order within a key
	next := 0
	pop := func() {
		var want entry
		if len(ref) > 0 {
			want = ref[0]
		}
		v, k, ok := 0, want.key, false
		if rng.Intn(2) == 0 {
			v, ok = h.Pop()
		} else {
			v, k, ok = h.PopKey()
		}
		if ok != (len(ref) > 0) {
			t.Fatalf("pop ok=%v with %d items in the reference", ok, len(ref))
		}
		if !ok {
			return
		}
		if v != want.val || k != want.key {
			t.Fatalf("popped (%d, %v), want (%d, %v)", v, k, want.val, want.key)
		}
		ref = ref[1:]
	}
	for round := 0; round < 50; round++ {
		for op := 0; op < 400; op++ {
			if rng.Intn(5) < 3 {
				e := entry{val: next, key: float64(rng.Intn(8))}
				next++
				h.Push(e.val, e.key)
				at := sort.Search(len(ref), func(i int) bool { return ref[i].key > e.key })
				ref = append(ref, entry{})
				copy(ref[at+1:], ref[at:])
				ref[at] = e
			} else {
				pop()
			}
			if k, ok := h.MinKey(); ok != (len(ref) > 0) || (ok && k != ref[0].key) {
				t.Fatalf("MinKey = %v, %v with reference %v", k, ok, ref)
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if !h.Empty() {
			t.Fatalf("heap holds %d items after the reference drained", h.Len())
		}
	}
}

// TestHeapItemOverhead pins what the heap stores beside each value: the
// key and the tie-break, 16 bytes.  core sizes its dispatcher entry on it.
func TestHeapItemOverhead(t *testing.T) {
	if got := unsafe.Sizeof(heapItem[any]{}) - unsafe.Sizeof(any(nil)); got != 16 {
		t.Errorf("heapItem[any] carries %d bytes beside the value, want 16", got)
	}
	if got := unsafe.Sizeof(heapItem[*int]{}) - unsafe.Sizeof((*int)(nil)); got != 16 {
		t.Errorf("heapItem[*int] carries %d bytes beside the value, want 16", got)
	}
}

func TestHeapSteadyStateAllocs(t *testing.T) {
	var h Heap[*int]
	v := new(int)
	for i := 0; i < 64; i++ {
		h.Push(v, float64(i&7))
	}
	key := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Push(v, key)
		key++
		h.PopKey()
	}); allocs != 0 {
		t.Errorf("push+pop at steady state: %.2f allocs/op, want 0", allocs)
	}
}

// benchPushPop times one Push and one Pop with the given number of items
// resident — the dispatcher's duty cycle.  Keys rise like a virtual clock
// with a little jitter, so the pushed item usually sinks to a leaf and the
// pop sifts the full height.
func benchPushPop[T any](b *testing.B, residents int, v T) {
	var h Heap[T]
	for i := 0; i < residents; i++ {
		h.Push(v, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(v, float64(residents+i+i&3))
		h.Pop()
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	for _, residents := range []int{8, 64} {
		b.Run(fmt.Sprintf("int/%d", residents), func(b *testing.B) { benchPushPop(b, residents, 0) })
		b.Run(fmt.Sprintf("ptr/%d", residents), func(b *testing.B) { benchPushPop[any](b, residents, new(int)) })
	}
}
