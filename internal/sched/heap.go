package sched

// Heap is a min-heap of items keyed by a float64 priority with FIFO
// tie-breaking.  The kernel's dispatcher uses it to run tasks in virtual
// arrival order, the discipline of an event-driven simulator: processing
// the earliest-stamped work first keeps a node's virtual clock from being
// dragged forward by a late-stamped message while earlier work waits.
//
// Both sifts carry the moving item in a local and shift the items on its
// path into the hole it leaves, one copy per level where a swap makes
// three, with the (key, seq) comparison written out in the loop.  Every
// (key, seq) pair is distinct, so the pop order is the sorted order
// whatever the sift does; only its cost changed.
//
// Like Deque, a Heap is single-owner and needs no locking.
type Heap[T any] struct {
	items []heapItem[T]
	seq   uint64
}

type heapItem[T any] struct {
	val T
	key float64
	seq uint64 // insertion order breaks ties
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap is empty.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Push inserts v with the given key.
func (h *Heap[T]) Push(v T, key float64) {
	h.items = append(h.items, heapItem[T]{})
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		// The new item's seq is the largest yet, so it rises only past a
		// strictly larger key.
		if !(key < items[parent].key) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = heapItem[T]{val: v, key: key, seq: h.seq}
	h.seq++
}

// Pop removes and returns the minimum-key item.
func (h *Heap[T]) Pop() (T, bool) {
	v, _, ok := h.PopKey()
	return v, ok
}

// PopKey is Pop that also returns the key the item was pushed with.
func (h *Heap[T]) PopKey() (T, float64, bool) {
	n := len(h.items) - 1
	if n < 0 {
		var zero T
		return zero, 0, false
	}
	items := h.items
	top := items[0]
	last := items[n]
	items[n] = heapItem[T]{} // release references
	h.items = items[:n]
	if n == 0 {
		return top.val, top.key, true
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			if a, b := &items[r], &items[c]; a.key < b.key || (a.key == b.key && a.seq < b.seq) {
				c = r
			}
		}
		if a := &items[c]; !(a.key < last.key || (a.key == last.key && a.seq < last.seq)) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = last
	return top.val, top.key, true
}

// MinKey returns the smallest key without removing its item.
func (h *Heap[T]) MinKey() (float64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].key, true
}
