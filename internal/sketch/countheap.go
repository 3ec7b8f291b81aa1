package sketch

import (
	"slices"

	"substream/internal/stream"
)

// countHeap is the counter store under SpaceSaving and TopK: entries
// live in a slab (items/counts, indexed by a stable id), the min-heap on
// count is a permutation of ids with pos as its inverse, and index maps
// an item to its id. An entry never moves in the slab, so a sift shifts
// int32s and touches neither the index nor an item; the index is
// consulted once per update and rewritten only when a slot changes
// owner (load, replaceMin). Serialized state is heap order, and stays so
// when SpaceSaving keeps its slab in item order (after a decode or a
// merge): the slab order and the index layout are not observable, and a
// heap left stale by a merge is rebuilt before anything is written.
type countHeap[C uint64 | float64] struct {
	items  []stream.Item
	counts []C
	heap   []int32 // heap position → id
	pos    []int32 // id → heap position
	index  ItemIndex
}

func (h *countHeap[C]) spaceBytes() int {
	return 8*cap(h.items) + 8*cap(h.counts) + 4*cap(h.heap) + 4*cap(h.pos) + h.index.SpaceBytes()
}

// find returns the slab id of it.
func (h *countHeap[C]) find(it stream.Item) (int32, bool) { return h.index.Get(h.items, it) }

// reset empties the store, keeping its slices, ahead of loading n
// entries.
func (h *countHeap[C]) reset(n int) {
	h.items, h.counts = slices.Grow(h.items[:0], n), slices.Grow(h.counts[:0], n)
	h.heap, h.pos = slices.Grow(h.heap[:0], n), slices.Grow(h.pos[:0], n)
	h.index.Reset(n)
}

// reindex rebuilds the index over the whole slab.
func (h *countHeap[C]) reindex() {
	h.index.Reset(len(h.items))
	for id := range h.items {
		h.index.Put(h.items, int32(id))
	}
}

// load appends a new item at the heap's end, leaving heap order to the
// caller (up, or heapify once everything is loaded).
func (h *countHeap[C]) load(it stream.Item, c C) int32 {
	id := int32(len(h.items))
	h.items, h.counts = append(h.items, it), append(h.counts, c)
	h.heap, h.pos = append(h.heap, id), append(h.pos, id)
	h.index.Put(h.items, id)
	return id
}

// push admits a new item and sifts it up.
func (h *countHeap[C]) push(it stream.Item, c C) int32 {
	id := h.load(it, c)
	h.up(len(h.heap) - 1)
	return id
}

// heapify restores heap order over loaded entries, whatever their order.
func (h *countHeap[C]) heapify() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// replaceMin hands the root's slot to it at count c and sifts it down.
func (h *countHeap[C]) replaceMin(it stream.Item, c C) int32 {
	id := h.heap[0]
	h.index.Delete(h.items, id)
	h.items[id], h.counts[id] = it, c
	h.index.Put(h.items, id)
	h.down(0)
	return id
}

// up moves the entry at heap position i toward the root and returns
// where it settled.
func (h *countHeap[C]) up(i int) int {
	id := h.heap[i]
	c := h.counts[id]
	for i > 0 {
		parent := (i - 1) / 2
		pid := h.heap[parent]
		if h.counts[pid] <= c {
			break
		}
		h.heap[i], h.pos[pid] = pid, int32(i)
		i = parent
	}
	h.heap[i], h.pos[id] = id, int32(i)
	return i
}

// down moves the entry at heap position i toward the leaves, left child
// first on ties.
func (h *countHeap[C]) down(i int) {
	id := h.heap[i]
	c := h.counts[id]
	for {
		child := 2*i + 1
		if child >= len(h.heap) {
			break
		}
		cc := h.counts[h.heap[child]]
		if r := child + 1; r < len(h.heap) && h.counts[h.heap[r]] < cc {
			child, cc = r, h.counts[h.heap[r]]
		}
		if !(cc < c) {
			break
		}
		cid := h.heap[child]
		h.heap[i], h.pos[cid] = cid, int32(i)
		i = child
	}
	h.heap[i], h.pos[id] = id, int32(i)
}

// fix restores heap order after the entry id changed its count either
// way.
func (h *countHeap[C]) fix(id int32) {
	if i := int(h.pos[id]); h.up(i) == i {
		h.down(i)
	}
}
