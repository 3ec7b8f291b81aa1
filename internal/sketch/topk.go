package sketch

import (
	"cmp"
	"slices"

	"substream/internal/stream"
)

// TopK tracks the k items with the largest estimated counts seen so far.
// It is the candidate-set companion to CountMin/CountSketch in the
// heavy-hitter algorithms: the sketch answers point queries, TopK
// remembers which items are currently worth reporting.
type TopK struct {
	k int
	h countHeap[float64] // min-heap on count
}

// NewTopK returns a tracker for the k largest counts. It panics if k < 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("sketch: TopK requires k >= 1")
	}
	return &TopK{k: k}
}

// Update reports a (possibly revised) estimated count for item. The
// tracker keeps the item if it is already tracked (updating its count) or
// if its count beats the current minimum.
func (t *TopK) Update(it stream.Item, count float64) {
	if id, ok := t.h.find(it); ok {
		t.h.counts[id] = count
		t.h.fix(id)
	} else {
		t.admit(it, count)
	}
}

// admit lets an untracked item compete for a slot.
func (t *TopK) admit(it stream.Item, count float64) {
	if len(t.h.heap) < t.k {
		t.h.push(it, count)
	} else if count > t.h.counts[t.h.heap[0]] {
		t.h.replaceMin(it, count)
	}
}

// Min returns the smallest tracked count, or 0 when empty.
func (t *TopK) Min() float64 {
	if len(t.h.heap) == 0 {
		return 0
	}
	return t.h.counts[t.h.heap[0]]
}

// Len returns the number of tracked items.
func (t *TopK) Len() int { return len(t.h.heap) }

// SpaceBytes returns the bytes of the slices the tracker holds.
func (t *TopK) SpaceBytes() int { return t.h.spaceBytes() }

// Entry is a tracked item with its estimated count.
type Entry struct {
	Item  stream.Item
	Count float64
}

// Items returns the tracked items sorted by decreasing count (ties by
// increasing item id).
func (t *TopK) Items() []Entry {
	out := make([]Entry, len(t.h.items))
	for id, it := range t.h.items {
		out[id] = Entry{Item: it, Count: t.h.counts[id]}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Item, b.Item))
	})
	return out
}

// Observe counts one occurrence of it: a tracked item's count
// increments, an untracked one competes for entry at count 1 — which a
// full heap of count >= 1 entries always rejects, so an item that first
// appears after the heap fills is never admitted no matter how frequent
// it becomes. Observe exists so decoded trackers satisfy the estimator
// contract; for counting top-k from a raw stream use SpaceSaving, and
// the heavy-hitter estimators drive Update with sketch-backed scores.
func (t *TopK) Observe(it stream.Item) {
	if id, ok := t.h.find(it); ok {
		t.h.counts[id]++
		t.h.fix(id)
	} else {
		t.admit(it, 1)
	}
}

// UpdateBatch feeds a batch of single occurrences.
func (t *TopK) UpdateBatch(items []stream.Item) {
	for _, it := range items {
		t.Observe(it)
	}
}
