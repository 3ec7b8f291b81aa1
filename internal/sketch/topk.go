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
	} else if len(t.h.heap) < t.k {
		t.h.push(it, count)
	} else if count > t.h.counts[t.h.heap[0]] {
		t.h.replaceMin(it, count)
	}
}

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
