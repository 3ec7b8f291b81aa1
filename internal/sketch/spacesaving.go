package sketch

import (
	"cmp"
	"slices"

	"substream/internal/stream"
)

// SpaceSaving is the Metwally–Agrawal–El Abbadi frequent-items summary.
// With k counters every item's estimate overestimates its true count by
// at most its recorded per-counter error, and err ≤ N/k globally, so any
// item with f > N/k is guaranteed to be tracked. Unlike Misra–Gries it
// retains per-item error bounds, which lets callers certify
// ("guaranteed") counts — the property the level-set estimator's heavy
// part needs to avoid double counting.
type SpaceSaving struct {
	k    int
	h    countHeap[uint64] // min-heap on count
	errs []uint64          // by slab id: count inherited on admission; true f ∈ [count−err, count]
	n    uint64
}

// NewSpaceSaving returns a summary with k counters. It panics if k < 1.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving requires k >= 1")
	}
	return &SpaceSaving{k: k}
}

// Observe feeds one item.
func (ss *SpaceSaving) Observe(it stream.Item) { ss.observeRun(it, 1) }

// observeRun feeds run consecutive occurrences of it with one index
// lookup and one sift: a sift-down follows the smaller-child path,
// which the moving entry's own count does not choose, so sinking once
// at the final count lands where run single increments would.
func (ss *SpaceSaving) observeRun(it stream.Item, run uint64) {
	ss.n += run
	h := &ss.h
	id, ok := h.find(it)
	switch {
	case ok:
		h.counts[id] += run
	case len(h.heap) < ss.k:
		// A new counter sifts up at count 1 before the rest of its run.
		id = h.push(it, 1)
		ss.errs = append(ss.errs, 0)
		h.counts[id] += run - 1
	default:
		// Replace the minimum counter, inheriting its count as error.
		min := h.counts[h.heap[0]]
		ss.errs[h.replaceMin(it, min+run)] = min
		return
	}
	h.down(int(h.pos[id]))
}

// Counter reports one tracked item: the true count lies in
// [Count−Err, Count].
type Counter struct {
	Item  stream.Item
	Count uint64
	Err   uint64
}

// Counters returns all tracked items sorted by decreasing count.
func (ss *SpaceSaving) Counters() []Counter {
	out := make([]Counter, 0, len(ss.errs))
	ss.Each(func(c Counter) { out = append(out, c) })
	slices.SortFunc(out, func(a, b Counter) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return out
}

// Each calls fn for every tracked counter in unspecified (slab) order,
// without the copy and sort Counters pays.
func (ss *SpaceSaving) Each(fn func(Counter)) {
	for id, it := range ss.h.items {
		fn(Counter{Item: it, Count: ss.h.counts[id], Err: ss.errs[id]})
	}
}

// Tracked reports whether the item currently holds a counter.
func (ss *SpaceSaving) Tracked(it stream.Item) bool {
	_, ok := ss.h.find(it)
	return ok
}

// K returns the number of counters.
func (ss *SpaceSaving) K() int { return ss.k }

// SpaceBytes returns the bytes of the slices the summary holds.
func (ss *SpaceSaving) SpaceBytes() int { return ss.h.spaceBytes() + 8*cap(ss.errs) }
