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
//
// Ordering contract. The counters live in a slab (items, counts and errs
// by slab id) beside a min-heap over it (heap and pos) and an index from
// item to slab id. Which of those describe the slab is the summary's
// layout:
//
//   - fed (NewSpaceSaving, Observe, UpdateBatch): heap, pos and index all
//     cover the slab, which is in no particular order.
//   - decoded (DecodeSpaceSaving): the slab is in increasing item order
//     and the heap covers it in the payload's own layout; there is no
//     index.
//   - merged (Merge): the slab is in increasing item order, cut to the k
//     largest counters; heap, pos and index are stale.
//
// Merge joins two item-ordered slabs. It reads an ordered (decoded or
// merged) argument in place and sorts a copy of a fed one into scratch
// the receiver owns, so it never writes its argument; the floor it needs
// of either side is the heap's root, or the smallest count of a merged
// slab. A collector retains decoded states, and those are only ever read
// — by Merge, Each, and the snapshot's Encode, which walks a decoded heap
// as it stands — however many queries fold them at once. The calls that
// need the heap or the index bring them back first and so belong to the
// summary's owner: Observe, UpdateBatch and Tracked index a decoded
// summary and rebuild a merged one, and Encode rebuilds a merged one. The
// rebuild sorts the counters canonically (count desc, item asc) and
// pushes them in that order, which is the heap layout — and so every byte
// Encode writes — that a merge has always left.
type SpaceSaving struct {
	k      int
	h      countHeap[uint64] // min-heap on count
	errs   []uint64          // by slab id: count inherited on admission; true f ∈ [count−err, count]
	n      uint64
	layout ssLayout
	// Merge's sort space, kept between merges: the radix buffers of a fed
	// side's slab ids, and a fed argument's counters gathered in item
	// order.
	ids [2][]int32
	run ssRun
}

// ssLayout says which of a SpaceSaving's structures describe its slab
// (see the ordering contract).
type ssLayout uint8

const (
	ssFed ssLayout = iota
	ssDecoded
	ssMerged
)

// NewSpaceSaving returns a summary with k counters. It panics if k < 1.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving requires k >= 1")
	}
	return &SpaceSaving{k: k}
}

// Observe feeds one item.
func (ss *SpaceSaving) Observe(it stream.Item) {
	ss.own()
	ss.observeRun(it, 1)
}

// own brings the heap and the index back over the slab ahead of an owner
// call that updates or probes it: a decoded summary indexes its slab, a
// merged one is rebuilt.
func (ss *SpaceSaving) own() {
	switch ss.layout {
	case ssDecoded:
		ss.h.reindex()
	case ssMerged:
		ss.rebuild()
	}
	ss.layout = ssFed
}

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
// without the copy and sort Counters pays. It only reads the slab, so it
// is safe on any layout.
func (ss *SpaceSaving) Each(fn func(Counter)) {
	for id, it := range ss.h.items {
		fn(Counter{Item: it, Count: ss.h.counts[id], Err: ss.errs[id]})
	}
}

// Tracked reports whether the item currently holds a counter. It is an
// owner call: it indexes a decoded or merged summary first.
func (ss *SpaceSaving) Tracked(it stream.Item) bool {
	ss.own()
	_, ok := ss.h.find(it)
	return ok
}

// K returns the number of counters.
func (ss *SpaceSaving) K() int { return ss.k }

// SpaceBytes returns the bytes of the slices the summary holds, Merge's
// scratch included.
func (ss *SpaceSaving) SpaceBytes() int {
	r := &ss.run
	return ss.h.spaceBytes() + 8*(cap(ss.errs)+cap(r.items)+cap(r.counts)+cap(r.errs)) + 4*(cap(ss.ids[0])+cap(ss.ids[1]))
}
