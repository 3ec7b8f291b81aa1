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
	k     int
	h     ssHeap // min-heap on count
	index map[stream.Item]int
	n     uint64
}

type ssEntry struct {
	item  stream.Item
	count uint64
	err   uint64 // count inherited on admission; true f ∈ [count−err, count]
}

type ssHeap []ssEntry

// NewSpaceSaving returns a summary with k counters. It panics if k < 1.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving requires k >= 1")
	}
	return &SpaceSaving{k: k, index: make(map[stream.Item]int, k)}
}

// Observe feeds one item.
func (ss *SpaceSaving) Observe(it stream.Item) {
	ss.n++
	if pos, ok := ss.index[it]; ok {
		ss.h[pos].count++
		ss.down(pos)
		return
	}
	if len(ss.h) < ss.k {
		ss.h = append(ss.h, ssEntry{item: it, count: 1})
		ss.index[it] = len(ss.h) - 1
		ss.up(len(ss.h) - 1)
		return
	}
	// Replace the minimum counter, inheriting its count as error.
	min := ss.h[0]
	delete(ss.index, min.item)
	ss.h[0] = ssEntry{item: it, count: min.count + 1, err: min.count}
	ss.index[it] = 0
	ss.down(0)
}

// up restores the heap invariant toward the root from i and returns the
// entry's final position (see down).
func (ss *SpaceSaving) up(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if ss.h[parent].count <= ss.h[i].count {
			break
		}
		ss.swap(i, parent)
		i = parent
	}
	return i
}

// down restores the heap invariant from i and returns the entry's final
// position, so batched runs of one item can sift repeatedly without
// re-querying the index map.
func (ss *SpaceSaving) down(i int) int {
	n := len(ss.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && ss.h[l].count < ss.h[smallest].count {
			smallest = l
		}
		if r < n && ss.h[r].count < ss.h[smallest].count {
			smallest = r
		}
		if smallest == i {
			return i
		}
		ss.swap(i, smallest)
		i = smallest
	}
}

func (ss *SpaceSaving) swap(i, j int) {
	ss.h[i], ss.h[j] = ss.h[j], ss.h[i]
	ss.index[ss.h[i].item] = i
	ss.index[ss.h[j].item] = j
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
	out := make([]Counter, 0, len(ss.h))
	for _, e := range ss.h {
		out = append(out, Counter{Item: e.item, Count: e.count, Err: e.err})
	}
	slices.SortFunc(out, func(a, b Counter) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return out
}

// Each calls fn for every tracked counter in unspecified (heap) order,
// without the copy and sort Counters pays.
func (ss *SpaceSaving) Each(fn func(Counter)) {
	for _, e := range ss.h {
		fn(Counter{Item: e.item, Count: e.count, Err: e.err})
	}
}

// Estimate returns the (over-)estimate for item, 0 if untracked.
func (ss *SpaceSaving) Estimate(it stream.Item) uint64 {
	if pos, ok := ss.index[it]; ok {
		return ss.h[pos].count
	}
	return 0
}

// Tracked reports whether the item currently holds a counter.
func (ss *SpaceSaving) Tracked(it stream.Item) bool {
	_, ok := ss.index[it]
	return ok
}

// N returns how many items have been observed.
func (ss *SpaceSaving) N() uint64 { return ss.n }

// K returns the number of counters.
func (ss *SpaceSaving) K() int { return ss.k }

// SpaceBytes returns the approximate memory footprint.
func (ss *SpaceSaving) SpaceBytes() int { return 48 * ss.k }
