package sketch

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"substream/internal/stream"
)

// This file adds distributed merging: several monitors (e.g. line cards
// or routers) each observe an independently Bernoulli-sampled substream
// and a collector combines their summaries. All linear sketches merge
// exactly; the counter-based summaries merge with the standard bounded
// error. Merging requires structurally compatible sketches — same shape
// AND same hash functions, which in this library means "constructed from
// generators at identical state" (the deterministic constructors make
// that trivial: seed both sides identically). Compatibility of the hash
// functions is verified with probe keys rather than trusted.

// ErrIncompatible is returned when two sketches cannot be merged.
var ErrIncompatible = errors.New("sketch: incompatible sketches")

// probeKeys are fixed keys used to verify two sketches share hash
// functions; agreement on all probes makes accidental compatibility
// claims astronomically unlikely.
var probeKeys = [4]uint64{0x9e3779b97f4a7c15, 1, 1 << 40, 0xdeadbeef}

// Merge folds other into cm. Both must have identical dimensions and
// hash functions (same construction seed).
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth {
		return fmt.Errorf("%w: CountMin dims %dx%d vs %dx%d",
			ErrIncompatible, cm.depth, cm.width, other.depth, other.width)
	}
	for row := 0; row < cm.depth; row++ {
		for _, probe := range probeKeys {
			if cm.rr.Bucket(cm.rows[row].Hash(probe)) != other.rr.Bucket(other.rows[row].Hash(probe)) {
				return fmt.Errorf("%w: CountMin hash functions differ (row %d)", ErrIncompatible, row)
			}
		}
	}
	for i := range cm.table {
		cm.table[i] += other.table[i]
	}
	cm.n += other.n
	return nil
}

// Merge folds other into cs. Both must have identical dimensions, bucket
// hashes, and sign hashes.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.width != other.width || cs.depth != other.depth {
		return fmt.Errorf("%w: CountSketch dims %dx%d vs %dx%d",
			ErrIncompatible, cs.depth, cs.width, other.depth, other.width)
	}
	for row := 0; row < cs.depth; row++ {
		for _, probe := range probeKeys {
			if cs.rr.Bucket(cs.buckets[row].Hash(probe)) != other.rr.Bucket(other.buckets[row].Hash(probe)) ||
				cs.signs[row].Sign(probe) != other.signs[row].Sign(probe) {
				return fmt.Errorf("%w: CountSketch hash functions differ (row %d)", ErrIncompatible, row)
			}
		}
	}
	for i := range cs.table {
		cs.table[i] += other.table[i]
	}
	cs.n += other.n
	return nil
}

// Merge folds other into s: the union's k smallest distinct hash values.
// Both sides must share k and the hash function.
func (s *KMV) Merge(other *KMV) error {
	if s.k != other.k {
		return fmt.Errorf("%w: KMV k %d vs %d", ErrIncompatible, s.k, other.k)
	}
	for _, probe := range probeKeys {
		if s.h.Hash(probe) != other.h.Hash(probe) {
			return fmt.Errorf("%w: KMV hash functions differ", ErrIncompatible)
		}
	}
	// Re-observing by hash value keeps the heap/seen invariants; feed
	// each foreign value through the same admission logic.
	for _, hv := range other.heap {
		s.admitHash(hv)
	}
	return nil
}

// admitHash inserts a raw hash value with the same policy as Observe.
func (s *KMV) admitHash(hv uint64) {
	if _, dup := s.seen[hv]; dup {
		return
	}
	if s.heap.Len() < s.k {
		s.seen[hv] = struct{}{}
		pushHash(&s.heap, hv)
		return
	}
	if hv < s.heap[0] {
		evicted := popHash(&s.heap)
		delete(s.seen, evicted)
		s.seen[hv] = struct{}{}
		pushHash(&s.heap, hv)
	}
}

// Merge folds other into ss with the Agarwal et al. ("Mergeable
// Summaries") rule. For an item tracked on both sides, counts and errors
// add. For an item tracked on one side only, the other side bounds its
// count by that side's minimum counter (0 if the side still has spare
// capacity, in which case absence means a true zero), so the merged entry
// inherits that bound as both count mass and error. The result is trimmed
// back to the k largest counters, ties going to the smaller item. Every
// per-item invariant survives: f ∈ [Count−Err, Count], and the global
// error stays ≤ N_total/k.
//
// The merge is a linear join of the two slabs in item order (see the
// ordering contract): other is read in place when it is ordered and
// sorted into the receiver's scratch when it is fed, and is never
// written. It leaves ss merged.
func (ss *SpaceSaving) Merge(other *SpaceSaving) error {
	if ss.k != other.k {
		return fmt.Errorf("%w: SpaceSaving k %d vs %d", ErrIncompatible, ss.k, other.k)
	}
	floorA, floorB, n := ss.floor(), other.floor(), other.n
	// Ordering the receiver first makes a self-merge read an ordered
	// argument in place, which join allows.
	ss.order()
	b := other.slab()
	if other.layout == ssFed {
		ss.run.gather(b, sortByItem(b.items, &ss.ids))
		b = ss.run
	}
	ss.join(b, floorA, floorB)
	ss.n += n
	return nil
}

// floor bounds the count of any item ss does not track: its minimum
// counter, or 0 while spare capacity means untracked is never seen. It
// only reads, whatever the layout.
func (ss *SpaceSaving) floor() uint64 {
	switch {
	case len(ss.h.items) < ss.k:
		return 0
	case ss.layout == ssMerged:
		return slices.Min(ss.h.counts)
	}
	return ss.h.counts[ss.h.heap[0]]
}

// ssRun is a run of counters as parallel slices: a summary's slab, or
// scratch.
type ssRun struct {
	items  []stream.Item
	counts []uint64
	errs   []uint64
}

func (ss *SpaceSaving) slab() ssRun {
	return ssRun{items: ss.h.items, counts: ss.h.counts, errs: ss.errs}
}

// gather sets r, reallocating only a slice that is too small, to the
// counters of src in the order ids names them.
func (r *ssRun) gather(src ssRun, ids []int32) {
	n := len(ids)
	r.items = slices.Grow(r.items[:0], n)[:n]
	r.counts = slices.Grow(r.counts[:0], n)[:n]
	r.errs = slices.Grow(r.errs[:0], n)[:n]
	for i, id := range ids {
		r.items[i], r.counts[i], r.errs[i] = src.items[id], src.counts[id], src.errs[id]
	}
}

// sortByItem returns the positions of items in increasing item order.
// buf holds SortByItem's two buffers, grown to len(items) as needed.
func sortByItem(items []stream.Item, buf *[2][]int32) []int32 {
	for i := range buf {
		buf[i] = slices.Grow(buf[i][:0], len(items))[:len(items)]
	}
	for id := range buf[0] {
		buf[0][id] = int32(id)
	}
	return SortByItem(items, buf[0], buf[1])
}

// SortByItem sorts ids, positions in items, into increasing item order:
// an LSD radix sort of 4-byte positions read through items (a summary's
// slab, which stays in cache) rather than of the entries themselves, so a
// caller that wants only some entries in order hands in just their
// positions. Each pass sorts on the 11 bits from the lowest bit in which
// some two of those items still differ, so the bits every one shares cost
// nothing: two passes for keys below 2^22, three for IPv4 addresses. tmp
// is scratch of len(ids); the result is whichever of the two the last
// pass wrote.
func SortByItem(items []stream.Item, ids, tmp []int32) []int32 {
	const digit = 1<<11 - 1
	and, or := ^stream.Item(0), stream.Item(0)
	for _, id := range ids {
		and, or = and&items[id], or|items[id]
	}
	for varying := uint64(and ^ or); varying != 0; varying &^= digit << bits.TrailingZeros64(varying) {
		shift := bits.TrailingZeros64(varying)
		var start [digit + 1]int32
		for _, id := range ids {
			start[uint64(items[id])>>shift&digit]++
		}
		pos := int32(0)
		for d, n := range start {
			start[d], pos = pos, pos+n
		}
		for _, id := range ids {
			d := uint64(items[id]) >> shift & digit
			tmp[start[d]] = id
			start[d]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}

// Permute reorders a slab of parallel slices (items, counts, and a third
// per-entry field) in place so that entry i becomes the one ids[i] named,
// ids being a permutation of the slab's positions such as SortByItem
// returns: one walk around each cycle of the permutation, marking the
// positions filled by complementing them in ids, which it then restores.
func Permute[E any](ids []int32, items []stream.Item, counts []uint64, extra []E) {
	for start := range ids {
		if ids[start] < 0 {
			continue
		}
		it, c, e := items[start], counts[start], extra[start]
		for j := start; ; {
			k := int(ids[j])
			ids[j] = ^ids[j]
			if k == start {
				items[j], counts[j], extra[j] = it, c, e
				break
			}
			items[j], counts[j], extra[j] = items[k], counts[k], extra[k]
			j = k
		}
	}
	for i, id := range ids {
		ids[i] = ^id
	}
}

// order lays a fed receiver's slab out in item order, in place. Heap, pos
// and index go stale with it, as Merge is about to leave them anyway.
func (ss *SpaceSaving) order() {
	if ss.layout != ssFed {
		return
	}
	Permute(sortByItem(ss.h.items, &ss.ids), ss.h.items, ss.h.counts, ss.errs)
	ss.layout = ssMerged
}

// join merges b, in item order, into the receiver's slab, in item order,
// and keeps the k largest counters in item order. It joins from the back
// into the slab itself, grown to hold both runs: the write position never
// falls below an entry of either run still to be read — not even when b
// is the slab itself, in a self-merge — so nothing is copied out first.
func (ss *SpaceSaving) join(b ssRun, floorA, floorB uint64) {
	na, nb := len(ss.h.items), len(b.items)
	items := slices.Grow(ss.h.items, nb)[:na+nb]
	counts := slices.Grow(ss.h.counts, nb)[:na+nb]
	errs := slices.Grow(ss.errs, nb)[:na+nb]
	i, j, o := na-1, nb-1, na+nb-1
	for ; i >= 0 && j >= 0; o-- {
		switch a := items[i]; {
		case a > b.items[j]: // the receiver's alone
			items[o], counts[o], errs[o] = a, counts[i]+floorB, errs[i]+floorB
			i--
		case a < b.items[j]: // b's alone
			items[o], counts[o], errs[o] = b.items[j], b.counts[j]+floorA, b.errs[j]+floorA
			j--
		default: // tracked on both sides
			items[o], counts[o], errs[o] = a, counts[i]+b.counts[j], errs[i]+b.errs[j]
			i, j = i-1, j-1
		}
	}
	for ; i >= 0; i, o = i-1, o-1 {
		items[o], counts[o], errs[o] = items[i], counts[i]+floorB, errs[i]+floorB
	}
	for ; j >= 0; j, o = j-1, o-1 {
		items[o], counts[o], errs[o] = b.items[j], b.counts[j]+floorA, b.errs[j]+floorA
	}
	// The union is items[o+1:]. Over k, keep every count above the k-th
	// largest and, of those equal to it, as many as fit, first in item
	// order: the canonical (count desc, item asc) cut, order kept. Within
	// k, keep all (every count is at least 1).
	union := o + 1
	cut, ties := uint64(0), 0
	if na+nb-union > ss.k {
		cut, ties = kthLargest(counts[union:], ss.k)
	}
	kept := 0
	for r := union; r < na+nb; r++ {
		if c := counts[r]; c > cut || c == cut && ties > 0 {
			if c == cut {
				ties--
			}
			items[kept], counts[kept], errs[kept] = items[r], c, errs[r]
			kept++
		}
	}
	ss.h.items, ss.h.counts, ss.errs = items[:kept], counts[:kept], errs[:kept]
	ss.layout = ssMerged
}

// kthLargest returns the k-th largest of counts (1 ≤ k ≤ len(counts)) and
// how many of the counts equal to it rank among the k largest: a radix
// select from the highest set bit's byte down, one counting pass per
// byte, that writes nothing.
func kthLargest(counts []uint64, k int) (uint64, int) {
	var or uint64
	for _, c := range counts {
		or |= c
	}
	var prefix, fixed uint64 // the answer's bytes found so far, and their mask
	for shift := (bits.Len64(or) - 1) &^ 7; shift >= 0; shift -= 8 {
		var hist [256]int
		for _, c := range counts {
			if c&fixed == prefix {
				hist[byte(c>>shift)]++
			}
		}
		b := 255
		for ; hist[b] < k; b-- {
			k -= hist[b]
		}
		prefix |= uint64(b) << shift
		fixed |= 0xff << shift
	}
	return prefix, k
}

// rebuild brings a merged summary's heap, pos and index back: the
// counters in canonical (count desc, item asc) order, pushed in that
// order — the heap layout Encode writes. The slab ends up in that order
// too, so the summary is fed again.
func (ss *SpaceSaving) rebuild() {
	if ss.layout != ssMerged {
		return
	}
	es := make([]ssEntry, len(ss.errs))
	for id, it := range ss.h.items {
		es[id] = ssEntry{it, ss.h.counts[id], ss.errs[id]}
	}
	es = sortEntries(es, make([]ssEntry, len(es)))
	ss.h.reset(len(es))
	ss.errs = ss.errs[:0]
	for _, e := range es {
		ss.h.push(e.item, e.count)
		ss.errs = append(ss.errs, e.err)
	}
	ss.layout = ssFed
}

// ssEntry is one counter in rebuild's scratch list.
type ssEntry struct {
	item       stream.Item
	count, err uint64
}

// sortEntries orders es by (count desc, item asc) with an LSD radix sort
// over the 16 key bytes — item ascending below complemented count —
// skipping every byte all entries agree on (the high bytes of real
// counts and items), so a rebuild sorts in a handful of linear passes
// whatever the input order. tmp is scratch of the same length; the
// result is whichever of the two buffers the last pass wrote.
func sortEntries(es, tmp []ssEntry) []ssEntry {
	if len(es) == 0 {
		return es
	}
	word := func(e ssEntry, w int) uint64 {
		if w == 0 {
			return uint64(e.item)
		}
		return ^e.count
	}
	for w := 0; w < 2; w++ {
		var varies uint64
		for _, e := range es {
			varies |= word(e, w) ^ word(es[0], w)
		}
		for shift := 0; shift < 64; shift += 8 {
			if varies>>shift&0xff == 0 {
				continue
			}
			var next [256]int
			for _, e := range es {
				next[word(e, w)>>shift&0xff]++
			}
			sum := 0
			for b, n := range next {
				next[b], sum = sum, sum+n
			}
			for _, e := range es {
				b := word(e, w) >> shift & 0xff
				tmp[next[b]] = e
				next[b]++
			}
			es, tmp = tmp, es
		}
	}
	return es
}

// pushHash and popHash are tiny non-interface heap helpers shared by
// Observe/Merge paths.
func pushHash(h *hashMaxHeap, v uint64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] >= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func popHash(h *hashMaxHeap) uint64 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && (*h)[l] > (*h)[largest] {
			largest = l
		}
		if r < len(*h) && (*h)[r] > (*h)[largest] {
			largest = r
		}
		if largest == i {
			return top
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
}
