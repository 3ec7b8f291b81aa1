package sketch

import (
	"errors"
	"fmt"

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
// back to the k largest counters. Every per-item invariant survives:
// f ∈ [Count−Err, Count], and the global error stays ≤ N_total/k.
func (ss *SpaceSaving) Merge(other *SpaceSaving) error {
	if ss.k != other.k {
		return fmt.Errorf("%w: SpaceSaving k %d vs %d", ErrIncompatible, ss.k, other.k)
	}
	floorA, floorB := ss.floor(), other.floor()
	// One pass over the foreign counters, joined against the receiver's
	// index: matches add to the receiver's entry, misses append past the
	// receiver's own (es[id] is the receiver's slab entry id).
	es := make([]ssEntry, len(ss.errs), len(ss.errs)+len(other.errs))
	for id, it := range ss.h.items {
		es[id] = ssEntry{it, ss.h.counts[id], ss.errs[id]}
	}
	matched := make([]bool, len(es))
	for oid, it := range other.h.items {
		c, e := other.h.counts[oid], other.errs[oid]
		if id, ok := ss.h.find(it); ok {
			es[id].count += c
			es[id].err += e
			matched[id] = true
		} else {
			es = append(es, ssEntry{it, c + floorA, e + floorA})
		}
	}
	for id, m := range matched {
		if !m {
			es[id].count += floorB
			es[id].err += floorB
		}
	}
	// Keep the k largest in canonical (count desc, item asc) order and
	// rebuild the store by pushing each in that order — the heap layout
	// MarshalBinary writes.
	es = sortEntries(es, make([]ssEntry, len(es)))
	es = es[:min(len(es), ss.k)]
	ss.h.reset(len(es))
	ss.errs = ss.errs[:0]
	for _, e := range es {
		ss.h.push(e.item, e.count)
		ss.errs = append(ss.errs, e.err)
	}
	ss.n += other.n
	return nil
}

// ssEntry is one counter in Merge's scratch list.
type ssEntry struct {
	item       stream.Item
	count, err uint64
}

// sortEntries orders es by (count desc, item asc) with an LSD radix sort
// over the 16 key bytes — item ascending below complemented count —
// skipping every byte all entries agree on (the high bytes of real
// counts and items), so a merge sorts in a handful of linear passes
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

// floor bounds the count of any item ss does not track: its minimum
// counter, or 0 while spare capacity means untracked is never seen.
func (ss *SpaceSaving) floor() uint64 {
	if len(ss.h.heap) < ss.k {
		return 0
	}
	return ss.h.counts[ss.h.heap[0]]
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
