package sketch

import (
	"slices"

	"substream/internal/stream"
	"substream/internal/wire"
)

// ItemCounts is the exact counting store — the frequency vector of the
// observed stream — under levelset.ExactCounter, core's entropy plug-in
// and the GEE baseline: an item slab with its count slab
// beside it, and an ItemIndex over the slab only while the store is being
// updated. The zero value is an empty store.
//
// Ordering contract. The store is ORDERED when its whole slab is in
// increasing key order, which is how Merge, Decode and Settle leave it; an
// ordered store has no index unless it was updated afterwards. Observe
// and UpdateBatch find a known key through the index and append a new one
// past the ordered prefix, in arrival order, so a store that is being fed
// is ordered only up to where the last Merge, Decode or Settle left it.
//
//   - Merge never writes its argument: it reads an ordered argument in
//     place and sorts a copy of a fed one's arrivals. States a collector
//     retains are therefore safe to fold into any number of accumulators
//     at once.
//   - Settle orders the store in place: it sorts the arrivals, joins them
//     into the slab's own tail (the capacity the store had stays) and
//     drops the index, which the next update rebuilds lazily. On an
//     ordered store it only reads; on a fed one it belongs to whoever may
//     call Observe — a pipeline's shard worker settles its replica at
//     every Sync barrier, so what a flush folds is ordered already and a
//     later Settle sorts only the keys that are new since. Merge settles
//     its receiver and Encode the store it is called on; nothing else
//     orders a store.
//   - Sum, the one aggregate a holder computes, only reads: it runs over
//     the counts' profile in any layout, so an answer writes nothing and
//     any number of goroutines may ask a shared state at once.
//
// Serialized state is the sorted item run whatever order the slab is in,
// and Sum depends on the multiset of counts alone, so payloads and
// estimates are functions of the frequency vector — not of item labels,
// arrival or merge order.
type ItemCounts struct {
	items  []stream.Item
	counts []uint64
	n      uint64    // Σ counts
	sorted int       // items[:sorted] strictly increase; the rest is in arrival order
	index  ItemIndex // covers the slab while index.n == len(items), nothing otherwise
}

// Len returns the number of distinct items observed.
func (s *ItemCounts) Len() int { return len(s.items) }

// N returns the number of elements observed, the sum of all counts.
func (s *ItemCounts) N() uint64 { return s.n }

// SpaceBytes returns the bytes of the slabs and, while there is one, the
// index.
func (s *ItemCounts) SpaceBytes() int {
	return 8*cap(s.items) + 8*cap(s.counts) + s.index.SpaceBytes()
}

// Observe counts one element.
func (s *ItemCounts) Observe(it stream.Item) {
	s.reindex()
	s.n++
	s.count(it)
}

// UpdateBatch counts every element of items.
func (s *ItemCounts) UpdateBatch(items []stream.Item) {
	s.reindex()
	s.n += uint64(len(items))
	for _, it := range items {
		s.count(it)
	}
}

func (s *ItemCounts) count(it stream.Item) {
	if id, ok := s.index.Get(s.items, it); ok {
		s.counts[id]++
		return
	}
	s.items, s.counts = append(s.items, it), append(s.counts, 1)
	s.index.Put(s.items, int32(len(s.items)-1))
}

// reindex rebuilds the index an ordering dropped.
func (s *ItemCounts) reindex() {
	if s.index.n == len(s.items) {
		return
	}
	s.index.Reset(len(s.items))
	for id := range s.items {
		s.index.Put(s.items, int32(id))
	}
}

// ordered returns the entries in increasing key order without writing to
// the store: its own slabs when they are in order, otherwise fresh ones
// holding the ordered prefix joined with the sorted arrivals (whose keys
// the prefix, by construction, does not hold).
func (s *ItemCounts) ordered() ([]stream.Item, []uint64) {
	if s.sorted == len(s.items) {
		return s.items, s.counts
	}
	items, counts := sortRun(s.items[s.sorted:], s.counts[s.sorted:])
	if s.sorted == 0 {
		return items, counts
	}
	return joinRuns(s.items[:s.sorted], s.counts[:s.sorted], items, counts)
}

// sortRun returns the entries (items[i], counts[i]) in increasing key
// order in fresh slabs, reading its arguments only: a least-significant-
// byte-first radix sort that skips the bytes every key shares, so keys
// drawn from a few low bytes — addresses, ranks — take as many passes.
func sortRun(items []stream.Item, counts []uint64) ([]stream.Item, []uint64) {
	if len(items) < 2 {
		return slices.Clone(items), slices.Clone(counts)
	}
	and, or := ^stream.Item(0), stream.Item(0)
	for _, it := range items {
		and, or = and&it, or|it
	}
	varying := and ^ or // the bits that differ between some two keys
	// A pass reads what the one before it wrote and writes the other
	// scratch pair — never the caller's slabs, which only the first reads.
	var scratchI [2][]stream.Item
	var scratchC [2][]uint64
	srcI, srcC, to := items, counts, 0
	for shift := 0; shift < 64; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		if scratchI[to] == nil {
			scratchI[to], scratchC[to] = make([]stream.Item, len(items)), make([]uint64, len(items))
		}
		dstI, dstC := scratchI[to], scratchC[to]
		var start [256]int
		for _, it := range srcI {
			start[byte(it>>shift)]++
		}
		pos := 0
		for b, n := range start {
			start[b], pos = pos, pos+n
		}
		for i, it := range srcI {
			b := byte(it >> shift)
			dstI[start[b]], dstC[start[b]] = it, srcC[i]
			start[b]++
		}
		srcI, srcC, to = dstI, dstC, 1-to
	}
	return srcI, srcC
}

// Settle brings the store into key order in place (see the ordering
// contract for who may call it on a fed store).
func (s *ItemCounts) Settle() {
	if s.sorted == len(s.items) {
		return
	}
	ai, ac := sortRun(s.items[s.sorted:], s.counts[s.sorted:])
	// A two-finger join from the back, into the slab itself: the prefix
	// and the arrivals share no key, so the output is exactly as long as
	// the slab, position k is never below the prefix entry still to be
	// read, and nothing before the smallest arrival moves.
	i, j := s.sorted-1, len(ai)-1
	for k := len(s.items) - 1; j >= 0; k-- {
		if i >= 0 && s.items[i] > ai[j] {
			s.items[k], s.counts[k] = s.items[i], s.counts[i]
			i--
		} else {
			s.items[k], s.counts[k] = ai[j], ac[j]
			j--
		}
	}
	s.sorted, s.index = len(s.items), ItemIndex{}
}

// Sum returns ProfileSum(g) over the store's counts: it only reads the
// store, in whatever layout it is in.
func (s *ItemCounts) Sum(g func(count uint64) float64) float64 { return ProfileSum(s.counts, g) }

// ProfileSum returns Σ g(c) over counts, summed over their profile
// φ_j = |{counts equal to j}|: one pass tallies φ for small counts in a
// fixed array and gathers the few larger ones, which are sorted
// afterwards, then g is called once per distinct count and the terms
// φ_j·g(j) are added in increasing j. The result depends on the multiset
// of counts alone, not on their order.
func ProfileSum(counts []uint64, g func(count uint64) float64) float64 {
	var small [256]uint64
	var buf [64]uint64 // holds the usual few large counts off the heap
	tail := buf[:0]
	for _, c := range counts {
		if c < uint64(len(small)) {
			small[c]++
		} else {
			tail = append(tail, c)
		}
	}
	var total float64
	for c, phi := range small {
		if phi != 0 {
			total += float64(phi) * g(uint64(c))
		}
	}
	slices.Sort(tail)
	for i, j := 0, 0; i < len(tail); i = j {
		for j = i + 1; j < len(tail) && tail[j] == tail[i]; j++ {
		}
		total += float64(j-i) * g(tail[i])
	}
	return total
}

// Merge adds other's counts to s — a linear two-finger join of the two
// key-ordered slabs into fresh ones — and leaves s ordered. It does not
// write to other.
func (s *ItemCounts) Merge(other *ItemCounts) {
	s.Settle()
	if len(other.items) == 0 {
		return
	}
	items, counts := other.ordered()
	s.items, s.counts = joinRuns(s.items, s.counts, items, counts)
	s.sorted, s.index = len(s.items), ItemIndex{}
	s.n += other.n
}

// joinRuns adds two key-ordered runs into fresh slabs: a key of both
// appears once with the sum of its counts. Joining with an empty run is a
// copy.
func joinRuns(ai []stream.Item, ac []uint64, bi []stream.Item, bc []uint64) ([]stream.Item, []uint64) {
	items := make([]stream.Item, len(ai)+len(bi))
	counts := make([]uint64, len(ai)+len(bi))
	i, j, k := 0, 0, 0
	for ; i < len(ai) && j < len(bi); k++ {
		switch a, b := ai[i], bi[j]; {
		case a < b:
			items[k], counts[k] = a, ac[i]
			i++
		case a > b:
			items[k], counts[k] = b, bc[j]
			j++
		default:
			items[k], counts[k] = a, ac[i]+bc[j]
			i++
			j++
		}
	}
	// At most one of the two runs has a rest.
	copy(counts[k:], ac[i:])
	k += copy(items[k:], ai[i:])
	copy(counts[k:], bc[j:])
	k += copy(items[k:], bi[j:])
	return items[:k], counts[:k]
}

// Encode writes the store as a sorted item run, settling it first: equal
// frequency vectors serialize identically, and an ordered store streams
// out in one pass with nothing sorted and nothing looked up.
func (s *ItemCounts) Encode(w *wire.Writer) {
	s.Settle()
	run := w.Run(len(s.items))
	for i, it := range s.items {
		run.Put(it, s.counts[i])
	}
}

// Decode replaces s with the sorted item run r holds, read straight into
// two slabs sized from the run's validated length, and leaves s ordered
// and unindexed. maxCount bounds each count (Reader.Run); on a failed
// reader s is left alone.
func (s *ItemCounts) Decode(r *wire.Reader, maxCount uint64) {
	run := r.Run(wire.MaxWireElems, wire.RunEntryBytes, maxCount)
	if r.Err() != nil {
		return
	}
	items, counts := make([]stream.Item, run.N), make([]uint64, run.N)
	for i := 0; run.Next(); i++ {
		items[i], counts[i] = run.Item, run.Count
	}
	if r.Err() == nil {
		*s = ItemCounts{items: items, counts: counts, n: run.Sum, sorted: run.N}
	}
}
