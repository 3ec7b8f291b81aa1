// Package sketch implements the streaming summaries the paper's
// estimators are built from: CountMin (Cormode–Muthukrishnan, used by
// Theorem 6), CountSketch (Charikar–Chen–Farach-Colton, used by
// Theorem 7), the KMV distinct-count estimator (used by Algorithm 2),
// SpaceSaving (the level set's heavy part), a top-k tracker, and
// ItemCounts, the exact frequency vector. Each merges and has a wire
// form, nested in its parent's payload.
//
// Every sketch is seeded explicitly from an rng.Xoshiro256 so experiments
// are reproducible, and every sketch reports its approximate memory
// footprint so the harness can compare space honestly.
//
// The counter-based summaries (SpaceSaving, TopK) share one store,
// countHeap: a slab of entries with stable ids, a min-heap that is a
// permutation of those ids, and one ItemIndex from item to id. Only
// admission and replace-min move an item in or out of a slab slot, and
// only they write the index; an update reads it once per run of equal
// items, and sifts move ids without hashing. The heavy-hitter
// estimators pair a table sketch with a TopK through ObserveEstimate,
// which is Observe followed by Estimate at one hash evaluation per row.
//
// The exact summaries — levelset.ExactCounter, core's entropy plug-in
// and GEE, each the full frequency vector of the observed stream —
// share the other store, ItemCounts: an item slab and a count slab that
// Merge and Decode leave in key order, with an ItemIndex only while it
// is fed. Its ordering contract: Merge never writes its
// argument (an ordered one is read in place by a linear two-finger join,
// a fed one's arrivals are sorted in a copy), so decoded states may be
// folded by any number of goroutines at once; only Merge (its receiver),
// Encode and Settle order a store, in place, which makes Encode and
// Settle, on a fed store, calls for whoever may Observe it. Every answer
// is a write-free ItemCounts.Sum over the profile of the counts, in any
// layout. Payloads are the sorted item run and answers ignore item
// labels, so both depend on the frequency vector alone.
package sketch

import (
	"math"

	"substream/internal/rng"
	"substream/internal/stream"
)

// CountMin is the Cormode–Muthukrishnan CountMin sketch for insert
// streams. Point queries overestimate by at most ε·N with probability
// 1−δ when built with width e/ε and depth ln(1/δ), where N is the total
// count added.
type CountMin struct {
	width int
	depth int
	table []uint64    // depth rows of width cells, row-major
	rows  []rng.Hash2 // one flat degree-1 kernel per row
	rr    rng.Range   // divide-free bucket reduction (fastrange)
	n     uint64
}

// NewCountMin builds a sketch with the given width and depth, drawing
// hash functions from r. It panics if width or depth is < 1.
func NewCountMin(width, depth int, r *rng.Xoshiro256) *CountMin {
	if width < 1 || depth < 1 {
		panic("sketch: CountMin width and depth must be >= 1")
	}
	cm := &CountMin{
		width: width,
		depth: depth,
		table: make([]uint64, width*depth),
		rows:  make([]rng.Hash2, depth),
		rr:    rng.NewRange(uint64(width)),
	}
	for i := range cm.rows {
		cm.rows[i] = rng.NewHash2(r)
	}
	return cm
}

// NewCountMinWithError builds a sketch sized for point-query error ε·N
// with failure probability δ: width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉.
func NewCountMinWithError(epsilon, delta float64, r *rng.Xoshiro256) *CountMin {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: CountMin epsilon and delta must be in (0, 1)")
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return NewCountMin(width, depth, r)
}

// Add records count occurrences of item.
func (cm *CountMin) Add(it stream.Item, count uint64) {
	x := rng.Mod61(uint64(it))
	for row := 0; row < cm.depth; row++ {
		col := cm.rr.Bucket(cm.rows[row].Eval(x))
		cm.table[uint64(row*cm.width)+col] += count
	}
	cm.n += count
}

// Observe records a single occurrence of item.
func (cm *CountMin) Observe(it stream.Item) { cm.Add(it, 1) }

// ObserveEstimate records one occurrence of item and returns its point
// estimate, exactly as Observe followed by Estimate would — a row's cell
// is touched by no other row — with one hash evaluation per row.
func (cm *CountMin) ObserveEstimate(it stream.Item) uint64 {
	x := rng.Mod61(uint64(it))
	est := uint64(math.MaxUint64)
	for row := range cm.rows {
		cell := &cm.table[uint64(row*cm.width)+cm.rr.Bucket(cm.rows[row].Eval(x))]
		*cell++
		est = min(est, *cell)
	}
	cm.n++
	return est
}

// Estimate returns the point estimate f̂_i = min over rows. It never
// underestimates the true count.
func (cm *CountMin) Estimate(it stream.Item) uint64 {
	x := rng.Mod61(uint64(it))
	est := uint64(math.MaxUint64)
	for row := 0; row < cm.depth; row++ {
		col := cm.rr.Bucket(cm.rows[row].Eval(x))
		if v := cm.table[uint64(row*cm.width)+col]; v < est {
			est = v
		}
	}
	return est
}

// SpaceBytes returns the approximate memory footprint of the sketch, used
// by the experiment harness for space accounting.
func (cm *CountMin) SpaceBytes() int {
	return 8*len(cm.table) + 16*cm.depth + 24
}
