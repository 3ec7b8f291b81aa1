package levelset

import (
	"fmt"
	"slices"
	"sync"

	"substream/internal/sketch"
	"substream/internal/stream"
)

// This file makes the collision counters mergeable and batchable, which
// is what lets Algorithm 1 run sharded: Bernoulli sampling commutes with
// partitioning the stream, so per-shard counters over disjoint substreams
// of L can be folded into one counter whose estimates concern all of L.
// As with the sketches, mergeability requires both sides to be built from
// generators at identical state (seed both constructors identically);
// hash agreement is verified with probe keys rather than trusted.

// mergeProbes are fixed keys used to verify two estimators share
// universe-sampling hash functions.
var mergeProbes = [4]uint64{0x9e3779b97f4a7c15, 1, 1 << 40, 0xdeadbeef}

// MergeCounter folds other into c, leaving other untouched. Exact counters
// over disjoint substreams merge exactly: frequency vectors add.
func (c *ExactCounter) MergeCounter(other CollisionCounter) error {
	o, ok := other.(*ExactCounter)
	if !ok {
		return fmt.Errorf("%w: ExactCounter vs %T", sketch.ErrIncompatible, other)
	}
	c.counts.Merge(&o.counts)
	return nil
}

// UpdateBatch feeds every item in items.
func (c *ExactCounter) UpdateBatch(items []stream.Item) { c.counts.UpdateBatch(items) }

// Settle orders the frequency vector in place: the owner-only hook a
// pipeline's shard worker runs at a Sync barrier (sketch.ItemCounts).
func (c *ExactCounter) Settle() { c.counts.Settle() }

// Merge folds other into e. Both sides must be constructed from identical
// generator state (same ε′, budget, repetition count, band offset η, and
// universe hashes).
//
// The merge is sound shard-by-shard: the heavy SpaceSaving summaries
// merge with the standard bounded-error rule, and each light repetition
// merges exactly. For the light part, an item's sampling level is fixed
// by its (shared) hash, and each side's tracked count is its exact
// frequency in that side's substream. Taking T = max(T_a, T_b) and
// dropping items below it leaves only items that were tracked for their
// whole lifetime on *both* sides — a tracked item absent from the other
// side's map either never appeared there (contributing zero) or sits
// below the merged threshold (and is dropped) — so surviving counts add
// exactly, and the merged repetition is the state a single monitor with
// threshold T would have reached over the concatenated substream.
//
// Every check that can fail runs before any part is written, so a refused
// argument leaves e unchanged. Then the parts fold concurrently: each
// repetition on its own goroutine, the heavy summary on the caller's.
// Each part writes only its own receiver state and only reads its
// argument's, so a self-merge, and several merges reading one argument at
// once, stay safe; the result is the serial fold's, bit for bit.
func (e *Estimator) Merge(other *Estimator) error {
	// The heavy summary's k is the budget (New and DecodeEstimator hold
	// it so), which makes SpaceSaving.Merge's one refusal a shape mismatch.
	if e.epsPrime != other.epsPrime || e.budget != other.budget || len(e.reps) != len(other.reps) {
		return fmt.Errorf("%w: levelset shape (eps'=%g,budget=%d,reps=%d) vs (eps'=%g,budget=%d,reps=%d)",
			sketch.ErrIncompatible, e.epsPrime, e.budget, len(e.reps),
			other.epsPrime, other.budget, len(other.reps))
	}
	if e.eta != other.eta {
		return fmt.Errorf("%w: levelset band offsets differ", sketch.ErrIncompatible)
	}
	for i := range e.reps {
		for _, probe := range mergeProbes {
			if e.reps[i].hash.Hash(probe) != other.reps[i].hash.Hash(probe) {
				return fmt.Errorf("%w: levelset universe hashes differ (rep %d)", sketch.ErrIncompatible, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(e.reps))
	for i, rs := range e.reps {
		go func() {
			defer wg.Done()
			rs.merge(other.reps[i])
		}()
	}
	err := e.heavy.Merge(other.heavy)
	wg.Wait()
	return err
}

// merge folds os into rs and leaves rs unfed (see the ordering contract).
// Both sides' entries at level ≥ T = max(rs.T, os.T) are joined in item
// order into the receiver's slab, equal items' counts added. If the union
// exceeds the budget, T rises once — to the first level at which it fits,
// read off the union's level histogram — and one pass drops the entries
// below it, order kept. os is only read.
func (rs *repState) merge(os *repState) {
	T := max(rs.T, os.T)
	// Ordering the receiver first makes a self-merge read an ordered
	// argument in place, which join allows.
	rs.order()
	if T > rs.T {
		rs.keep(T)
	}
	rs.join(os, os.above(T, &rs.ids))
	if len(rs.items) > rs.budget {
		var hist [maxLevel + 1]int
		for _, lvl := range rs.levels {
			hist[lvl]++
		}
		for size := len(rs.items); size > rs.budget && T < maxLevel; T++ {
			size -= hist[T]
		}
		rs.keep(T)
	}
	rs.T = T
}

// above returns the positions of the entries at level ≥ T in increasing
// item order, in buf's two buffers, grown as needed: an unfed slab's as
// they stand, a fed one's sorted by sketch.SortByItem. It only reads rs.
func (rs *repState) above(T int, buf *[2][]int32) []int32 {
	ids := slices.Grow(buf[0][:0], len(rs.items))[:len(rs.items)]
	n := 0
	for id, lvl := range rs.levels {
		ids[n] = int32(id)
		if int(lvl) >= T {
			n++
		}
	}
	buf[0], ids = ids, ids[:n]
	if !rs.fed {
		return ids
	}
	buf[1] = slices.Grow(buf[1][:0], n)[:n]
	return sketch.SortByItem(rs.items, ids, buf[1])
}

// order lays a fed slab out in item order, in place, leaving the index
// stale and the repetition unfed.
func (rs *repState) order() {
	if rs.fed {
		sketch.Permute(rs.above(0, &rs.ids), rs.items, rs.counts, rs.levels)
		rs.fed = false
	}
}

// join merges the entries of os at ids, in item order, into the
// receiver's ordered slab. It joins from the back into the slab itself,
// grown to hold both runs: the write position never falls below an entry
// of either run still to be read — not even when os is the receiver, in a
// self-merge — so nothing is copied out first. Each pair of equal items
// leaves one gap, closed by moving the joined tail down at the end.
func (rs *repState) join(os *repState, ids []int32) {
	na, nb := len(rs.items), len(ids)
	items := slices.Grow(rs.items, nb)[:na+nb]
	counts := slices.Grow(rs.counts, nb)[:na+nb]
	levels := slices.Grow(rs.levels, nb)[:na+nb]
	i, j, o := na-1, nb-1, na+nb-1
	for ; j >= 0; o-- {
		id := ids[j]
		switch b := os.items[id]; {
		case i >= 0 && items[i] > b: // the receiver's alone
			items[o], counts[o], levels[o] = items[i], counts[i], levels[i]
			i--
		case i < 0 || items[i] < b: // the argument's alone
			items[o], counts[o], levels[o] = b, os.counts[id], os.levels[id]
			j--
		default: // tracked on both sides, at the same level
			items[o], counts[o], levels[o] = b, counts[i]+os.counts[id], levels[i]
			i, j = i-1, j-1
		}
	}
	// The join is items[:i+1], the receiver's first entries in place, then
	// items[o+1:].
	n := i + 1 + copy(items[i+1:], items[o+1:])
	copy(counts[i+1:], counts[o+1:])
	copy(levels[i+1:], levels[o+1:])
	rs.items, rs.counts, rs.levels = items[:n], counts[:n], levels[:n]
}

// MergeCounter implements CollisionCounter.
func (e *Estimator) MergeCounter(other CollisionCounter) error {
	o, ok := other.(*Estimator)
	if !ok {
		return fmt.Errorf("%w: levelset Estimator vs %T", sketch.ErrIncompatible, other)
	}
	return e.Merge(o)
}

// UpdateBatch feeds every item in items: the heavy summary first, then
// each repetition scans the whole batch, keeping one table hot at a time.
func (e *Estimator) UpdateBatch(items []stream.Item) {
	e.heavy.UpdateBatch(items)
	for _, rs := range e.reps {
		rs.updateBatch(items)
	}
}

// updateBatch feeds every item in items, hashing four per iteration
// through the lane kernel; levels are tested in item order against the
// live threshold, so the state is bit-identical to per-item observe.
func (rs *repState) updateBatch(items []stream.Item) {
	rs.own()
	h := rs.hash
	i := 0
	for ; i+4 <= len(items); i += 4 {
		h0, h1, h2, h3 := h.HashLanes4(
			uint64(items[i]), uint64(items[i+1]), uint64(items[i+2]), uint64(items[i+3]))
		rs.observe(items[i], h0)
		rs.observe(items[i+1], h1)
		rs.observe(items[i+2], h2)
		rs.observe(items[i+3], h3)
	}
	for ; i < len(items); i++ {
		rs.observe(items[i], h.Hash(uint64(items[i])))
	}
}
