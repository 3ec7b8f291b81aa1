// Package levelset implements the collision counters Algorithm 1 uses to
// estimate C_ℓ(L) on the sampled stream. Each answers one question,
// Sum(G): an estimate of Σ_j G(g_j) over the frequencies g of the stream
// it observed, so C_ℓ is Sum(C(·, ℓ)). ExactCounter is the
// unlimited-space reference; Estimator is the bounded-space one, standing
// in for the Indyk–Woodruff machinery behind Theorem 2 of the paper.
//
// The paper sums over geometric level sets
//
//	S_i = { j : η(1+ε')^i ≤ g_j < η(1+ε')^(i+1) }
//
// as Σ_i s̃_i·C(η(1+ε′)^i, ℓ), which prices every member of a band at the
// band's lower edge. That error is one-sided (C̃₂ reads 2–4 % low on Zipf
// and uniform streams), so Estimator prices each item at its own
// frequency instead; the banded form is an ablation row of experiment E10.
//
// The estimator substitutes the black box of Indyk–Woodruff [27] with its
// standard practical rendering, a heavy/light decomposition:
//
//   - Heavy part: a SpaceSaving summary with B counters tracks the
//     frequent items of L deterministically. Counters whose certified
//     relative error is below ε' form the heavy set H; each counts once,
//     at its certified lower bound count−err, which is within (1±ε') of
//     its frequency. Certifying H is all ε' does.
//
//   - Light part: geometric universe sub-sampling. A pairwise-independent
//     hash assigns each universe element a level ≥ t with probability
//     2^(−t); each repetition tracks exact frequencies of items at or
//     above an adaptive threshold T, raising T (and evicting) whenever
//     the tracked set exceeds B. Because T only rises and an item's level
//     is fixed by its hash, every item at level ≥ final T was tracked for
//     its whole lifetime, so its frequency in L is exact. A repetition
//     estimates the light items' share as 2^T·Σ_{tracked j ∉ H} G(g_j),
//     and Sum takes the median across repetitions, which keeps the
//     "never grossly overestimates" property Lemma 7's Case I relies on:
//     a nonnegative repetition reads above three times its mean with
//     probability at most 1/3, and the median only when most of them do.
//
// H membership is decided by item identity, so the heavy and light parts
// partition the support of g: no item is counted twice and none is lost
// to classification disagreements near the heaviness threshold.
//
// Layout and update order. A repetition keeps its tracked items in a
// dense slab (parallel items/counts/levels slices). Two facts hold at all
// times: a tracked item has level ≥ T (eviction removes everything below
// T, admission requires level ≥ T), and T only rises. So an element whose
// level is below T cannot be tracked, and the update computes the level
// first — through the 4-lane hash kernel in UpdateBatch — and probes for
// the item only for the 2^(−T) survivors. For the same reason a
// repetition never tracks more than the budget unless T has reached
// maxLevel, and a decoded one may not either.
//
// Both parts follow one ordering contract. A fresh, decoded or merged
// repetition holds its slab in increasing item order and has no index;
// Merge joins two ordered slabs, Decode takes the payload's run as it
// stands, and Encode writes the slab in place. Only the owner's updates
// (Observe, UpdateBatch) need to find an item, so they index the slab
// first — once per call, not per item — and leave the repetition fed:
// unordered, with a sketch.ItemIndex from item to slab position. Merge
// lays a fed receiver out in item order in place, sorts a fed argument's
// surviving positions into scratch the receiver owns, and never writes
// its argument, so a collector's decoded states are only ever read,
// whatever the number of queries folding them. The heavy part is
// sketch.SpaceSaving, whose own contract is the same; Sum reads both
// parts' slabs in any layout. Because each part writes only its own state
// and only reads the argument's, Merge folds the parts concurrently: the
// repetitions on goroutines of their own, the heavy summary on the
// caller's.
//
// The band offset η is still drawn by New, encoded and checked by Merge,
// but no estimate reads it: it stays in the payload only until the light
// repetitions' wire form next changes (ROADMAP item 22).
package levelset

import (
	"math"
	"math/bits"
	"slices"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// maxLevel caps the universe-sampling depth; 2^60 exceeds any plausible
// distinct count.
const maxLevel = 60

// Estimator estimates sums Σ_j G(g_j), collision counts among them, over
// the stream it observes. Feed it the *sampled* stream L; its estimates
// concern g, the frequency vector of L.
type Estimator struct {
	epsPrime float64 // heavy-certification bound ε′ (paper: ε_{ℓ−1}/4)
	eta      float64 // band offset η ∈ (0, 1]: drawn, encoded, merge-checked, never read
	budget   int     // max tracked items per structure
	heavy    *sketch.SpaceSaving
	reps     []*repState
}

// repState is one independent repetition of the universe-sampling
// structure: the tracked items in a dense slab (items/counts/levels by
// slab id) whose layout fed says (see the package comment). Unfed — as
// New, Decode and Merge leave it — the slab is in increasing item order
// and index is empty or stale; fed — after observe — index covers the
// slab, which is in no particular order. Readers (Sum, Encode, Merge's
// argument) take either layout; own, observe and order are the owner's.
type repState struct {
	hash   rng.Hash2
	items  []stream.Item
	counts []uint64
	levels []uint8
	index  sketch.ItemIndex
	fed    bool
	T      int // current threshold level
	budget int
	ids    [2][]int32 // Merge's sort space, kept between merges
}

// Config configures an Estimator.
type Config struct {
	// EpsPrime is ε′ > 0, the heavy part's certification bound: a
	// SpaceSaving counter is heavy when its error is at most ε′ times its
	// lower bound count−err.
	EpsPrime float64
	// Budget is the maximum number of items tracked by the heavy summary
	// and by each light repetition. Larger budgets certify more heavy
	// items and keep lower sampling levels alive. This is the paper's
	// Õ(p⁻¹m^(1−2/k)) knob.
	Budget int
	// Reps is the number of independent light repetitions Sum medians;
	// odd values ≥ 3 give the no-gross-overestimate guarantee.
	// Default 5.
	Reps int
}

// New builds a level-set estimator. It panics on non-positive EpsPrime or
// Budget.
func New(cfg Config, r *rng.Xoshiro256) *Estimator {
	if cfg.EpsPrime <= 0 {
		panic("levelset: EpsPrime must be positive")
	}
	if cfg.Budget < 1 {
		panic("levelset: Budget must be >= 1")
	}
	reps := cfg.Reps
	if reps < 1 {
		reps = 5
	}
	e := &Estimator{
		epsPrime: cfg.EpsPrime,
		eta:      r.Float64Open(),
		budget:   cfg.Budget,
		heavy:    sketch.NewSpaceSaving(cfg.Budget),
		reps:     make([]*repState, reps),
	}
	for i := range e.reps {
		e.reps[i] = &repState{hash: rng.NewHash2(r), budget: cfg.Budget}
	}
	return e
}

// levelOf maps a universe hash value, uniform in [0, 2^61−1), to a
// sampling level: Pr[level ≥ t] = 2^(−t).
func levelOf(h uint64) int {
	return min(61-bits.Len64(h), maxLevel)
}

// Observe feeds one element of the sampled stream.
func (e *Estimator) Observe(it stream.Item) {
	e.heavy.Observe(it)
	for _, rs := range e.reps {
		rs.own()
		rs.observe(it, rs.hash.Hash(uint64(it)))
	}
}

// own indexes an unfed slab ahead of the owner's updates, leaving the
// repetition fed.
func (rs *repState) own() {
	if !rs.fed {
		rs.reindex()
	}
}

// reindex points the index at every entry of the slab, which makes the
// repetition fed.
func (rs *repState) reindex() {
	rs.index.Reset(len(rs.items))
	for id := range rs.items {
		rs.index.Put(rs.items, int32(id))
	}
	rs.fed = true
}

// observe feeds one element given its universe hash to a fed repetition.
// The level test comes first and rejects 1−2^(−T) of the stream without a
// table probe: a tracked item always has level ≥ T (see the package
// comment).
func (rs *repState) observe(it stream.Item, h uint64) {
	lvl := levelOf(h)
	if lvl < rs.T {
		return
	}
	if id, ok := rs.index.Get(rs.items, it); ok {
		rs.counts[id]++
		return
	}
	rs.push(it, 1, uint8(lvl))
	rs.index.Put(rs.items, int32(len(rs.items)-1))
	// Raise the threshold and evict until the tracked set fits the budget,
	// re-pointing the index at the survivors.
	for len(rs.items) > rs.budget {
		rs.T++
		rs.keep(rs.T)
		rs.reindex()
		if rs.T >= maxLevel {
			break
		}
	}
}

// push appends an entry to the slab, leaving the index to the caller.
func (rs *repState) push(it stream.Item, count uint64, level uint8) {
	rs.items, rs.counts, rs.levels = append(rs.items, it), append(rs.counts, count), append(rs.levels, level)
}

// keep drops every entry below level T, compacting the slab in place with
// the survivors' order kept.
func (rs *repState) keep(T int) {
	n := 0
	for id, lvl := range rs.levels {
		if int(lvl) >= T {
			rs.items[n], rs.counts[n], rs.levels[n] = rs.items[id], rs.counts[id], lvl
			n++
		}
	}
	rs.items, rs.counts, rs.levels = rs.items[:n], rs.counts[:n], rs.levels[:n]
}

// heavySet returns the certified heavy items: SpaceSaving counters whose
// error interval is within a (1+ε') relative factor, each mapped to its
// certified frequency lower bound count−err (which is within (1±ε') of
// the true g).
func (e *Estimator) heavySet() map[stream.Item]uint64 {
	h := make(map[stream.Item]uint64)
	e.heavy.Each(func(c sketch.Counter) {
		low := c.Count - c.Err
		if low > 0 && float64(c.Err) <= e.epsPrime*float64(low) {
			h[c.Item] = low
		}
	})
	return h
}

// Sum returns the estimate of Σ_j G(g_j) over the frequencies g of the
// observed stream, for a G with G(0) = 0: Σ_{j∈H} G(count_j − err_j) over
// the certified heavy items, plus the median over repetitions of
// 2^T·Σ G(g_j) over each repetition's tracked items outside H. Each part
// is summed over its count profile (sketch.ProfileSum), so the estimate
// depends on neither the layout nor the item labels; it only reads the
// estimator.
func (e *Estimator) Sum(g func(count uint64) float64) float64 {
	heavy := e.heavySet()
	counts := make([]uint64, 0, max(len(heavy), e.budget))
	for _, low := range heavy {
		counts = append(counts, low)
	}
	total := sketch.ProfileSum(counts, g)
	vals := make([]float64, len(e.reps))
	for ri, rs := range e.reps {
		counts = counts[:0]
		for id, it := range rs.items {
			if _, isHeavy := heavy[it]; !isHeavy {
				counts = append(counts, rs.counts[id])
			}
		}
		vals[ri] = math.Ldexp(sketch.ProfileSum(counts, g), rs.T)
	}
	return total + median(vals)
}

// median sorts vals in place and returns the median.
func median(vals []float64) float64 {
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// HeavyCount reports how many items are currently certified heavy, for
// diagnostics and tests.
func (e *Estimator) HeavyCount() int { return len(e.heavySet()) }

// ThresholdLevels reports each repetition's final threshold T; T = 0
// means the repetition tracked every distinct item it saw (exact mode).
func (e *Estimator) ThresholdLevels() []int {
	out := make([]int, len(e.reps))
	for i, rs := range e.reps {
		out[i] = rs.T
	}
	return out
}

// SpaceBytes returns the bytes of the slices the estimator holds, Merge's
// scratch included.
func (e *Estimator) SpaceBytes() int {
	total := e.heavy.SpaceBytes()
	for _, rs := range e.reps {
		total += 8*cap(rs.items) + 8*cap(rs.counts) + cap(rs.levels) + rs.index.SpaceBytes() + 4*(cap(rs.ids[0])+cap(rs.ids[1]))
	}
	return total
}
