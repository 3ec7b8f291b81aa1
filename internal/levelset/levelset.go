// Package levelset implements the machinery Algorithm 1 uses to estimate
// collision counts C_ℓ(L) on the sampled stream: an Indyk–Woodruff-style
// estimator of the geometric level-set sizes
//
//	S_i = { j : η(1+ε')^i ≤ g_j < η(1+ε')^(i+1) }
//
// (Theorem 2 of the paper), plus an exact collision counter used as the
// unlimited-space reference.
//
// The estimator substitutes the black box of Indyk–Woodruff [27] with its
// standard practical rendering, a heavy/light decomposition:
//
//   - Heavy part: a SpaceSaving summary with B counters tracks the
//     frequent items of L deterministically. Counters whose certified
//     relative error is below ε' form the heavy set H; their frequencies
//     are known to within (1±ε'), exactly the accuracy Theorem 2 promises
//     for "contributing" level sets, which are always frequency-heavy
//     (Lemma 6 shows contributing sets satisfy an F₂-heaviness bound).
//
//   - Light part: geometric universe sub-sampling. A pairwise-independent
//     hash assigns each universe element a level ≥ t with probability
//     2^(−t); each repetition tracks exact frequencies of items at or
//     above an adaptive threshold T, raising T (and evicting) whenever
//     the tracked set exceeds B. Because T only rises and an item's level
//     is fixed by its hash, every item at level ≥ final T was tracked for
//     its whole lifetime, so its frequency in L is exact. Light level-set
//     sizes are estimated by s̃_i = 2^T·|{tracked j ∉ H : g_j ∈ band i}|,
//     medianed across repetitions — the median also enforces the
//     "never grossly overestimates" property (s̃_i ≤ 3|S_i| w.h.p.) that
//     Lemma 7's Case I relies on.
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
// sketch.SpaceSaving, whose own contract is the same; Bands reads both
// parts' slabs in any layout. Because each part writes only its own state
// and only reads the argument's, Merge folds the parts concurrently: the
// repetitions on goroutines of their own, the heavy summary on the
// caller's.
package levelset

import (
	"cmp"
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

// Estimator estimates level-set sizes and collision counts of the stream
// it observes. Feed it the *sampled* stream L; its estimates concern g,
// the frequency vector of L.
type Estimator struct {
	epsPrime float64 // band growth ε′ (paper: ε_{ℓ−1}/4)
	eta      float64 // random band offset η ∈ (0, 1]
	budget   int     // max tracked items per structure
	heavy    *sketch.SpaceSaving
	reps     []*repState
}

// repState is one independent repetition of the universe-sampling
// structure: the tracked items in a dense slab (items/counts/levels by
// slab id) whose layout fed says (see the package comment). Unfed — as
// New, Decode and Merge leave it — the slab is in increasing item order
// and index is empty or stale; fed — after observe — index covers the
// slab, which is in no particular order. Readers (Bands, Encode, Merge's
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
	// EpsPrime is the band growth factor ε′ > 0; bands are
	// [η(1+ε′)^i, η(1+ε′)^(i+1)).
	EpsPrime float64
	// Budget is the maximum number of items tracked by the heavy summary
	// and by each light repetition. Larger budgets certify more heavy
	// items and keep lower sampling levels alive. This is the paper's
	// Õ(p⁻¹m^(1−2/k)) knob.
	Budget int
	// Reps is the number of independent light repetitions medianed per
	// band; odd values ≥ 3 give the no-gross-overestimate guarantee.
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
// error interval is within a (1+ε') relative factor. The returned map
// gives each heavy item its certified frequency lower bound count−err
// (which is within (1±ε') of the true g).
func (e *Estimator) heavySet() map[stream.Item]float64 {
	h := make(map[stream.Item]float64)
	e.heavy.Each(func(c sketch.Counter) {
		low := float64(c.Count - c.Err)
		if low > 0 && float64(c.Err) <= e.epsPrime*low {
			h[c.Item] = low
		}
	})
	return h
}

// BandStats describes one estimated level set.
type BandStats struct {
	// Band is the index i of the level set.
	Band int
	// Rep is the representative frequency η(1+ε′)^i (the band's lower
	// edge), at which collision contributions are evaluated.
	Rep float64
	// Size is the estimate s̃_i of |S_i| (heavy members counted exactly,
	// light members via the median-of-reps universe-sampling estimate).
	Size float64
}

// bandOf returns the band index of a frequency g ≥ 1 under offset eta and
// growth 1+ε′: the unique i with η(1+ε′)^i ≤ g < η(1+ε′)^(i+1).
func (e *Estimator) bandOf(g float64) int {
	i := int(math.Floor(math.Log(g/e.eta) / math.Log1p(e.epsPrime)))
	if i < 0 {
		i = 0
	}
	return i
}

// repValue returns the representative frequency of band i.
func (e *Estimator) repValue(i int) float64 {
	return e.eta * math.Pow(1+e.epsPrime, float64(i))
}

// Bands returns the estimated level sets with non-zero size estimates,
// sorted by band index.
func (e *Estimator) Bands() []BandStats {
	heavy := e.heavySet()
	// One row of cells per band seen: its heavy member count, then one
	// light size estimate per repetition. Band indices are sparse — they
	// grow like log(g)/ε′ — so rows are handed out on first sight and a
	// single map finds them, instead of a map per repetition.
	width := 1 + len(e.reps)
	rowOf := make(map[int]int)
	var bands []int
	var cells []float64
	// Every frequency here is an integer, nearly all of them small, so
	// those bands are memoized (band+1, 0 until first asked): bandOf takes
	// a logarithm.
	var memo [1024]int
	cell := func(g float64, col int) *float64 {
		var b int
		if small := g < float64(len(memo)); small && memo[int(g)] != 0 {
			b = memo[int(g)] - 1
		} else if b = e.bandOf(g); small {
			memo[int(g)] = b + 1
		}
		row, ok := rowOf[b]
		if !ok {
			row = len(bands)
			rowOf[b] = row
			bands = append(bands, b)
			cells = append(cells, make([]float64, width)...)
		}
		return &cells[row*width+col]
	}
	for _, g := range heavy {
		*cell(g, 0)++
	}
	for ri, rs := range e.reps {
		scale := math.Pow(2, float64(rs.T))
		for id, it := range rs.items {
			if _, isHeavy := heavy[it]; !isHeavy {
				*cell(float64(rs.counts[id]), 1+ri) += scale
			}
		}
	}

	out := make([]BandStats, 0, len(bands))
	for row, b := range bands {
		cs := cells[row*width : (row+1)*width]
		if size := cs[0] + median(cs[1:]); size > 0 {
			out = append(out, BandStats{Band: b, Rep: e.repValue(b), Size: size})
		}
	}
	slices.SortFunc(out, func(a, b BandStats) int { return cmp.Compare(a.Band, b.Band) })
	return out
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

// EstimateCollisions returns the paper's band-sum estimate
// C̃_ℓ = Σ_i s̃_i · C(η(1+ε′)^i, ℓ) for the observed stream (Section 3.1).
func (e *Estimator) EstimateCollisions(l int) float64 {
	if l < 1 {
		panic("levelset: collision order must be >= 1")
	}
	var total float64
	for _, b := range e.Bands() {
		total += b.Size * stream.BinomialCoeffFloat(b.Rep, l)
	}
	return total
}

// DirectEstimateCollisions returns the heavy/light estimate without band
// discretization: Σ_{j∈H} C(ĝ_j, ℓ) plus the median over reps of
// 2^T·Σ_{tracked j∉H} C(g_j, ℓ). It is not part of the paper's algorithm
// (which needs the banded form for its analysis) but is the natural
// practical alternative; the E10 ablation compares the two.
func (e *Estimator) DirectEstimateCollisions(l int) float64 {
	if l < 1 {
		panic("levelset: collision order must be >= 1")
	}
	heavy := e.heavySet()
	var heavySum float64
	for _, g := range heavy {
		heavySum += stream.BinomialCoeffFloat(g, l)
	}
	vals := make([]float64, len(e.reps))
	for ri, rs := range e.reps {
		scale := math.Pow(2, float64(rs.T))
		var sum float64
		for id, it := range rs.items {
			if _, isHeavy := heavy[it]; !isHeavy {
				sum += stream.BinomialCoeff(rs.counts[id], l)
			}
		}
		vals[ri] = scale * sum
	}
	return heavySum + median(vals)
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
