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
package levelset

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

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
// structure.
type repState struct {
	hash   rng.Hash2
	counts map[stream.Item]trackedItem
	T      int // current threshold level
	budget int
}

type trackedItem struct {
	level uint8
	count uint64
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
		e.reps[i] = &repState{
			hash:   rng.NewHash2(r),
			counts: make(map[stream.Item]trackedItem),
			budget: cfg.Budget,
		}
	}
	return e
}

// levelOf maps an item to its sampling level: Pr[level ≥ t] = 2^(−t).
func (rs *repState) levelOf(it stream.Item) int {
	h := rs.hash.Hash(uint64(it)) // uniform in [0, 2^61−1)
	if h == 0 {
		return maxLevel
	}
	lvl := 61 - bits.Len64(h)
	if lvl > maxLevel {
		lvl = maxLevel
	}
	return lvl
}

// Observe feeds one element of the sampled stream.
func (e *Estimator) Observe(it stream.Item) {
	e.heavy.Observe(it)
	for _, rs := range e.reps {
		rs.observe(it)
	}
}

func (rs *repState) observe(it stream.Item) {
	if tracked, ok := rs.counts[it]; ok {
		tracked.count++
		rs.counts[it] = tracked
		return
	}
	lvl := rs.levelOf(it)
	if lvl < rs.T {
		return
	}
	rs.counts[it] = trackedItem{level: uint8(lvl), count: 1}
	// Raise the threshold and evict until the tracked set fits the budget.
	for len(rs.counts) > rs.budget {
		rs.T++
		for key, tr := range rs.counts {
			if int(tr.level) < rs.T {
				delete(rs.counts, key)
			}
		}
		if rs.T >= maxLevel {
			break
		}
	}
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
	cell := func(g float64, col int) *float64 {
		b := e.bandOf(g)
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
		for it, tr := range rs.counts {
			if _, isHeavy := heavy[it]; !isHeavy {
				*cell(float64(tr.count), 1+ri) += scale
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
	sort.Float64s(vals)
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
		for it, tr := range rs.counts {
			if _, isHeavy := heavy[it]; isHeavy {
				continue
			}
			sum += stream.BinomialCoeff(tr.count, l)
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

// SpaceBytes returns the approximate memory footprint.
func (e *Estimator) SpaceBytes() int {
	total := e.heavy.SpaceBytes()
	for _, rs := range e.reps {
		total += 32*len(rs.counts) + 64
	}
	return total
}
