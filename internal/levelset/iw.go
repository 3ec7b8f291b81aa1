package levelset

import (
	"math"
	"math/bits"
	"sort"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// IWEstimator is the literal Indyk–Woodruff construction [27], as cited
// by Theorem 2: a hierarchy of geometrically sub-sampled substreams,
// each summarized by a CountSketch plus a candidate tracker. Level t
// observes the items whose universe hash grants level ≥ t (probability
// 2^(−t)); a level-set S_i is estimated at the shallowest level where
// its band frequency is heavy enough to be recovered by that level's
// sketch, scaling the recovered count by 2^t.
//
// Compared with the package's default Estimator (SpaceSaving heavy part
// + exactly-counted universe sample), this variant recovers frequencies
// *approximately* (CountSketch point queries) rather than exactly, which
// is how the original analysis goes; E10 measures the practical cost of
// that fidelity. It is that experiment's in-process comparison only: it
// has no wire form and no merge, so it is no CollisionCounter and no
// FkEstimator or stream can hold it.
type IWEstimator struct {
	epsPrime float64
	eta      float64
	universe rng.Hash2 // decides each item's deepest level
	levels   []iwLevel
	nL       uint64
}

type iwLevel struct {
	hashLevel int // minimum universe-hash level to enter this sketch
	cs        *sketch.CountSketch
	cands     *sketch.TopK
	count     uint64 // stream elements that reached this level
}

// IWConfig configures an IWEstimator.
type IWConfig struct {
	// EpsPrime is the band growth factor ε′ > 0.
	EpsPrime float64
	// Width and Depth shape each level's CountSketch.
	// Defaults 1024 and 5.
	Width int
	Depth int
	// Candidates bounds each level's tracked candidate set.
	// Default Width/4.
	Candidates int
	// Levels is the number of sub-sampling levels. Default 16.
	Levels int
}

// NewIW builds the estimator. It panics on a non-positive EpsPrime.
func NewIW(cfg IWConfig, r *rng.Xoshiro256) *IWEstimator {
	if cfg.EpsPrime <= 0 {
		panic("levelset: EpsPrime must be positive")
	}
	width := cfg.Width
	if width == 0 {
		width = 1024
	}
	depth := cfg.Depth
	if depth == 0 {
		depth = 5
	}
	cands := cfg.Candidates
	if cands == 0 {
		cands = width / 4
		if cands < 16 {
			cands = 16
		}
	}
	nLevels := cfg.Levels
	if nLevels == 0 {
		nLevels = 16
	}
	e := &IWEstimator{
		epsPrime: cfg.EpsPrime,
		eta:      r.Float64Open(),
		levels:   make([]iwLevel, nLevels),
	}
	e.universe = rng.NewHash2(r)
	for t := range e.levels {
		e.levels[t] = iwLevel{
			hashLevel: t,
			cs:        sketch.NewCountSketch(width, depth, r),
			cands:     sketch.NewTopK(cands),
		}
	}
	return e
}

func (e *IWEstimator) levelOf(it stream.Item) int {
	h := e.universe.Hash(uint64(it))
	if h == 0 {
		return len(e.levels) - 1
	}
	lvl := 61 - bits.Len64(h)
	if lvl >= len(e.levels) {
		lvl = len(e.levels) - 1
	}
	return lvl
}

// Observe feeds one element of the sampled stream.
func (e *IWEstimator) Observe(it stream.Item) {
	e.nL++
	deepest := e.levelOf(it)
	for t := 0; t <= deepest; t++ {
		lvl := &e.levels[t]
		lvl.count++
		if est := lvl.cs.ObserveEstimate(it); est > 0 {
			lvl.cands.Update(it, float64(est))
		}
	}
}

// recoveryThreshold returns the smallest frequency reliably recoverable
// at level t: a few times the CountSketch additive error √(F₂(t)/width).
func (e *IWEstimator) recoveryThreshold(t int) float64 {
	lvl := &e.levels[t]
	f2 := lvl.cs.F2Estimate()
	if f2 <= 0 {
		return 1
	}
	return 4 * math.Sqrt(f2/float64(lvl.cs.Width()))
}

// Bands returns the estimated level sets. Each band i is measured at
// its designated level t*(i) — the shallowest level whose recovery
// threshold sits below the band representative — by counting that
// level's recovered candidates falling in the band and scaling by 2^t*.
// Bands unrecoverable at every level contribute nothing, which the
// Theorem 2 analysis tolerates: such bands are never "contributing".
func (e *IWEstimator) Bands() []BandStats {
	if e.nL == 0 {
		return nil
	}
	nLevels := len(e.levels)
	thresh := make([]float64, nLevels)
	perLevel := make([]map[int]float64, nLevels)
	bandSet := make(map[int]struct{})
	for t := range e.levels {
		thresh[t] = e.recoveryThreshold(t)
		m := make(map[int]float64)
		for _, c := range e.levels[t].cands.Items() {
			if c.Count < thresh[t] || c.Count < 1 {
				continue
			}
			b := e.bandOfIW(c.Count)
			m[b]++
			bandSet[b] = struct{}{}
		}
		perLevel[t] = m
	}
	out := make([]BandStats, 0, len(bandSet))
	for b := range bandSet {
		rep := e.repValueIW(b)
		tStar := -1
		for t := 0; t < nLevels; t++ {
			if thresh[t] <= rep {
				tStar = t
				break
			}
		}
		if tStar < 0 {
			continue
		}
		size := perLevel[tStar][b] * math.Pow(2, float64(tStar))
		if size > 0 {
			out = append(out, BandStats{Band: b, Rep: rep, Size: size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Band < out[j].Band })
	return out
}

func (e *IWEstimator) bandOfIW(g float64) int {
	i := int(math.Floor(math.Log(g/e.eta) / math.Log1p(e.epsPrime)))
	if i < 0 {
		i = 0
	}
	return i
}

func (e *IWEstimator) repValueIW(i int) float64 {
	return e.eta * math.Pow(1+e.epsPrime, float64(i))
}

// EstimateCollisions returns C̃_ℓ = Σ_i s̃_i·C(rep_i, ℓ).
func (e *IWEstimator) EstimateCollisions(l int) float64 {
	if l < 1 {
		panic("levelset: collision order must be >= 1")
	}
	var total float64
	for _, b := range e.Bands() {
		total += b.Size * stream.BinomialCoeffFloat(b.Rep, l)
	}
	return total
}

// SpaceBytes returns the approximate memory footprint.
func (e *IWEstimator) SpaceBytes() int {
	total := 64
	for i := range e.levels {
		total += e.levels[i].cs.SpaceBytes() + e.levels[i].cands.SpaceBytes()
	}
	return total
}
