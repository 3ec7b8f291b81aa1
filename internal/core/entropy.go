package core

import (
	"math"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// EntropyEstimator implements the paper's §5 approach: approximate the
// entropy H(f) of the original stream by a multiplicative estimate of the
// entropy of the sampled stream. Proposition 1 shows H_pn(g) tracks H(g)
// to within O(log m/√(pn)); Lemma 10 shows H(g) is within a constant
// factor of H(f) plus O(p^(−1/2)·n^(−1/6)); Lemma 9 shows no estimator
// can do better than a constant factor in general, so this is the right
// target.
//
// Two backends are provided: Plugin keeps the exact frequency vector of L
// (space O(F₀(L)), zero estimation error beyond sampling) in a
// sketch.ItemCounts and sums it in key order, so its estimates are a
// function of the vector alone; Sketch runs the one-pass
// reservoir-position estimator (space O(polylog), the form Theorem 5's
// space bound refers to).
type EntropyEstimator struct {
	p      float64
	nL     uint64
	plugin *sketch.ItemCounts       // non-nil for the plugin backend
	sk     *sketch.EntropyEstimator // non-nil for the sketch backend
}

// EntropyBackend selects how H(g) is estimated.
type EntropyBackend int

// Supported entropy backends.
const (
	// EntropyPlugin computes H(g) exactly from a frequency map of L.
	EntropyPlugin EntropyBackend = iota
	// EntropySketch runs the small-space reservoir-position estimator.
	EntropySketch
)

// EntropyConfig configures an EntropyEstimator.
type EntropyConfig struct {
	// P is the Bernoulli sampling probability.
	P float64
	// Backend selects the H(g) estimator. Default EntropyPlugin.
	Backend EntropyBackend
	// SketchGroups and SketchPerGroup shape the sketch backend.
	// Defaults 7 and 400.
	SketchGroups   int
	SketchPerGroup int
}

// NewEntropyEstimator builds the estimator.
func NewEntropyEstimator(cfg EntropyConfig, r *rng.Xoshiro256) *EntropyEstimator {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: EntropyEstimator P must be in (0, 1]")
	}
	e := &EntropyEstimator{p: cfg.P}
	switch cfg.Backend {
	case EntropyPlugin:
		e.plugin = new(sketch.ItemCounts)
	case EntropySketch:
		groups, per := cfg.SketchGroups, cfg.SketchPerGroup
		if groups == 0 {
			groups = 7
		}
		if per == 0 {
			per = 400
		}
		e.sk = sketch.NewEntropyEstimator(groups, per, r)
	default:
		panic("core: unknown entropy backend")
	}
	return e
}

// Observe feeds one element of the sampled stream L.
func (e *EntropyEstimator) Observe(it stream.Item) {
	e.nL++
	if e.plugin != nil {
		e.plugin.Observe(it)
	} else {
		e.sk.Observe(it)
	}
}

// Estimate returns the estimate of H(f) in bits: the (estimated) entropy
// of the sampled stream, which by Lemma 10 is a constant-factor
// approximation whenever H(f) = ω(p^(−1/2)·n^(−1/6)).
func (e *EntropyEstimator) Estimate() float64 {
	if e.plugin != nil {
		return e.entropyOver(float64(e.nL))
	}
	return e.sk.Estimate()
}

// entropyOver returns Σ (g_i/n)·lg(n/g_i) over the plugin's frequencies,
// in key order: the empirical entropy of L for n = F₁(L), H_pn(g) for
// n = pn. Rounding (or a single-item stream's −0) can leave the sum
// below zero; the entropy is 0 there, as it is for n = 0.
func (e *EntropyEstimator) entropyOver(n float64) float64 {
	if n == 0 {
		return 0
	}
	var h float64
	for _, g := range e.plugin.OrderedCounts() {
		q := float64(g) / n
		h -= q * math.Log2(q)
	}
	if h <= 0 {
		return 0
	}
	return h
}

// EstimateHpn returns H_pn(g) = Σ (g_i/(pn))·lg(pn/g_i) for a known
// original length n — the quantity Proposition 1 and Lemma 10 analyze
// directly. Available only on the plugin backend; it panics otherwise.
func (e *EntropyEstimator) EstimateHpn(n uint64) float64 {
	if e.plugin == nil {
		panic("core: EstimateHpn requires the plugin backend")
	}
	return e.entropyOver(e.p * float64(n))
}

// SampledLength returns F₁(L).
func (e *EntropyEstimator) SampledLength() uint64 { return e.nL }

// AdditiveFloor returns the additive term below which no constant-factor
// guarantee holds (Theorem 5): H(f) must be ω(p^(−1/2)·n^(−1/6)).
func (e *EntropyEstimator) AdditiveFloor(n uint64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	return math.Pow(e.p, -0.5) * math.Pow(float64(n), -1.0/6)
}

// SpaceBytes returns the memory footprint of the backend.
func (e *EntropyEstimator) SpaceBytes() int {
	if e.plugin != nil {
		return e.plugin.SpaceBytes()
	}
	return e.sk.SpaceBytes()
}
