package core

import (
	"math"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// EntropyEstimator implements the paper's §5 approach: approximate the
// entropy H(f) of the original stream by the entropy of the sampled
// stream. Proposition 1 shows H_pn(g) tracks H(g) to within
// O(log m/√(pn)); Lemma 10 shows H(g) is within a constant factor of H(f)
// plus O(p^(−1/2)·n^(−1/6)); Lemma 9 shows no estimator can do better
// than a constant factor in general, so this is the right target.
//
// H(g) is the plug-in: the exact frequency vector of L (space O(F₀(L)),
// no estimation error beyond sampling) kept in a sketch.ItemCounts and
// summed over its profile (ItemCounts.Sum), so its estimates are a
// function of the vector alone — not of item labels — and every path to
// the same frequencies answers bit for bit. F₁(L) is the store's N.
type EntropyEstimator struct {
	p      float64
	counts sketch.ItemCounts
}

// EntropyConfig configures an EntropyEstimator.
type EntropyConfig struct {
	// P is the Bernoulli sampling probability.
	P float64
}

// NewEntropyEstimator builds the estimator. It takes a generator like
// every other estimator's constructor, but the plug-in draws nothing
// from r, which may be nil. A caller that splits one off for it, as the
// Monitor does between f0 and hh1, makes that draw itself.
func NewEntropyEstimator(cfg EntropyConfig, r *rng.Xoshiro256) *EntropyEstimator {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: EntropyEstimator P must be in (0, 1]")
	}
	return &EntropyEstimator{p: cfg.P}
}

// Observe feeds one element of the sampled stream L.
func (e *EntropyEstimator) Observe(it stream.Item) { e.counts.Observe(it) }

// Estimate returns the estimate of H(f) in bits: the entropy of the
// sampled stream, which by Lemma 10 is a constant-factor approximation
// whenever H(f) = ω(p^(−1/2)·n^(−1/6)).
func (e *EntropyEstimator) Estimate() float64 { return e.entropyOver(float64(e.counts.N())) }

// entropyOver returns Σ (g_i/n)·lg(n/g_i) over the frequencies of L, one
// term per distinct frequency (ItemCounts.Sum): the empirical entropy of
// L for n = F₁(L), H_pn(g) for n = pn. Rounding (or a single-item
// stream's −0) can leave the sum below zero; the entropy is 0 there, as
// it is for n = 0.
func (e *EntropyEstimator) entropyOver(n float64) float64 {
	if n == 0 {
		return 0
	}
	h := -e.counts.Sum(func(g uint64) float64 {
		q := float64(g) / n
		return q * math.Log2(q)
	})
	if h <= 0 {
		return 0
	}
	return h
}

// EstimateHpn returns H_pn(g) = Σ (g_i/(pn))·lg(pn/g_i) for a known
// original length n — the quantity Proposition 1 and Lemma 10 analyze
// directly.
func (e *EntropyEstimator) EstimateHpn(n uint64) float64 {
	return e.entropyOver(e.p * float64(n))
}

// SampledLength returns F₁(L).
func (e *EntropyEstimator) SampledLength() uint64 { return e.counts.N() }

// AdditiveFloor returns the additive term below which no constant-factor
// guarantee holds (Theorem 5): H(f) must be ω(p^(−1/2)·n^(−1/6)).
func (e *EntropyEstimator) AdditiveFloor(n uint64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	return math.Pow(e.p, -0.5) * math.Pow(float64(n), -1.0/6)
}

// SpaceBytes returns the memory footprint of the frequency vector.
func (e *EntropyEstimator) SpaceBytes() int { return e.counts.SpaceBytes() }
