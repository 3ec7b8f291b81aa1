package core

import (
	"math"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// F0Estimator is Algorithm 2: estimate F₀(P) from the sampled stream by
// computing a constant-factor streaming estimate X of F₀(L) and returning
// X/√p. Lemma 8 bounds the multiplicative error by 4/√p with probability
// ≥ 1 − (δ + e^(−pF₀/8)); Theorem 4 shows Ω(1/√p) error is unavoidable
// for some streams, so this is tight up to constants.
type F0Estimator struct {
	p   float64
	kmv *sketch.KMV // the streaming F₀(L) estimate X
}

// f0KMVSize is the k of the KMV sketch behind every F0Estimator.
const f0KMVSize = 1024

// F0Config configures an F0Estimator.
type F0Config struct {
	// P is the Bernoulli sampling probability.
	P float64
}

// NewF0Estimator builds the estimator.
func NewF0Estimator(cfg F0Config, r *rng.Xoshiro256) *F0Estimator {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: F0Estimator P must be in (0, 1]")
	}
	return &F0Estimator{p: cfg.P, kmv: sketch.NewKMV(f0KMVSize, r)}
}

// Observe feeds one element of the sampled stream L.
func (e *F0Estimator) Observe(it stream.Item) { e.kmv.Observe(it) }

// Estimate returns the Algorithm 2 estimate X/√p of F₀(P).
func (e *F0Estimator) Estimate() float64 {
	return e.kmv.Estimate() / math.Sqrt(e.p)
}

// SampledEstimate returns the KMV estimate of F₀(L) itself.
func (e *F0Estimator) SampledEstimate() float64 { return e.kmv.Estimate() }

// ErrorBound returns Lemma 8's multiplicative error bound 4/√p.
func (e *F0Estimator) ErrorBound() float64 { return 4 / math.Sqrt(e.p) }

// SpaceBytes returns the approximate memory footprint.
func (e *F0Estimator) SpaceBytes() int { return e.kmv.SpaceBytes() + 16 }

// F0LowerBoundError returns Theorem 4's error floor: for p ≤ 1/12 there
// are streams on which any estimator observing L errs by at least
// √(ln 2/(12p)) with probability ≥ (1−e^(−np))/2. The experiment harness
// plots this curve against measured errors.
func F0LowerBoundError(p float64) float64 {
	return math.Sqrt(math.Ln2 / (12 * p))
}

// GEEF0Estimator is the Guaranteed-Error Estimator of Charikar et al.
// adapted to Bernoulli samples — the "current best offline method"
// referenced in §1.2(2), implemented in streaming fashion. It maintains
// the exact frequency profile of L (space O(F₀(L)), in a
// sketch.ItemCounts) and estimates
//
//	F̂₀ = √(1/p)·f₁(L) + Σ_{j≥2} f_j(L)
//
// where f_j(L) counts distinct items appearing exactly j times in L:
// items seen twice or more almost certainly exist in P regardless of p,
// while singletons are scaled by the GEE factor √(n/r) = √(1/p). Its
// worst-case error matches the Theorem 3 lower bound up to constants.
type GEEF0Estimator struct {
	p      float64
	counts sketch.ItemCounts
}

// NewGEEF0Estimator builds the estimator.
func NewGEEF0Estimator(p float64) *GEEF0Estimator {
	if p <= 0 || p > 1 {
		panic("core: GEEF0Estimator P must be in (0, 1]")
	}
	return &GEEF0Estimator{p: p}
}

// Observe feeds one element of the sampled stream L.
func (e *GEEF0Estimator) Observe(it stream.Item) { e.counts.Observe(it) }

// Estimate returns the GEE estimate of F₀(P), φ₁/√p + Σ_{j≥2} φ_j over
// the profile of L. Both counts are exact integers (1/c is 1 for a
// singleton, 0 for any larger count).
func (e *GEEF0Estimator) Estimate() float64 {
	singletons := e.counts.Sum(func(c uint64) float64 { return float64(1 / c) })
	return singletons/math.Sqrt(e.p) + (float64(e.counts.Len()) - singletons)
}

// SpaceBytes returns the memory footprint (linear in F₀(L) — GEE trades
// space for its better constants).
func (e *GEEF0Estimator) SpaceBytes() int { return e.counts.SpaceBytes() }
