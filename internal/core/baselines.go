package core

import (
	"math"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// This file implements the baselines the experiments compare against:
// the Rusu–Dobra-style scaled F₂ estimator (sketch the sampled stream,
// invert the sampling expectation) and naive normalization of sampled
// moments. The paper's §1.3 credits the scaling approach with Õ(1/p²)
// space at fixed accuracy versus Õ(1/p) for the collision method —
// experiment E9 measures exactly that.

// ScaledF2Estimator estimates F₂(P) by sketching F₂(L) and inverting
//
//	E[F₂(L)] = p²·F₂(P) + p(1−p)·F₁(P)
//
// giving F̂₂(P) = (F̂₂(L) − (1−p)·F₁(L)) / p². F₁(L) is counted exactly.
// The estimator is unbiased given an unbiased F̂₂(L), but dividing by p²
// amplifies the sketch's error by 1/p², which is why matching the
// collision method's accuracy needs quadratically more space.
type ScaledF2Estimator struct {
	p  float64
	cs *sketch.CountSketch
	nL uint64
}

// ScaledF2Config configures a ScaledF2Estimator.
type ScaledF2Config struct {
	// P is the Bernoulli sampling probability.
	P float64
	// Width and Depth shape the CountSketch used for F̂₂(L).
	// Defaults 4096 and 5.
	Width int
	Depth int
}

// NewScaledF2Estimator builds the estimator.
func NewScaledF2Estimator(cfg ScaledF2Config, r *rng.Xoshiro256) *ScaledF2Estimator {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: ScaledF2Estimator P must be in (0, 1]")
	}
	width := cfg.Width
	if width == 0 {
		width = 4096
	}
	depth := cfg.Depth
	if depth == 0 {
		depth = 5
	}
	return &ScaledF2Estimator{p: cfg.P, cs: sketch.NewCountSketch(width, depth, r)}
}

// Observe feeds one element of the sampled stream L.
func (e *ScaledF2Estimator) Observe(it stream.Item) {
	e.nL++
	e.cs.Observe(it)
}

// Estimate returns the inverted estimate of F₂(P). Noise can push the
// raw inversion below the information floor F₁(P) ≈ F₁(L)/p; the result
// is clamped there.
func (e *ScaledF2Estimator) Estimate() float64 {
	f2L := e.cs.F2Estimate()
	f1L := float64(e.nL)
	est := (f2L - (1-e.p)*f1L) / (e.p * e.p)
	if floor := f1L / e.p; est < floor {
		return floor
	}
	return est
}

// SpaceBytes returns the approximate memory footprint.
func (e *ScaledF2Estimator) SpaceBytes() int { return e.cs.SpaceBytes() + 16 }

// NaiveFkEstimator is the strawman: compute F_k(L) exactly and return
// F_k(L)/p^k. The normalization is correct only for the pure power term
// Σ(p·f_i)^k; it ignores every lower-order binomial moment term, so it
// systematically underestimates skewed streams and overestimates nothing
// — the experiments use it to show why the collision correction matters.
type NaiveFkEstimator struct {
	k      int
	p      float64
	counts sketch.ItemCounts
}

// NewNaiveFkEstimator builds the strawman estimator for moment order k.
func NewNaiveFkEstimator(k int, p float64) *NaiveFkEstimator {
	if k < 1 || k > maxMomentOrder {
		panic("core: NaiveFkEstimator order out of range")
	}
	if p <= 0 || p > 1 {
		panic("core: NaiveFkEstimator P must be in (0, 1]")
	}
	return &NaiveFkEstimator{k: k, p: p}
}

// Observe feeds one element of the sampled stream L.
func (e *NaiveFkEstimator) Observe(it stream.Item) { e.counts.Observe(it) }

// Estimate returns F_k(L)/p^k, F_k(L) = Σ g_i^k summed in key order.
func (e *NaiveFkEstimator) Estimate() float64 {
	var fk float64
	for _, g := range e.counts.OrderedCounts() {
		fk += math.Pow(float64(g), float64(e.k))
	}
	return fk / math.Pow(e.p, float64(e.k))
}

// SpaceBytes returns the memory footprint of the frequency vector.
func (e *NaiveFkEstimator) SpaceBytes() int { return e.counts.SpaceBytes() }

// NaiveF0Estimator is the strawman distinct counter: F₀(L)/p. Charikar
// et al.'s lower bound (Theorem 3) manifests as this estimator collapsing
// on duplicate-free streams; E3 plots it against Algorithm 2.
type NaiveF0Estimator struct {
	p   float64
	kmv *sketch.KMV
}

// NewNaiveF0Estimator builds the strawman with a KMV backend of size k.
func NewNaiveF0Estimator(p float64, k int, r *rng.Xoshiro256) *NaiveF0Estimator {
	if p <= 0 || p > 1 {
		panic("core: NaiveF0Estimator P must be in (0, 1]")
	}
	return &NaiveF0Estimator{p: p, kmv: sketch.NewKMV(k, r)}
}

// Observe feeds one element of the sampled stream L.
func (e *NaiveF0Estimator) Observe(it stream.Item) { e.kmv.Observe(it) }

// Estimate returns F̂₀(L)/p.
func (e *NaiveF0Estimator) Estimate() float64 {
	return e.kmv.Estimate() / e.p
}

// SpaceBytes returns the approximate memory footprint.
func (e *NaiveF0Estimator) SpaceBytes() int { return e.kmv.SpaceBytes() + 16 }
