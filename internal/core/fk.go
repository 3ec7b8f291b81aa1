package core

import (
	"fmt"
	"math"

	"substream/internal/levelset"
	"substream/internal/rng"
	"substream/internal/stream"
)

// FkEstimator is Algorithm 1: a one-pass estimator of the k-th frequency
// moment F_k(P) of the original stream, observing only the sampled stream
// L. It maintains F₁(L) exactly and a collision counter for C_ℓ(L),
// ℓ = 2…k, then unwinds the collision identity inductively:
//
//	φ̃₁ = F₁(L)/p
//	φ̃_ℓ = C̃_ℓ(L)·ℓ!/p^ℓ + Σ_{i<ℓ} β_i^ℓ·φ̃_i
//
// returning φ̃_k. With the level-set backend the space is the paper's
// Õ(p⁻¹·m^(1−2/k)) (the Budget knob); with the exact backend space is
// O(F₀(L)) and the only error is sampling noise — the form the accuracy
// experiments use to isolate effects.
type FkEstimator struct {
	k          int
	p          float64
	schedule   []float64
	collisions levelset.CollisionCounter
	nL         uint64
}

// FkConfig configures an FkEstimator.
type FkConfig struct {
	// K is the moment order, 2 ≤ K ≤ 12.
	K int
	// P is the Bernoulli sampling probability of the observed stream.
	P float64
	// Epsilon is the target relative error ε of the final estimate; it
	// drives the per-order schedule of Lemma 3 and the bound ε′ = ε_{k−1}/4
	// within which the level set certifies a heavy item. Default 0.2.
	Epsilon float64
	// Budget bounds the tracked items of the default level-set counter —
	// the paper's Õ(p⁻¹·m^(1−2/k)) knob. Ignored when Exact is set.
	// Default 4096.
	Budget int
	// Exact selects the exact collision counter (space O(F₀(L))).
	Exact bool
}

// NewFkEstimator builds the estimator. It panics on an out-of-range K or
// P; the randomness source seeds the level-set backend.
func NewFkEstimator(cfg FkConfig, r *rng.Xoshiro256) *FkEstimator {
	if cfg.K < 2 || cfg.K > maxMomentOrder {
		panic(fmt.Sprintf("core: FkEstimator K must be in [2, %d]", maxMomentOrder))
	}
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: FkEstimator P must be in (0, 1]")
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.2
	}
	if eps < 0 {
		panic("core: FkEstimator Epsilon must be positive")
	}
	schedule := EpsilonSchedule(cfg.K, eps)

	var counter levelset.CollisionCounter
	if cfg.Exact {
		counter = levelset.NewExactCounter()
	} else {
		budget := cfg.Budget
		if budget == 0 {
			budget = 4096
		}
		counter = levelset.New(levelset.Config{
			EpsPrime: schedule[cfg.K-1] / 4, // ε′ = ε_{k−1}/4 (§3.1)
			Budget:   budget,
		}, r)
	}
	return &FkEstimator{
		k:          cfg.K,
		p:          cfg.P,
		schedule:   schedule,
		collisions: counter,
	}
}

// binomial[ℓ] is G = C(·, ℓ), so a collision counter's Sum(binomial[ℓ])
// is C̃_ℓ. The funcs are made once: one built per query would escape
// through the CollisionCounter interface and allocate.
var binomial = func() (b [maxMomentOrder + 1]func(count uint64) float64) {
	for l := range b {
		b[l] = func(c uint64) float64 { return stream.BinomialCoeff(c, l) }
	}
	return b
}()

// Observe feeds one element of the sampled stream L.
func (e *FkEstimator) Observe(it stream.Item) {
	e.nL++
	e.collisions.Observe(it)
}

// Estimate returns φ̃_k, the estimate of F_k(P).
func (e *FkEstimator) Estimate() float64 {
	return e.Moments()[e.k]
}

// Moments returns all intermediate estimates φ̃_1 … φ̃_k (1-indexed;
// index 0 unused). φ̃_ℓ estimates F_ℓ(P), so callers needing several
// moments share one pass.
func (e *FkEstimator) Moments() []float64 {
	phi := make([]float64, e.k+1)
	phi[1] = float64(e.nL) / e.p
	for l := 2; l <= e.k; l++ {
		cl := e.collisions.Sum(binomial[l])
		est := cl * Factorial(l) / math.Pow(e.p, float64(l))
		for i, beta := range Betas(l) {
			if i == 0 {
				continue
			}
			est += beta * phi[i]
		}
		// A frequency moment is at least F1 for any nonempty stream;
		// clamp pathological negatives from noisy collision estimates.
		// Over the exact counter the clamp adds no bias: φ̃_ℓ is then
		// Σ_j S(ℓ,j)·j!·C_j(L)/p^j with Stirling numbers S(ℓ,j) ≥ 0, never
		// below φ̃₁ but by rounding (TestExactSamplingOracle: exact bias 0
		// on every instance). Over the level set it lifts a low C̃_ℓ, a
		// bias of E[(φ̃₁ − est)⁺] ≥ 0 upward.
		if est < phi[1] {
			est = phi[1]
		}
		phi[l] = est
	}
	return phi
}

// StdErrEstimate returns a plug-in estimate of the standard error of
// φ̃_ℓ due to Bernoulli sampling, from Lemma 2's variance bound
// V[C_ℓ(L)] = O(p^(2ℓ−1)·F_ℓ^(2−1/ℓ)): the returned value is
// √(p^(2ℓ−1)·φ̃_ℓ^(2−1/ℓ))·ℓ!/p^ℓ, using the estimator's own moments as
// the plug-in for F_ℓ. It quantifies sampling noise only — the level
// set's sketch error is separate — and is intended for error bars on
// reports, not as a proved confidence interval.
func (e *FkEstimator) StdErrEstimate(l int) float64 {
	if l < 2 || l > e.k {
		panic("core: StdErrEstimate order must be in [2, K]")
	}
	phi := e.Moments()
	fl := phi[l]
	if fl <= 0 {
		return 0
	}
	variance := math.Pow(e.p, float64(2*l-1)) * math.Pow(fl, 2-1/float64(l))
	return math.Sqrt(variance) * Factorial(l) / math.Pow(e.p, float64(l))
}

// SampledLength returns F₁(L), the number of observed elements.
func (e *FkEstimator) SampledLength() uint64 { return e.nL }

// SpaceBytes returns the approximate memory footprint (the collision
// counter dominates).
func (e *FkEstimator) SpaceBytes() int { return e.collisions.SpaceBytes() + 64 }

// MinSamplingP returns the information-theoretic floor on p below which
// Theorem 1's guarantee is void: p = Ω̃(min(m, n)^(−1/k)) (see also
// Theorem 4.33 of Bar-Yossef). Constants are taken as 1.
func MinSamplingP(m, n uint64, k int) float64 {
	mn := m
	if n < mn {
		mn = n
	}
	if mn == 0 {
		return 1
	}
	return math.Pow(float64(mn), -1/float64(k))
}
