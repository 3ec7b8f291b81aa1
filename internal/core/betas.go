// Package core implements the paper's estimators — the algorithms that
// observe only the Bernoulli-sampled stream L and estimate statistics of
// the original stream P:
//
//   - FkEstimator: frequency moments F_k, k ≥ 2 (Theorem 1, Algorithm 1),
//     via the collision identity of Lemma 1 and a collision counter
//     (exact or Indyk–Woodruff-style level sets);
//   - F0Estimator: distinct elements (Algorithm 2, Lemma 8) over a KMV
//     sketch, plus the GEE sample-profile estimator;
//   - EntropyEstimator: empirical entropy (Theorem 5), the plug-in over
//     the exact frequencies of L;
//   - F1HeavyHitters / F2HeavyHitters: Theorems 6 and 7, on CountMin and
//     CountSketch respectively;
//   - Monitor: always all five — F_k, F₀, entropy and both heavy-hitter
//     estimators — over one sampled stream.
//
// Every one merges and has a wire form. All take the sampling
// probability p as a known parameter, as the paper assumes (§2).
package core

// This file computes the β coefficients of Lemma 1,
//
//	F_ℓ(P) = ℓ!·C_ℓ(P) + Σ_{l=1}^{ℓ−1} β_l^ℓ F_l(P),
//
// where β_l^ℓ = (−1)^(ℓ−l+1) · e_{ℓ−l}(1, …, ℓ−1) and e_k is the
// elementary symmetric polynomial. Equivalently β_l^ℓ = −s(ℓ, l) for the
// signed Stirling numbers of the first kind, which is how they are
// computed here (the identity is property-tested against the elementary
// symmetric definition). It also derives the approximation schedule of
// Lemma 3: ε_k = ε and ε_{ℓ−1} = ε_ℓ/(A_ℓ+1) with A_ℓ = Σ|β_i^ℓ|.

// maxMomentOrder bounds k; factorials and Stirling numbers stay exactly
// representable in float64 far beyond it, but collision statistics above
// this order are never needed by the experiments and the schedule's
// ε-shrinkage makes higher orders impractical anyway.
const maxMomentOrder = 12

// stirlingFirst returns the signed Stirling numbers of the first kind
// s(n, k) for 0 ≤ k ≤ n ≤ max, as s[n][k], via the recurrence
// s(n+1, k) = s(n, k−1) − n·s(n, k).
func stirlingFirst(max int) [][]float64 {
	s := make([][]float64, max+1)
	for n := range s {
		s[n] = make([]float64, max+1)
	}
	s[0][0] = 1
	for n := 0; n < max; n++ {
		for k := 0; k <= n+1; k++ {
			var fromPrev float64
			if k > 0 {
				fromPrev = s[n][k-1]
			}
			s[n+1][k] = fromPrev - float64(n)*s[n][k]
		}
	}
	return s
}

// Betas returns the coefficients β_l^ℓ for l = 1 … ℓ−1 (index l in the
// returned slice; index 0 is unused and zero). It panics if ℓ is outside
// [1, maxMomentOrder].
func Betas(l int) []float64 {
	if l < 1 || l > maxMomentOrder {
		panic("core: Betas order out of range")
	}
	s := stirlingFirst(l)
	out := make([]float64, l)
	for i := 1; i < l; i++ {
		out[i] = -s[l][i]
	}
	return out
}

// BetaAbsSum returns A_ℓ = Σ_{i=1}^{ℓ−1} |β_i^ℓ| (Lemma 3).
func BetaAbsSum(l int) float64 {
	var a float64
	for _, b := range Betas(l) {
		if b < 0 {
			a -= b
		} else {
			a += b
		}
	}
	return a
}

// EpsilonSchedule returns the per-order approximation targets
// ε_1, …, ε_k of Lemma 3 (1-indexed; index 0 unused): ε_k = ε and
// ε_{ℓ−1} = ε_ℓ/(A_ℓ+1).
func EpsilonSchedule(k int, epsilon float64) []float64 {
	if k < 1 || k > maxMomentOrder {
		panic("core: EpsilonSchedule order out of range")
	}
	if epsilon <= 0 {
		panic("core: EpsilonSchedule requires positive epsilon")
	}
	eps := make([]float64, k+1)
	eps[k] = epsilon
	for l := k; l >= 2; l-- {
		eps[l-1] = eps[l] / (BetaAbsSum(l) + 1)
	}
	return eps
}

// Factorial returns ℓ! as a float64 (exact for ℓ ≤ maxMomentOrder).
func Factorial(l int) float64 {
	f := 1.0
	for i := 2; i <= l; i++ {
		f *= float64(i)
	}
	return f
}
