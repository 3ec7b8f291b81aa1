package stream

import (
	"math"
	"sort"
)

// Freq is an exact frequency vector: item → number of occurrences.
// It is the ground-truth representation; estimators never get to see it.
type Freq map[Item]uint64

// NewFreq computes the exact frequency vector of a stream.
func NewFreq(s Stream) Freq {
	f := make(Freq)
	_ = s.ForEach(func(it Item) error {
		f[it]++
		return nil
	})
	return f
}

// F0 returns the number of distinct items (the support size).
func (f Freq) F0() uint64 { return uint64(len(f)) }

// F1 returns the stream length n = Σ f_i.
func (f Freq) F1() uint64 {
	var n uint64
	for _, c := range f {
		n += c
	}
	return n
}

// Fk returns the k-th frequency moment Σ f_i^k as a float64. k must be
// ≥ 0; F(0) counts distinct items with the convention 0^0 = 0 (absent
// items contribute nothing since they are not stored).
func (f Freq) Fk(k int) float64 {
	if k < 0 {
		panic("stream: Fk with negative k")
	}
	var total float64
	for _, c := range f {
		total += math.Pow(float64(c), float64(k))
	}
	return total
}

// Entropy returns the empirical Shannon entropy of the frequency
// distribution in bits: H(f) = Σ (f_i/n)·lg(n/f_i). An empty vector has
// entropy 0.
func (f Freq) Entropy() float64 {
	n := float64(f.F1())
	if n == 0 {
		return 0
	}
	var h float64
	for _, c := range f {
		q := float64(c) / n
		h -= q * math.Log2(q)
	}
	// Guard against -0 from a single-item stream.
	if h <= 0 {
		return 0
	}
	return h
}

// Collisions returns C_ℓ = Σ_i C(f_i, ℓ), the number of ℓ-wise collisions
// (Definition 2 of the paper), as a float64. It panics if ℓ < 1.
func (f Freq) Collisions(l int) float64 {
	if l < 1 {
		panic("stream: Collisions with l < 1")
	}
	var total float64
	for _, c := range f {
		total += BinomialCoeff(c, l)
	}
	return total
}

// BinomialCoeff returns C(n, k) as a float64, 0 when n < k.
func BinomialCoeff(n uint64, k int) float64 {
	if uint64(k) > n {
		return 0
	}
	// Multiply incrementally to stay in range: C(n,k) = Π (n-k+i)/i.
	result := 1.0
	for i := 1; i <= k; i++ {
		result = result * float64(n-uint64(k)+uint64(i)) / float64(i)
	}
	return result
}

// BinomialCoeffFloat returns the generalized binomial coefficient
// C(x, k) = x(x−1)…(x−k+1)/k! for real x, which the level-set collision
// estimator evaluates at non-integer band representatives η(1+ε')^i.
// For x ≤ k−1 it returns 0: a band whose representative is that low
// holds frequencies contributing no k-collisions (and the raw product
// would be negative or oscillating there).
func BinomialCoeffFloat(x float64, k int) float64 {
	if x <= float64(k-1) {
		return 0
	}
	result := 1.0
	for i := 0; i < k; i++ {
		result *= (x - float64(i)) / float64(i+1)
	}
	return result
}

// HeavyHitter describes a ground-truth heavy hitter: an item and its exact
// frequency.
type HeavyHitter struct {
	Item Item
	Freq uint64
}

// FkHeavyHitters returns all items with f_i ≥ α·F_k^(1/k), sorted by
// decreasing frequency (ties by increasing item). k ∈ {1, 2} are the cases
// the paper studies, but any k ≥ 1 works.
func (f Freq) FkHeavyHitters(k int, alpha float64) []HeavyHitter {
	threshold := alpha * math.Pow(f.Fk(k), 1/float64(k))
	var out []HeavyHitter
	for it, c := range f {
		if float64(c) >= threshold {
			out = append(out, HeavyHitter{Item: it, Freq: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// TopK returns the k most frequent items (all items if fewer), sorted by
// decreasing frequency, ties by increasing item.
func (f Freq) TopK(k int) []HeavyHitter {
	all := make([]HeavyHitter, 0, len(f))
	for it, c := range f {
		all = append(all, HeavyHitter{Item: it, Freq: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Freq != all[j].Freq {
			return all[i].Freq > all[j].Freq
		}
		return all[i].Item < all[j].Item
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// ExactStats bundles the statistics of one stream so experiments compute
// ground truth once per workload.
type ExactStats struct {
	N       uint64  // F1: stream length
	F0      uint64  // distinct items
	F2      float64 // second moment
	F3      float64
	F4      float64
	Entropy float64 // bits
}

// ComputeExact materializes the frequency vector of s and summarizes it.
func ComputeExact(s Stream) ExactStats {
	f := NewFreq(s)
	return ExactStats{
		N:       f.F1(),
		F0:      f.F0(),
		F2:      f.Fk(2),
		F3:      f.Fk(3),
		F4:      f.Fk(4),
		Entropy: f.Entropy(),
	}
}
