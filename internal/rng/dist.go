package rng

import "math"

// This file provides the distribution samplers used by the workload
// generators (Zipf, Pareto).

// Discrete samples from an arbitrary finite distribution in O(1) per draw
// using Walker's alias method. Construction is O(n).
type Discrete struct {
	prob  []float64 // acceptance probability per column
	alias []int32   // alias target per column
}

// NewDiscrete builds an alias table for the given non-negative weights.
// Weights need not be normalized. It panics if weights is empty, contains
// a negative or non-finite value, or sums to zero.
func NewDiscrete(weights []float64) *Discrete {
	n := len(weights)
	if n == 0 {
		panic("rng: NewDiscrete with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("rng: NewDiscrete weight must be finite and non-negative")
		}
		total += w
	}
	if total == 0 {
		panic("rng: NewDiscrete weights sum to zero")
	}

	d := &Discrete{prob: make([]float64, n), alias: make([]int32, n)}
	// Scaled probabilities; columns with scaled < 1 are "small".
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.prob[s] = scaled[s]
		d.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are full columns.
	for _, i := range large {
		d.prob[i] = 1
		d.alias[i] = i
	}
	for _, i := range small {
		d.prob[i] = 1
		d.alias[i] = i
	}
	return d
}

// Draw returns an index in [0, len(weights)) with probability proportional
// to its weight.
func (d *Discrete) Draw(r *Xoshiro256) int {
	col := r.Intn(len(d.prob))
	if r.Float64() < d.prob[col] {
		return col
	}
	return int(d.alias[col])
}

// Len returns the support size of the distribution.
func (d *Discrete) Len() int { return len(d.prob) }

// Zipf samples from a Zipf(s) distribution over {1, …, m}:
// P(i) ∝ 1/i^s. Any s ≥ 0 is supported (s = 0 is uniform), unlike
// rejection-based samplers that require s > 1. Draws are O(1) via the
// alias method; construction is O(m).
type Zipf struct {
	d *Discrete
}

// NewZipf builds a Zipf(s) sampler over {1, …, m}. It panics if m < 1 or
// s < 0.
func NewZipf(m int, s float64) *Zipf {
	if m < 1 {
		panic("rng: NewZipf requires m >= 1")
	}
	if s < 0 {
		panic("rng: NewZipf requires s >= 0")
	}
	w := make([]float64, m)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return &Zipf{d: NewDiscrete(w)}
}

// Draw returns a value in [1, m].
func (z *Zipf) Draw(r *Xoshiro256) uint64 {
	return uint64(z.d.Draw(r)) + 1
}

// Pareto returns a Pareto(α) variate with scale xm > 0: values ≥ xm with
// tail P(X > x) = (xm/x)^α. Used for heavy-tailed flow sizes.
func Pareto(r *Xoshiro256, xm, alpha float64) float64 {
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}
