// Package rng provides the deterministic randomness substrate used by every
// randomized component in the library: fast seedable PRNGs, pairwise- and
// k-wise-independent hash families, and samplers for the distributions the
// workload generators and sketches need.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness and the statistical tests reproducible.
package rng

import (
	"fmt"
	"math/bits"
)

// splitmix64Next advances a SplitMix64 state and returns the next output.
// SplitMix64 expands a single 64-bit seed into the 256-bit state vector
// of Xoshiro256.
func splitmix64Next(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 implements the xoshiro256** generator of Blackman and Vigna:
// 256 bits of state, period 2^256−1, excellent statistical quality, and
// much faster than crypto-grade sources. It is the default PRNG for
// samplers and workload generators.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator seeded from seed via SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	sm := seed
	for i := range x.s {
		x.s[i] = splitmix64Next(&sm)
	}
	// A theoretically-possible all-zero state would lock the generator.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

// State returns the generator's 256-bit state vector, for serializers
// that must reconstruct the exact generator (a decoded summary continues
// the same pseudo-random stream its source would have).
func (x *Xoshiro256) State() [4]uint64 { return x.s }

// FromState reconstructs a Xoshiro256 from a State() vector. The all-zero
// vector is the one state the generator cannot leave, so it is rejected —
// it can only come from corrupt input, never from State().
func FromState(s [4]uint64) (*Xoshiro256, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, fmt.Errorf("rng: all-zero xoshiro256 state")
	}
	return &Xoshiro256{s: s}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent (for all
// practical purposes) from the receiver's: it is seeded from the next
// output of the receiver through SplitMix64. Split lets one experiment
// seed fan out into per-trial and per-component generators without
// correlated streams.
func (x *Xoshiro256) Split() *Xoshiro256 {
	return New(x.Uint64())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1]: never zero, so it is safe
// as the random threshold η in the level-set estimator and as the input to
// logarithms in exponential sampling.
func (x *Xoshiro256) Float64Open() float64 {
	return (float64(x.Uint64()>>11) + 1) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless method.
	v := x.Uint64()
	hi, lo := mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = x.Uint64()
			hi, lo = mul64(v, n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (x *Xoshiro256) Bool() bool { return x.Uint64()&1 == 1 }

// Shuffle permutes the first n elements using the provided swap function,
// via the Fisher–Yates algorithm.
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo), via the
// single-instruction intrinsic.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
