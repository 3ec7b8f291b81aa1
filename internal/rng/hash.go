package rng

import "math/bits"

// This file implements the hash families the sketches rely on.
//
// CountMin needs pairwise-independent row hashes; CountSketch needs
// pairwise-independent bucket hashes plus 4-wise-independent sign hashes;
// the level-set estimator needs a pairwise-independent hash for geometric
// universe sampling. All are degree-(k−1) polynomials over the Mersenne
// prime field GF(2^61−1), exactly k-wise independent, flattened into the
// Hash2 (k = 2) and Hash4 (k = 4) kernels; the general-k Horner form they
// specialize lives on as the reference in hash_ref_test.go.

// mersenne61 is the Mersenne prime 2^61 − 1, the field modulus for the
// polynomial hash family.
const mersenne61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61−1 without overflow, exploiting the
// Mersenne structure: for x = hi·2^61 + lo, x ≡ hi + lo (mod 2^61−1).
func mulmod61(a, b uint64) uint64 {
	hi, lo := mul64(a, b)
	// lo61 holds the low 61 bits; the remaining 67 bits are hi·8 + lo>>61.
	lo61 := lo & mersenne61
	rest := hi<<3 | lo>>61
	s := lo61 + rest
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// addmod61 returns a+b mod 2^61−1 for a, b < 2^61−1.
func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// Mod61 reduces an arbitrary 64-bit value into the field [0, 2^61−1)
// without a hardware divide, using the Mersenne fold x ≡ (x>>61) + (x &
// 2^61−1): the fold lands in [0, 2^61+6], so one conditional subtraction
// yields exactly x % (2^61−1).
func Mod61(x uint64) uint64 {
	s := (x >> 61) + (x & mersenne61)
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// Mod61Lanes4 reduces four 64-bit values into the field at once,
// bit-identical to four Mod61 calls. The four folds carry no data
// dependencies on one another, so the CPU overlaps their shift/mask/add
// chains — the reduction half of the 4-lane batch kernels.
func Mod61Lanes4(x0, x1, x2, x3 uint64) (r0, r1, r2, r3 uint64) {
	s0 := (x0 >> 61) + (x0 & mersenne61)
	s1 := (x1 >> 61) + (x1 & mersenne61)
	s2 := (x2 >> 61) + (x2 & mersenne61)
	s3 := (x3 >> 61) + (x3 & mersenne61)
	if s0 >= mersenne61 {
		s0 -= mersenne61
	}
	if s1 >= mersenne61 {
		s1 -= mersenne61
	}
	if s2 >= mersenne61 {
		s2 -= mersenne61
	}
	if s3 >= mersenne61 {
		s3 -= mersenne61
	}
	return s0, s1, s2, s3
}

// Hash2 is the specialized degree-1 polynomial kernel h(x) = A·x + B over
// GF(2^61−1): the pairwise-independent hash every bucket-choice and
// universe-sampling site uses, stored as two plain words so sketches can
// keep rows in contiguous arrays instead of chasing *PolyHash pointers.
// It is bit-identical to the reference NewPolyHash(2, r).Hash for the
// same coefficient draws.
type Hash2 struct {
	A, B uint64 // h(x) = A·x + B; B is coefficient 0, A coefficient 1
}

// NewHash2 draws a pairwise-independent kernel from r, consuming exactly
// the draws NewPolyHash(2, r) would (constant coefficient first), so
// seeded construction sequences stay reproducible across the two
// representations.
func NewHash2(r *Xoshiro256) Hash2 {
	b := r.Uint64n(mersenne61)
	a := r.Uint64n(mersenne61)
	return Hash2{A: a, B: b}
}

// Hash evaluates the kernel at x, reducing x into the field first.
func (h Hash2) Hash(x uint64) uint64 { return h.Eval(Mod61(x)) }

// Eval evaluates the kernel at an already-reduced x < 2^61−1 — the form
// batch loops use after hoisting the per-item reduction out of the
// per-row work.
func (h Hash2) Eval(x uint64) uint64 {
	return addmod61(mulmod61(h.A, x), h.B)
}

// EvalLanes4 evaluates the kernel at four already-reduced inputs,
// bit-identical to four Eval calls. The lanes share only the read-only
// coefficients, so their multiply-reduce chains are independent and the
// CPU pipelines them — the per-row inner step of the 4-lane batch loops
// in internal/sketch.
func (h Hash2) EvalLanes4(x0, x1, x2, x3 uint64) (r0, r1, r2, r3 uint64) {
	hi0, lo0 := mul64(h.A, x0)
	hi1, lo1 := mul64(h.A, x1)
	hi2, lo2 := mul64(h.A, x2)
	hi3, lo3 := mul64(h.A, x3)
	m0 := foldmul61(hi0, lo0)
	m1 := foldmul61(hi1, lo1)
	m2 := foldmul61(hi2, lo2)
	m3 := foldmul61(hi3, lo3)
	return addmod61(m0, h.B), addmod61(m1, h.B), addmod61(m2, h.B), addmod61(m3, h.B)
}

// HashLanes4 evaluates the kernel at four arbitrary 64-bit inputs,
// folding the Mod61 reduction into the lane evaluation — bit-identical
// to four Hash calls.
func (h Hash2) HashLanes4(x0, x1, x2, x3 uint64) (r0, r1, r2, r3 uint64) {
	x0, x1, x2, x3 = Mod61Lanes4(x0, x1, x2, x3)
	return h.EvalLanes4(x0, x1, x2, x3)
}

// foldmul61 completes a widening multiply's reduction mod 2^61−1 — the
// tail of mulmod61 with the bits.Mul64 already done, so lane kernels can
// issue all four multiplies before any reduction.
func foldmul61(hi, lo uint64) uint64 {
	s := (lo & mersenne61) + (hi<<3 | lo>>61)
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// Hash4 is the specialized degree-3 polynomial kernel — the 4-wise
// independent sign hash of CountSketch — with the Horner loop
// fully unrolled over four plain words. Bit-identical to
// NewPolyHash(4, r).Hash for the same draws.
type Hash4 struct {
	C0, C1, C2, C3 uint64 // h(x) = C3·x³ + C2·x² + C1·x + C0
}

// NewHash4 draws a 4-wise-independent kernel from r, consuming exactly
// the draws NewPolyHash(4, r) would.
func NewHash4(r *Xoshiro256) Hash4 {
	var h Hash4
	h.C0 = r.Uint64n(mersenne61)
	h.C1 = r.Uint64n(mersenne61)
	h.C2 = r.Uint64n(mersenne61)
	h.C3 = r.Uint64n(mersenne61)
	return h
}

// Hash evaluates the kernel at x, reducing x into the field first.
func (h Hash4) Hash(x uint64) uint64 { return h.Eval(Mod61(x)) }

// Eval evaluates the kernel at an already-reduced x < 2^61−1.
func (h Hash4) Eval(x uint64) uint64 {
	acc := addmod61(mulmod61(h.C3, x), h.C2)
	acc = addmod61(mulmod61(acc, x), h.C1)
	return addmod61(mulmod61(acc, x), h.C0)
}

// Sign maps x to ±1 from the hash's low bit, like PolyHash.Sign.
func (h Hash4) Sign(x uint64) int {
	return int(h.Hash(x)&1)*2 - 1
}

// EvalLanes4 evaluates the kernel at four already-reduced inputs,
// bit-identical to four Eval calls. Each Horner step issues the four
// lanes' multiplies back to back before reducing, so the three-step
// dependency chain of one lane overlaps the others'.
func (h Hash4) EvalLanes4(x0, x1, x2, x3 uint64) (r0, r1, r2, r3 uint64) {
	a0 := addmod61(mulmod61(h.C3, x0), h.C2)
	a1 := addmod61(mulmod61(h.C3, x1), h.C2)
	a2 := addmod61(mulmod61(h.C3, x2), h.C2)
	a3 := addmod61(mulmod61(h.C3, x3), h.C2)
	a0 = addmod61(mulmod61(a0, x0), h.C1)
	a1 = addmod61(mulmod61(a1, x1), h.C1)
	a2 = addmod61(mulmod61(a2, x2), h.C1)
	a3 = addmod61(mulmod61(a3, x3), h.C1)
	a0 = addmod61(mulmod61(a0, x0), h.C0)
	a1 = addmod61(mulmod61(a1, x1), h.C0)
	a2 = addmod61(mulmod61(a2, x2), h.C0)
	a3 = addmod61(mulmod61(a3, x3), h.C0)
	return a0, a1, a2, a3
}

// Range maps 61-bit field hashes to [0, n) with Lemire's multiply-shift
// reduction (fastrange): bucket = floor(h·n / 2^61), one widening
// multiply and two shifts instead of a hardware divide. Requires
// h < 2^61 (every polynomial-family hash satisfies this). The map sends
// equal-size contiguous hash ranges to each bucket, so it inherits the
// hash family's independence guarantees exactly like `mod n` does — it
// just slices the field into consecutive runs instead of interleaved
// residue classes, with the same ≤ n/2^61 non-uniformity.
type Range struct{ n uint64 }

// NewRange builds a reducer onto [0, n). It panics if n == 0.
func NewRange(n uint64) Range {
	if n == 0 {
		panic("rng: NewRange requires n >= 1")
	}
	return Range{n: n}
}

// Bucket maps a field hash h < 2^61 to [0, n).
func (r Range) Bucket(h uint64) uint64 {
	hi, lo := bits.Mul64(h, r.n)
	return hi<<3 | lo>>61
}
