package rng

// The general degree-(k−1) polynomial hash Hash2 and Hash4 were
// specialized from, kept as the reference TestHash2MatchesPolyHash and
// TestHash4MatchesPolyHash compare the flat kernels against.

// PolyHash is a k-wise-independent hash function h: uint64 → [0, 2^61−1),
// implemented as a random polynomial of degree k−1 over GF(2^61−1).
type PolyHash struct {
	coef []uint64 // coef[0] + coef[1]·x + … evaluated by Horner's rule
}

// NewPolyHash draws a fresh k-wise-independent hash function using r for
// its coefficients. It panics if k < 1.
func NewPolyHash(k int, r *Xoshiro256) *PolyHash {
	if k < 1 {
		panic("rng: NewPolyHash requires k >= 1")
	}
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = r.Uint64n(mersenne61)
	}
	// A zero leading coefficient only reduces the effective degree for a
	// negligible fraction of draws; the family stays k-wise independent,
	// so no correction is needed.
	return &PolyHash{coef: coef}
}

// Coefficients returns a copy of the polynomial's coefficients, low
// degree first. Together with NewPolyHashFromCoefficients it lets
// serialized sketches reconstruct their exact hash functions.
func (h *PolyHash) Coefficients() []uint64 {
	out := make([]uint64, len(h.coef))
	copy(out, h.coef)
	return out
}

// NewPolyHashFromCoefficients reconstructs a hash function from
// previously extracted coefficients. It panics on an empty slice or a
// coefficient outside the field.
func NewPolyHashFromCoefficients(coef []uint64) *PolyHash {
	if len(coef) == 0 {
		panic("rng: NewPolyHashFromCoefficients requires coefficients")
	}
	cp := make([]uint64, len(coef))
	for i, c := range coef {
		if c >= mersenne61 {
			panic("rng: coefficient outside GF(2^61-1)")
		}
		cp[i] = c
	}
	return &PolyHash{coef: cp}
}

// Hash evaluates the polynomial at x mod 2^61−1 by Horner's rule.
func (h *PolyHash) Hash(x uint64) uint64 {
	// Reduce x into the field first.
	x = x % mersenne61
	acc := h.coef[len(h.coef)-1]
	for i := len(h.coef) - 2; i >= 0; i-- {
		acc = addmod61(mulmod61(acc, x), h.coef[i])
	}
	return acc
}

// Bucket maps x to [0, buckets) with k-wise independence (up to the
// negligible non-uniformity of reducing a 61-bit value mod buckets).
func (h *PolyHash) Bucket(x uint64, buckets int) int {
	return int(h.Hash(x) % uint64(buckets))
}

// Sign maps x to ±1 with the independence of the underlying family;
// constructed from the hash's low bit.
func (h *PolyHash) Sign(x uint64) int {
	if h.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}

// Unit maps x to a value in (0, 1], k-wise independently. It is the map
// used to drive geometric universe sampling: Pr[Unit(x) ≤ q] ≈ q.
func (h *PolyHash) Unit(x uint64) float64 {
	return (float64(h.Hash(x)) + 1) / float64(mersenne61)
}
