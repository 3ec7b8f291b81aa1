package sketch

import (
	"math"
	"math/bits"

	"substream/internal/rng"
	"substream/internal/stream"
)

// KMV is the k-minimum-values distinct-count estimator: hash every item
// into the 61-bit field, keep the k smallest distinct hash values, and
// estimate F₀ ≈ (k−1)/v_k where v_k ∈ (0,1] is the normalized k-th
// smallest value. Relative error is O(1/√k) with constant probability;
// Algorithm 2 needs only a (1/2, δ) estimate, which k ≈ 64 already
// exceeds comfortably.
type KMV struct {
	k    int
	h    rng.Hash2
	heap hashMaxHeap         // k smallest hash values, max at root
	seen map[uint64]struct{} // hash values currently in the heap
}

// hashMaxHeap is a max-heap of 61-bit hash values, maintained by the
// typed pushHash/popHash helpers in merge.go. A container/heap interface
// would box every value through interface{}, one allocation per admitted
// item on the distinct-count hot path.
type hashMaxHeap []uint64

func (h hashMaxHeap) Len() int { return len(h) }

// NewKMV returns a KMV estimator retaining k minimum values. It panics if
// k < 2 (the estimator needs at least two values).
func NewKMV(k int, r *rng.Xoshiro256) *KMV {
	if k < 2 {
		panic("sketch: KMV requires k >= 2")
	}
	return &KMV{
		k:    k,
		h:    rng.NewHash2(r),
		seen: make(map[uint64]struct{}, k),
	}
}

// NewKMVWithError returns a KMV sized for relative error ≈ ε with
// constant probability: k = ⌈4/ε²⌉.
func NewKMVWithError(epsilon float64, r *rng.Xoshiro256) *KMV {
	if epsilon <= 0 || epsilon >= 1 {
		panic("sketch: KMV epsilon must be in (0, 1)")
	}
	k := int(math.Ceil(4 / (epsilon * epsilon)))
	if k < 2 {
		k = 2
	}
	return NewKMV(k, r)
}

// Observe feeds one item. Duplicate items hash identically and are
// deduplicated, so only distinct items affect the state.
func (s *KMV) Observe(it stream.Item) {
	s.admitHash(s.h.Hash(uint64(it)))
}

// Estimate returns the distinct-count estimate. With fewer than k
// distinct values observed, the count is exact.
func (s *KMV) Estimate() float64 {
	if s.heap.Len() < s.k {
		return float64(s.heap.Len())
	}
	vk := (float64(s.heap[0]) + 1) / float64(uint64(1)<<61)
	return float64(s.k-1) / vk
}

// SpaceBytes returns the approximate memory footprint.
func (s *KMV) SpaceBytes() int { return 24 * s.k }

// HLL is a stochastic-averaging distinct-count estimator in the
// HyperLogLog family: 2^precision registers, each holding the maximum
// leading-zero rank of the hashed items routed to it. It provides
// ≈ 1.04/√(2^precision) relative standard error using one byte per
// register — included as the constant-space alternative backend for
// Algorithm 2 alongside KMV. Small cardinalities fall back to linear
// counting, as in the original paper.
type HLL struct {
	precision uint
	registers []uint8
	seedA     uint64
	seedB     uint64
}

// NewHLL builds an estimator with 2^precision registers, 4 ≤ precision
// ≤ 18.
func NewHLL(precision uint, r *rng.Xoshiro256) *HLL {
	if precision < 4 || precision > 18 {
		panic("sketch: HLL precision must be in [4, 18]")
	}
	return &HLL{
		precision: precision,
		registers: make([]uint8, 1<<precision),
		seedA:     r.Uint64() | 1,
		seedB:     r.Uint64(),
	}
}

// Observe feeds one item.
func (h *HLL) Observe(it stream.Item) {
	x := rng.Mix64(uint64(it)*h.seedA + h.seedB)
	idx := x >> (64 - h.precision)
	rest := x<<h.precision | 1<<(h.precision-1) // sentinel bit bounds the rank
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the distinct-count estimate.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, reg := range h.registers {
		sum += math.Pow(2, -float64(reg))
		if reg == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Linear counting for the small range, as in the HLL paper.
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// SpaceBytes returns the approximate memory footprint.
func (h *HLL) SpaceBytes() int { return len(h.registers) + 16 }
