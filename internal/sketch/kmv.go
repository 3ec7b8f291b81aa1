package sketch

import (
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
