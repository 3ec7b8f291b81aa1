package sample

import (
	"container/heap"
	"fmt"
	"math"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// This file implements VarOpt_k sampling (Cohen–Duffield–Kaplan–Lund–
// Thorup, "Stream sampling for variance-optimal estimation of subset
// sums"): a k-slot weighted reservoir whose subset-sum estimates are
// unbiased and variance-optimal among all off-line sampling schemes of
// size k. It is the library's weighted counterpart of the Bernoulli
// sampler — the summary behind "how many bytes did subnet X send".
//
// State: a threshold τ plus the sample split into LARGE items (weight
// > τ, kept with their exact weight, organized as a min-heap on weight)
// and SMALL items (kept with the shared adjusted weight τ; only their
// keys are stored). An item's adjusted weight max(w, τ) is the
// Horvitz–Thompson estimator of its true weight, so the estimate of any
// subset's total weight is the sum of adjusted weights over sampled
// members — and Σ adjusted weights equals the total stream weight
// exactly (up to float rounding).
//
// Inserting into a full reservoir considers the k+1 adjusted weights,
// grows the candidate small set S upward until τ' = W(S)/(|S|−1)
// separates it from the remaining large items, then drops exactly one
// member of S — item i with probability 1 − w_i/τ' (these sum to 1) —
// and the survivors of S become small at weight τ'. Until the reservoir
// first overflows, τ is 0 and the sample is the exact stream.
//
// Unlike Bernoulli sampling, VarOpt does NOT commute with partitioning
// the stream: the per-shard reservoirs of a pipeline are each a VarOpt
// sample of their shard, and Merge re-feeds one reservoir's sample into
// the other at its adjusted weights — unbiased by the tower property,
// and the shape the CDKLT merge procedure takes in this representation.

// TagVarOpt is the reservoir's wire tag, first of the sample package's
// 0x50–0x5f range.
const TagVarOpt byte = 0x50

// maxVarOptK bounds the reservoir size here and in the decoder, keeping
// corrupt payloads from provoking huge allocations.
const maxVarOptK = 1 << 24

// VarOpt is a VarOpt_k weighted reservoir. It implements
// estimator.Typed[*VarOpt] plus the estimator.Weighted and
// estimator.Summer capabilities; lift it with estimator.Adapt. Not safe
// for concurrent use.
type VarOpt struct {
	k      int
	n      uint64  // weighted items observed (merge-cumulative)
	totalW float64 // exact total weight observed
	tau    float64 // adjusted weight of small items; 0 until first drop
	large  voHeap  // min-heap on weight; every weight > tau
	small  []stream.Item
	r      *rng.Xoshiro256
	cand   []stream.WItem // insert scratch, reused across calls
}

// voHeap is the large-item min-heap, ordered by weight.
type voHeap []stream.WItem

func (h voHeap) Len() int            { return len(h) }
func (h voHeap) Less(i, j int) bool  { return h[i].Weight < h[j].Weight }
func (h voHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *voHeap) Push(x interface{}) { *h = append(*h, x.(stream.WItem)) }
func (h *voHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewVarOpt returns an empty reservoir of k slots drawing its drop coins
// from r. It panics if k < 1 or r is nil, like the other constructors.
func NewVarOpt(k int, r *rng.Xoshiro256) *VarOpt {
	if k < 1 {
		panic("sample: VarOpt requires k >= 1")
	}
	if r == nil {
		panic("sample: VarOpt requires a generator")
	}
	return &VarOpt{k: k, r: r}
}

// TotalWeight returns the exact total weight observed.
func (v *VarOpt) TotalWeight() float64 { return v.totalW }

// Tau returns the current small-item threshold (0 while the sample is
// still exact).
func (v *VarOpt) Tau() float64 { return v.tau }

// SampleSize returns the number of retained items.
func (v *VarOpt) SampleSize() int { return len(v.large) + len(v.small) }

// ObserveWeighted feeds one weighted item. Non-positive and non-finite
// weights carry no mass and are ignored.
func (v *VarOpt) ObserveWeighted(it stream.Item, weight float64) {
	if !(weight > 0) || math.IsInf(weight, 0) {
		return
	}
	v.n++
	v.totalW += weight
	v.insert(it, weight)
}

// UpdateWeightedBatch feeds a weighted batch, element-wise — the batch
// state is bit-identical to per-item ObserveWeighted by construction.
func (v *VarOpt) UpdateWeightedBatch(items []stream.WItem) {
	for _, it := range items {
		v.ObserveWeighted(it.Key, it.Weight)
	}
}

// Observe feeds one unweighted item at weight 1, the degenerate case
// under which VarOpt is a uniform (length-k) reservoir.
func (v *VarOpt) Observe(it stream.Item) { v.ObserveWeighted(it, 1) }

// UpdateBatch feeds an unweighted batch element-wise.
func (v *VarOpt) UpdateBatch(items []stream.Item) {
	for _, it := range items {
		v.ObserveWeighted(it, 1)
	}
}

// insert is the counter-free sampling core shared by Observe and Merge.
func (v *VarOpt) insert(it stream.Item, weight float64) {
	if len(v.large)+len(v.small) < v.k {
		// Not yet full: τ is 0 (see the merge argument below), so every
		// positive weight is "large" and the sample is exact.
		heap.Push(&v.large, stream.WItem{Key: it, Weight: weight})
		return
	}
	v.insertFull(it, weight)
}

// insertFull runs the CDKLT drop procedure on the k+1 candidates.
func (v *VarOpt) insertFull(it stream.Item, weight float64) {
	// S starts as the current small set (|small| items of adjusted weight
	// τ each); the new item joins S or the large heap by weight.
	cand := v.cand[:0] // members of S with explicit weights (beyond old small)
	t := len(v.small)
	W := v.tau * float64(t)
	if weight <= v.tau {
		cand = append(cand, stream.WItem{Key: it, Weight: weight})
		t++
		W += weight
	} else {
		heap.Push(&v.large, stream.WItem{Key: it, Weight: weight})
	}
	// Grow S until τ' = W/(t−1) separates it from the remaining large
	// items. The loop compares against the same division the final τ'
	// uses, so "every remaining large weight > τ'" holds exactly in
	// float arithmetic — the invariant the decoder re-checks.
	for len(v.large) > 0 {
		if t >= 2 && v.large[0].Weight > W/float64(t-1) {
			break
		}
		e := v.large[0]
		heap.Pop(&v.large)
		cand = append(cand, e)
		t++
		W += e.Weight
	}
	tauNew := W / float64(t-1)

	// Drop exactly one member of S: item i with probability 1 − w_i/τ'
	// (the probabilities sum to t − W/τ' = 1). Old small items share one
	// drop probability, so the walk treats them as a single block and
	// picks uniformly inside it — O(|cand|) instead of O(k).
	dropSmall, dropCand := -1, -1
	perOld := 0.0
	if len(v.small) > 0 {
		perOld = 1 - v.tau/tauNew
	}
	blockP := float64(len(v.small)) * perOld
	u := v.r.Float64()
	if u < blockP {
		i := int(u / perOld)
		if i >= len(v.small) {
			i = len(v.small) - 1
		}
		dropSmall = i
	} else {
		c := u - blockP
		for i := range cand {
			p := 1 - cand[i].Weight/tauNew
			if c < p {
				dropCand = i
				break
			}
			c -= p
		}
		if dropCand < 0 {
			// Float drift left the walk past the end; the total drop
			// probability is exactly 1, so assign the remainder to the
			// last member of S.
			if len(cand) > 0 {
				dropCand = len(cand) - 1
			} else {
				dropSmall = len(v.small) - 1
			}
		}
	}
	if dropSmall >= 0 {
		last := len(v.small) - 1
		v.small[dropSmall] = v.small[last]
		v.small = v.small[:last]
	}
	for i := range cand {
		if i != dropCand {
			v.small = append(v.small, cand[i].Key)
		}
	}
	v.tau = tauNew
	v.cand = cand[:0]
}

// Merge folds another reservoir of the same capacity into the receiver:
// the other's sample is re-fed at its adjusted weights (large items
// exact, small items at its τ), which preserves subset-sum unbiasedness
// by the tower property, and the observation counters add. The other
// side is not mutated.
func (v *VarOpt) Merge(o *VarOpt) error {
	if v.k != o.k {
		return fmt.Errorf("sample: cannot merge varopt k=%d into k=%d", o.k, v.k)
	}
	n := v.n + o.n
	totalW := v.totalW + o.totalW
	for _, e := range o.large {
		v.insert(e.Key, e.Weight)
	}
	for _, key := range o.small {
		v.insert(key, o.tau)
	}
	v.n = n
	v.totalW = totalW
	return nil
}

// SubsetSum returns the unbiased Horvitz–Thompson estimate of the total
// weight of stream elements whose key satisfies pred: each sampled item
// contributes its adjusted weight max(w, τ).
func (v *VarOpt) SubsetSum(pred func(stream.Item) bool) float64 {
	var sum float64
	for _, e := range v.large {
		if pred(e.Key) {
			sum += e.Weight
		}
	}
	for _, key := range v.small {
		if pred(key) {
			sum += v.tau
		}
	}
	return sum
}

// Estimates reports the reservoir's named scalars: the observed item
// count and exact total weight, the retained sample size, and τ.
func (v *VarOpt) Estimates() map[string]float64 {
	return map[string]float64{
		"n":            float64(v.n),
		"total_weight": v.totalW,
		"sample_size":  float64(v.SampleSize()),
		"tau":          v.tau,
	}
}

// SpaceBytes returns the approximate memory footprint.
func (v *VarOpt) SpaceBytes() int {
	return cap(v.large)*16 + cap(v.small)*8 + cap(v.cand)*16 + 64
}

// Wire format (tag 0x50, wire.WireVersion, little-endian):
//
//	u32 k, u64 n, f64 totalW, f64 τ
//	4 × u64 xoshiro256 generator state
//	u32 L, then L × (u64 key, f64 weight) — the large heap in array order
//	u32 T, then T × u64 key               — the small set in order
//
// Wire format v3 left this layout as it was: the keys sit in heap and
// arrival order, so there is no neighbour to delta-code them against and
// a hashed 64-bit key would grow as a varint, and the weights are floats.
//
// Serializing the heap in array order makes marshaling deterministic and
// the round trip bit-identical: the decoder validates the min-heap
// property instead of rebuilding it. Structural invariants checked on
// decode: non-zero keys, finite positive weights strictly above τ, the
// heap ordering, L+T ≤ k with the fullness rule (τ = 0 means no item
// was ever dropped, so the small set is empty; τ > 0 means the sample
// is full and more than k items were inserted), and a non-degenerate
// generator state.

// MarshalBinary serializes the reservoir.
func (v *VarOpt) MarshalBinary() ([]byte, error) { return wire.Marshal(v) }

// Encode writes the reservoir.
func (v *VarOpt) Encode(w *wire.Writer) {
	w.Header(TagVarOpt)
	w.U32(uint32(v.k))
	w.U64(v.n)
	w.F64(v.totalW)
	w.F64(v.tau)
	for _, s := range v.r.State() {
		w.U64(s)
	}
	w.U32(uint32(len(v.large)))
	for _, e := range v.large {
		w.U64(uint64(e.Key))
		w.F64(e.Weight)
	}
	w.U32(uint32(len(v.small)))
	for _, key := range v.small {
		w.U64(uint64(key))
	}
}

// DecodeVarOpt reads a reservoir written by Encode.
func DecodeVarOpt(r *wire.Reader) (*VarOpt, error) {
	r.Header(TagVarOpt)
	k := int(r.U32())
	n := r.U64()
	totalW := r.F64()
	tau := r.F64()
	var state [4]uint64
	for i := range state {
		state[i] = r.U64()
	}
	if r.Err() == nil && (k < 1 || k > maxVarOptK ||
		math.IsNaN(totalW) || math.IsInf(totalW, 0) || totalW < 0 ||
		math.IsNaN(tau) || math.IsInf(tau, 0) || tau < 0) {
		r.Fail()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	gen, err := rng.FromState(state)
	if err != nil {
		r.Failf("sample: varopt: %v", err)
		return nil, r.Err()
	}
	L := r.Count(k, 16)
	if r.Err() != nil {
		return nil, r.Err()
	}
	large := make(voHeap, L)
	for i := range large {
		e := stream.WItem{Key: stream.Item(r.U64()), Weight: r.F64()}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if e.Key == 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= tau {
			r.Fail()
			return nil, r.Err()
		}
		if i > 0 && large[(i-1)/2].Weight > e.Weight {
			r.Failf("sample: varopt payload breaks the large-heap ordering")
			return nil, r.Err()
		}
		large[i] = e
	}
	T := r.Count(k, 8)
	if r.Err() == nil && L+T > k {
		r.Fail()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	small := make([]stream.Item, T)
	for i := range small {
		key := stream.Item(r.U64())
		if r.Err() == nil && key == 0 {
			r.Fail()
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		small[i] = key
	}
	// Fullness rule: τ stays 0 exactly until the first drop, and a drop
	// both fills the sample and requires more than k insertions.
	switch {
	case n < uint64(L+T):
		r.Failf("sample: varopt payload claims n=%d below its %d retained items", n, L+T)
	case tau == 0 && T != 0:
		r.Failf("sample: varopt payload carries small items without a threshold")
	case tau > 0 && (L+T != k || n <= uint64(k)):
		r.Failf("sample: varopt payload has a threshold but not a full sample")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return &VarOpt{k: k, n: n, totalW: totalW, tau: tau, large: large, small: small, r: gen}, nil
}

func init() {
	estimator.Register(estimator.Kind{
		Tag: TagVarOpt, Name: "varopt",
		Doc: "VarOpt-k weighted reservoir (CDKLT) with unbiased subset-sum estimates (k = budget)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			// Spec.Seed is shared across replicas (the library's
			// mergeability rule), so shard reservoirs flip correlated —
			// but individually well-distributed — drop coins; per-shard
			// unbiasedness and the merge contract are unaffected.
			return estimator.Adapt(NewVarOpt(s.Budget, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeVarOpt),
	})
}
