package levelset

import (
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/wire"
)

// ExactCounter counts collisions exactly by maintaining the full
// frequency vector of the observed stream. Space is O(distinct items);
// it is the unlimited-space reference the level-set estimator is judged
// against, and the backend of choice when the sampled stream's support is
// known to be small. The vector lives in a sketch.ItemCounts, whose
// ordering contract says which calls only read a counter that other
// goroutines share: Sum in any layout, Encode on a decoded or merged one.
type ExactCounter struct {
	counts sketch.ItemCounts
}

// NewExactCounter returns an empty exact collision counter.
func NewExactCounter() *ExactCounter { return &ExactCounter{} }

// Observe feeds one element of the sampled stream.
func (c *ExactCounter) Observe(it stream.Item) { c.counts.Observe(it) }

// Sum returns the exact Σ_j G(g_j) of the observed stream, summed over
// its profile (sketch.ItemCounts.Sum); C_ℓ is Lemma 1's Σ_j φ_j·C(j, ℓ).
// It only reads the counter.
func (c *ExactCounter) Sum(g func(count uint64) float64) float64 { return c.counts.Sum(g) }

// SpaceBytes returns the memory footprint of the frequency vector.
func (c *ExactCounter) SpaceBytes() int { return c.counts.SpaceBytes() }

// CollisionCounter is the estimator-facing abstraction Algorithm 1
// consumes: something that observes the sampled stream and can estimate
// Σ_j G(g_j) over its frequencies (C_ℓ(L) is Sum(C(·, ℓ))), folds another
// counter of its own concrete type into itself (so Algorithm 1 runs
// sharded), and has a wire form. ExactCounter and Estimator satisfy it
// (DecodeCollisionCounter returns either); the space/accuracy tradeoff is
// the caller's choice.
type CollisionCounter interface {
	Observe(it stream.Item)
	UpdateBatch(items []stream.Item)
	Sum(g func(count uint64) float64) float64
	MergeCounter(other CollisionCounter) error
	Encode(w *wire.Writer)
	SpaceBytes() int
}
