package core

import "substream/internal/stream"

// This file adds batched ingestion. UpdateBatch(items) observes every
// item of a batch with one call, removing the per-item interface dispatch
// that dominates channel-fed deployments and letting the backends run
// their cache-friendly batch loops (see internal/sketch/batch.go). Every
// UpdateBatch produces state bit-identical to calling Observe per item —
// the invariant internal/estimator's registry-driven equivalence test
// pins for every serializable kind, so the batched pipeline, the
// sequential CLI, and a replayed stream all converge on one state.

// UpdateBatch feeds a batch of sampled-stream elements.
func (e *FkEstimator) UpdateBatch(items []stream.Item) {
	e.nL += uint64(len(items))
	e.collisions.UpdateBatch(items)
}

// UpdateBatch feeds a batch of sampled-stream elements.
func (e *F0Estimator) UpdateBatch(items []stream.Item) { e.kmv.UpdateBatch(items) }

// UpdateBatch feeds a batch of sampled-stream elements.
func (e *GEEF0Estimator) UpdateBatch(items []stream.Item) { e.counts.UpdateBatch(items) }

// UpdateBatch feeds a batch of sampled-stream elements.
func (e *EntropyEstimator) UpdateBatch(items []stream.Item) { e.counts.UpdateBatch(items) }

// UpdateBatch feeds a batch of sampled-stream elements. The candidate
// tracker's scores depend on the sketch state at each item's own
// observation, so sketch update and tracker re-score stay interleaved
// per item — batching's win here comes from the fused one-hash-per-row
// ObserveEstimate kernels, not from reordering — and the batched state
// is bit-identical to per-item observation.
func (h *F1HeavyHitters) UpdateBatch(items []stream.Item) {
	for _, it := range items {
		h.Observe(it)
	}
}

// UpdateBatch feeds a batch of sampled-stream elements, interleaved per
// item like F1HeavyHitters.UpdateBatch.
func (h *F2HeavyHitters) UpdateBatch(items []stream.Item) {
	for _, it := range items {
		h.Observe(it)
	}
}

// UpdateBatch feeds a batch of sampled-stream elements to every
// estimator.
func (m *Monitor) UpdateBatch(items []stream.Item) {
	m.nL += uint64(len(items))
	m.fk.UpdateBatch(items)
	m.f0.UpdateBatch(items)
	m.entropy.UpdateBatch(items)
	m.hh1.UpdateBatch(items)
	m.hh2.UpdateBatch(items)
}

// Settle is the hook a pipeline's shard worker runs on its replica before
// it acknowledges a Sync barrier (pipeline.Settler): an exact counting
// store orders itself in place, so the fold that follows reads it as it
// lies. Kinds that hold no such store have no Settle.
func (e *FkEstimator) Settle() {
	if s, ok := e.collisions.(interface{ Settle() }); ok {
		s.Settle()
	}
}

// Settle: see FkEstimator.Settle.
func (e *GEEF0Estimator) Settle() { e.counts.Settle() }

// Settle: see FkEstimator.Settle.
func (e *EntropyEstimator) Settle() { e.counts.Settle() }

// Settle settles the two parts that may hold an exact counting store.
func (m *Monitor) Settle() {
	m.fk.Settle()
	m.entropy.Settle()
}
