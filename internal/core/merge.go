package core

import (
	"fmt"

	"substream/internal/sketch"
)

// This file makes the paper's estimators mergeable: several replicas,
// each observing a disjoint share of the sampled stream L (or each
// Bernoulli-sampling its own share of the original stream P — the two
// deployments are equivalent because sub-sampling commutes with
// partitioning), fold into a single estimator whose estimates concern the
// whole stream. This is the seam the sharded ingestion pipeline
// (internal/pipeline) and the distributed-monitor example build on.
//
// Mergeability requires structurally identical replicas: construct every
// replica with the same configuration AND a generator seeded identically
// (the deterministic constructors make this trivial). Merge verifies
// structure and hash agreement and returns sketch.ErrIncompatible when
// replicas were not built that way.

// Merge folds other into e. Both must be configured identically (same K,
// P, and schedule) and share a mergeable collision backend constructed
// from identical generator state.
func (e *FkEstimator) Merge(other *FkEstimator) error {
	if e.k != other.k || e.p != other.p {
		return fmt.Errorf("%w: FkEstimator (K=%d,P=%g) vs (K=%d,P=%g)",
			sketch.ErrIncompatible, e.k, e.p, other.k, other.p)
	}
	if err := e.collisions.MergeCounter(other.collisions); err != nil {
		return err
	}
	e.nL += other.nL
	return nil
}

// Merge folds other into e. Replicas must share P and a KMV sketch
// constructed from identical generator state; KMV merges exactly, so the
// merged estimate equals a single estimator's over the union stream.
func (e *F0Estimator) Merge(other *F0Estimator) error {
	if e.p != other.p {
		return fmt.Errorf("%w: F0Estimator P %g vs %g", sketch.ErrIncompatible, e.p, other.p)
	}
	return e.kmv.Merge(other.kmv)
}

// Merge folds other into e: frequency profiles add exactly.
func (e *GEEF0Estimator) Merge(other *GEEF0Estimator) error {
	if e.p != other.p {
		return fmt.Errorf("%w: GEEF0Estimator P %g vs %g", sketch.ErrIncompatible, e.p, other.p)
	}
	e.counts.Merge(&other.counts)
	return nil
}

// Merge folds other into e: frequency vectors add exactly.
func (e *EntropyEstimator) Merge(other *EntropyEstimator) error {
	if e.p != other.p {
		return fmt.Errorf("%w: EntropyEstimator P %g vs %g", sketch.ErrIncompatible, e.p, other.p)
	}
	e.counts.Merge(&other.counts)
	return nil
}

// Merge folds other into h. Replicas must share configuration and sketch
// seeds. CountMin merges exactly (linearity); the candidate tracker is
// rebuilt by re-querying the merged sketch for the union of both candidate
// sets, so Report on the merged estimator sees post-merge frequency
// estimates.
func (h *F1HeavyHitters) Merge(other *F1HeavyHitters) error {
	if h.p != other.p || h.alpha != other.alpha || h.eps != other.eps {
		return fmt.Errorf("%w: F1HeavyHitters (P=%g,α=%g,ε=%g) vs (P=%g,α=%g,ε=%g)",
			sketch.ErrIncompatible, h.p, h.alpha, h.eps, other.p, other.alpha, other.eps)
	}
	if err := h.cm.Merge(other.cm); err != nil {
		return err
	}
	h.observed += other.observed
	for _, c := range other.tracker.Items() {
		h.tracker.Update(c.Item, float64(h.cm.Estimate(c.Item)))
	}
	for _, c := range h.tracker.Items() {
		h.tracker.Update(c.Item, float64(h.cm.Estimate(c.Item)))
	}
	return nil
}

// Merge folds other into h, exactly like F1HeavyHitters.Merge but over
// the linear CountSketch.
func (h *F2HeavyHitters) Merge(other *F2HeavyHitters) error {
	if h.p != other.p || h.alpha != other.alpha || h.eps != other.eps {
		return fmt.Errorf("%w: F2HeavyHitters (P=%g,α=%g,ε=%g) vs (P=%g,α=%g,ε=%g)",
			sketch.ErrIncompatible, h.p, h.alpha, h.eps, other.p, other.alpha, other.eps)
	}
	if err := h.cs.Merge(other.cs); err != nil {
		return err
	}
	h.nL += other.nL
	for _, c := range other.tracker.Items() {
		if est := h.cs.Estimate(c.Item); est > 0 {
			h.tracker.Update(c.Item, float64(est))
		}
	}
	for _, c := range h.tracker.Items() {
		if est := h.cs.Estimate(c.Item); est > 0 {
			h.tracker.Update(c.Item, float64(est))
		}
	}
	return nil
}

// Merge folds other into m, merging the five estimators pairwise. Both
// monitors must share their configuration and construction seed.
func (m *Monitor) Merge(other *Monitor) error {
	if m.p != other.p {
		return fmt.Errorf("%w: Monitor P %g vs %g", sketch.ErrIncompatible, m.p, other.p)
	}
	if err := m.fk.Merge(other.fk); err != nil {
		return err
	}
	if err := m.f0.Merge(other.f0); err != nil {
		return err
	}
	if err := m.entropy.Merge(other.entropy); err != nil {
		return err
	}
	if err := m.hh1.Merge(other.hh1); err != nil {
		return err
	}
	if err := m.hh2.Merge(other.hh2); err != nil {
		return err
	}
	m.nL += other.nL
	return nil
}
