package core

import (
	"cmp"
	"math"
	"slices"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
)

// This file implements the heavy-hitter estimators of §6. Both follow the
// same shape the proofs use: run a standard heavy-hitters algorithm on
// the sampled stream with a threshold deflated to α′ = (1 − 2ε/5)·α
// (times √p in the F₂ case), then scale reported frequencies back by 1/p.

// ReportedHitter is one reported heavy hitter with its estimated original
// frequency f′_i (already scaled by 1/p). It aliases the estimator
// layer's Hitter so reports flow through the registry interface without
// conversion.
type ReportedHitter = estimator.Hitter

// F1HeavyHitters implements Theorem 6: observing L, report every item
// with f_i ≥ α·F₁(P), no item with f_i < (1−ε)·α·F₁(P), and (1±ε)
// frequency estimates, provided F₁(P) ≥ C·p⁻¹α⁻¹ε⁻²·log(n/δ). The
// sampled-stream algorithm is CountMin, as in the theorem's proof.
type F1HeavyHitters struct {
	p        float64
	alpha    float64
	eps      float64
	alphaPr  float64
	cm       *sketch.CountMin
	tracker  *sketch.TopK
	observed uint64
}

// F1HHConfig configures F1HeavyHitters.
type F1HHConfig struct {
	// P is the Bernoulli sampling probability.
	P float64
	// Alpha is the heaviness threshold α (report f_i ≥ α·F₁).
	Alpha float64
	// Epsilon is the exclusion/estimation slack ε. Default 0.2.
	Epsilon float64
}

// f1HHDelta is F1HeavyHitters' failure probability budget δ.
const f1HHDelta = 0.05

// NewF1HeavyHitters builds the estimator.
func NewF1HeavyHitters(cfg F1HHConfig, r *rng.Xoshiro256) *F1HeavyHitters {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: F1HeavyHitters P must be in (0, 1]")
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		panic("core: F1HeavyHitters Alpha must be in (0, 1)")
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.2
	}
	if eps < 0 || eps >= 1 {
		panic("core: F1HeavyHitters Epsilon must be in (0, 1)")
	}
	alphaPr := (1 - 2*eps/5) * cfg.Alpha
	return &F1HeavyHitters{
		p:       cfg.P,
		alpha:   cfg.Alpha,
		eps:     eps,
		alphaPr: alphaPr,
		// Point error ≤ (ε/20)·α′·F₁(L) so thresholding at α′·F₁(L)
		// separates the (1−ε/2) band, per Theorem 6's proof.
		cm:      sketch.NewCountMinWithError(eps*alphaPr/20, f1HHDelta/4, r),
		tracker: sketch.NewTopK(trackerCapacity(cfg.Alpha)),
	}
}

// trackerCapacity sizes the candidate set: O(1/α) items per Definition 4,
// with headroom for near-threshold churn.
func trackerCapacity(alpha float64) int {
	c := int(math.Ceil(4 / alpha))
	if c < 8 {
		c = 8
	}
	return c
}

// Observe feeds one element of the sampled stream L.
func (h *F1HeavyHitters) Observe(it stream.Item) {
	h.observed++
	h.tracker.Update(it, float64(h.cm.ObserveEstimate(it)))
}

// Report returns the detected heavy hitters of the original stream,
// sorted by decreasing estimated frequency.
func (h *F1HeavyHitters) Report() []ReportedHitter {
	threshold := h.alphaPr * float64(h.observed)
	var out []ReportedHitter
	for _, e := range h.tracker.Items() {
		// Re-query the sketch for the freshest estimate.
		if est := float64(h.cm.Estimate(e.Item)); est >= threshold {
			out = append(out, ReportedHitter{Item: e.Item, Freq: est / h.p})
		}
	}
	sortHitters(out)
	return out
}

// sortHitters orders a report by decreasing frequency, ties by
// increasing item.
func sortHitters(out []ReportedHitter) {
	slices.SortFunc(out, func(a, b ReportedHitter) int {
		return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.Item, b.Item))
	})
}

// MinStreamLength returns Theorem 6's premise: the F₁(P) floor
// C·p⁻¹α⁻¹ε⁻²·log(n/δ) below which the guarantee is void (C taken as 1).
func (h *F1HeavyHitters) MinStreamLength(n uint64, delta float64) float64 {
	return math.Log(float64(n)/delta) / (h.p * h.alpha * h.eps * h.eps)
}

// SpaceBytes returns the approximate memory footprint.
func (h *F1HeavyHitters) SpaceBytes() int {
	return h.cm.SpaceBytes() + h.tracker.SpaceBytes()
}

// F2HeavyHitters implements Theorem 7: observing L, report the
// (α, 1−p^(1/2)(1−ε)) F₂-heavy hitters of the original stream via a
// CountSketch on L with deflated threshold α′ = (1−2ε/5)·α·√p. Space is
// the paper's Õ(1/p): the sketch width scales as 1/(ε²α²p).
type F2HeavyHitters struct {
	p       float64
	alpha   float64
	eps     float64
	alphaPr float64
	cs      *sketch.CountSketch
	tracker *sketch.TopK
	nL      uint64
}

// F2HHConfig configures F2HeavyHitters.
type F2HHConfig struct {
	// P is the Bernoulli sampling probability.
	P float64
	// Alpha is the heaviness threshold α (report f_i ≥ α·√F₂).
	Alpha float64
	// Epsilon is the exclusion slack ε. Default 0.2.
	Epsilon float64
	// MaxWidth caps the derived sketch width (0 = 1<<18), protecting
	// callers who pass extreme (ε, α, p) combinations.
	MaxWidth int
}

// f2HHDepth is F2HeavyHitters' CountSketch depth.
const f2HHDepth = 5

// NewF2HeavyHitters builds the estimator.
func NewF2HeavyHitters(cfg F2HHConfig, r *rng.Xoshiro256) *F2HeavyHitters {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: F2HeavyHitters P must be in (0, 1]")
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		panic("core: F2HeavyHitters Alpha must be in (0, 1)")
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.2
	}
	if eps < 0 || eps >= 1 {
		panic("core: F2HeavyHitters Epsilon must be in (0, 1)")
	}
	alphaPr := (1 - 2*eps/5) * cfg.Alpha * math.Sqrt(cfg.P)
	// Additive point error ≈ √(F₂(L)/width) must be ≤ (ε/10)·α′·√F₂(L):
	// width ≥ 100/(ε·α′)² = Θ(1/(ε²α²p)) — the paper's Õ(1/p).
	width := int(math.Ceil(100 / (eps * alphaPr * eps * alphaPr)))
	maxWidth := cfg.MaxWidth
	if maxWidth == 0 {
		maxWidth = 1 << 18
	}
	if width > maxWidth {
		width = maxWidth
	}
	if width < 16 {
		width = 16
	}
	return &F2HeavyHitters{
		p:       cfg.P,
		alpha:   cfg.Alpha,
		eps:     eps,
		alphaPr: alphaPr,
		cs:      sketch.NewCountSketch(width, f2HHDepth, r),
		tracker: sketch.NewTopK(trackerCapacity(cfg.Alpha)),
	}
}

// Observe feeds one element of the sampled stream L.
func (h *F2HeavyHitters) Observe(it stream.Item) {
	h.nL++
	if est := h.cs.ObserveEstimate(it); est > 0 {
		h.tracker.Update(it, float64(est))
	}
}

// Report returns the detected F₂-heavy hitters of the original stream,
// sorted by decreasing estimated frequency.
func (h *F2HeavyHitters) Report() []ReportedHitter {
	f2L := h.cs.F2Estimate()
	threshold := h.alphaPr * math.Sqrt(f2L)
	var out []ReportedHitter
	for _, e := range h.tracker.Items() {
		est := float64(h.cs.Estimate(e.Item))
		if est >= threshold {
			out = append(out, ReportedHitter{Item: e.Item, Freq: est / h.p})
		}
	}
	sortHitters(out)
	return out
}

// SpaceBytes returns the approximate memory footprint.
func (h *F2HeavyHitters) SpaceBytes() int {
	return h.cs.SpaceBytes() + h.tracker.SpaceBytes()
}
