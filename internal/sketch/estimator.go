package sketch

import (
	"math"

	"substream/internal/estimator"
	"substream/internal/rng"
)

// This file plugs the package's serializable sketches into the
// internal/estimator registry: each tag in the 0x01–0x0f range binds its
// name, decoder, and spec-driven constructor here, and nowhere else.
// Registered standalone, a sketch summarizes the stream it actually
// observes (the sampled stream L); the 1/p corrections back to the
// original stream live in internal/core's estimator wrappers. Specs
// arrive with the registry-wide defaults already applied.

func init() {
	estimator.Register(estimator.Kind{
		Tag: TagCountMin, Name: "countmin",
		Doc: "CountMin frequency sketch of the observed stream (width 2/eps, depth ln(1/0.01))",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewCountMinWithError(s.Epsilon, 0.01, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeCountMin),
	})
	estimator.Register(estimator.Kind{
		Tag: TagCountSketch, Name: "countsketch",
		Doc: "CountSketch signed frequency sketch with an F2 estimate (width 2/eps^2, depth 5)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			width := int(math.Ceil(2 / (s.Epsilon * s.Epsilon)))
			return estimator.Adapt(NewCountSketch(width, 5, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeCountSketch),
	})
	estimator.Register(estimator.Kind{
		Tag: TagKMV, Name: "kmv",
		Doc: "k-minimum-values distinct counter (k = 4/eps^2, exact below k)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewKMVWithError(s.Epsilon, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeKMV),
	})
	estimator.Register(estimator.Kind{
		Tag: TagHLL, Name: "hll",
		Doc: "HyperLogLog-family distinct counter (precision from eps, one byte per register)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			// Standard error is 1.04/sqrt(2^precision); size for eps.
			prec := uint(math.Ceil(2 * math.Log2(1.04/s.Epsilon)))
			if prec < 4 {
				prec = 4
			}
			if prec > 18 {
				prec = 18
			}
			return estimator.Adapt(NewHLL(prec, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeHLL),
	})
	estimator.Register(estimator.Kind{
		Tag: TagSpaceSaving, Name: "spacesaving",
		Doc: "SpaceSaving top-Budget counters with certified per-item error bounds",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewSpaceSaving(s.Budget)), nil
		},
		Decode: estimator.DecodeTyped(DecodeSpaceSaving),
	})
	estimator.Register(estimator.Kind{
		Tag: TagMisraGries, Name: "misragries",
		Doc: "Misra-Gries Budget-counter frequency summary (error N/(Budget+1))",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewMisraGries(s.Budget)), nil
		},
		Decode: estimator.DecodeTyped(DecodeMisraGries),
	})
	// TopK is decode-only: it rides inside heavy-hitter payloads, whose
	// estimators drive Update with sketch-backed scores. Standalone
	// Observe counting cannot admit late heavy items past a full heap,
	// so "topk" is not offered as a stream stat — spacesaving and
	// misragries are the constructible counting summaries.
	estimator.Register(estimator.Kind{
		Tag: TagTopK, Name: "topk",
		Doc:    "top-k candidate tracker (decode-only component of hh1/hh2 payloads)",
		Decode: estimator.DecodeTyped(DecodeTopK),
	})
}

// Estimates returns the sketch's named scalars: the observed element
// count (frequency point queries need a key and are not reported here).
func (cm *CountMin) Estimates() map[string]float64 {
	return map[string]float64{"n": float64(cm.n)}
}

// Estimates returns the observed element count and the F2 estimate of
// the observed stream.
func (cs *CountSketch) Estimates() map[string]float64 {
	return map[string]float64{"n": float64(cs.n), "f2": cs.F2Estimate()}
}

// Estimates returns the distinct-count estimate of the observed stream.
func (s *KMV) Estimates() map[string]float64 {
	return map[string]float64{"f0": s.Estimate()}
}

// Estimates returns the distinct-count estimate of the observed stream.
func (h *HLL) Estimates() map[string]float64 {
	return map[string]float64{"f0": h.Estimate()}
}

// Estimates returns the observed element count and how many items the
// summary currently tracks.
func (ss *SpaceSaving) Estimates() map[string]float64 {
	return map[string]float64{"n": float64(ss.n), "tracked": float64(len(ss.h.heap))}
}

// Estimates returns the observed element count and how many counters
// survive.
func (mg *MisraGries) Estimates() map[string]float64 {
	return map[string]float64{"n": float64(mg.n), "tracked": float64(len(mg.counters))}
}

// Estimates returns the tracked-entry count and the smallest tracked
// count (the admission threshold).
func (t *TopK) Estimates() map[string]float64 {
	return map[string]float64{"tracked": float64(t.Len()), "min_count": t.Min()}
}
