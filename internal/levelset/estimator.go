package levelset

import (
	"substream/internal/estimator"
	"substream/internal/rng"
)

// This file plugs the package's collision counters into the
// internal/estimator registry (tag range 0x10–0x1f). Standalone they
// summarize the stream they observe; as components of internal/core's
// FkEstimator they ride inside its payload through the same registry
// decode path (see DecodeCollisionCounter in marshal.go).

func init() {
	estimator.Register(estimator.Kind{
		Tag: TagExactCounter, Name: "exactcounter",
		Doc: "exact collision/frequency counter (space O(F0) of the observed stream)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewExactCounter()), nil
		},
		Decode: estimator.DecodeTyped(DecodeExactCounter),
	})
	estimator.Register(estimator.Kind{
		Tag: TagEstimator, Name: "levelset",
		Doc: "level-set collision estimator (paper Sec 3.1; Budget-bounded space)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(New(Config{EpsPrime: s.Epsilon, Budget: s.Budget}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeEstimator),
	})
	estimator.Register(estimator.Kind{
		Tag: TagIWEstimator, Name: "iw",
		Doc: "Indyk-Woodruff level-set collision estimator (CountSketch per level)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewIW(IWConfig{EpsPrime: s.Epsilon}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeIWEstimator),
	})
}

// Estimates returns the exact observed length, distinct count, and pair
// collision count.
func (c *ExactCounter) Estimates() map[string]float64 {
	return map[string]float64{
		"n":  float64(c.counts.N()),
		"f0": float64(c.counts.Len()),
		"c2": c.EstimateCollisions(2),
	}
}

// Estimates returns the estimated pair collision count of the observed
// stream.
func (e *Estimator) Estimates() map[string]float64 {
	return map[string]float64{"c2": e.EstimateCollisions(2)}
}

// Estimates returns the observed length and the estimated pair collision
// count.
func (e *IWEstimator) Estimates() map[string]float64 {
	return map[string]float64{"n": float64(e.nL), "c2": e.EstimateCollisions(2)}
}
