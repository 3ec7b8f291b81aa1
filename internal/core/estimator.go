package core

import (
	"fmt"

	"substream/internal/estimator"
	"substream/internal/rng"
)

// This file plugs the paper's estimator wrappers into the
// internal/estimator registry (tag range 0x20–0x2f). These are the kinds
// that report about the ORIGINAL stream P: each wraps a sampled-stream
// summary and applies the paper's 1/p corrections, so their Estimates are
// directly comparable to exact statistics of the unsampled traffic.

func init() {
	estimator.Register(estimator.Kind{
		Tag: TagFkEstimator, Name: "fk",
		Doc: "Algorithm 1: k-th frequency moment Fk(P) (level-set or exact collisions)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewFkEstimator(FkConfig{
				K: s.K, P: s.P, Epsilon: s.Epsilon, Budget: s.Budget, Exact: s.Exact,
			}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeFkEstimator),
	})
	estimator.Register(estimator.Kind{
		Tag: TagF0Estimator, Name: "f0",
		Doc: "Algorithm 2: distinct count F0(P) with the Lemma 8 bound (KMV backend)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewF0Estimator(F0Config{P: s.P}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeF0Estimator),
	})
	estimator.Register(estimator.Kind{
		Tag: TagEntropy, Name: "entropy",
		Doc: "Theorem 5: empirical entropy H(P), the plug-in over the frequencies of L",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewEntropyEstimator(EntropyConfig{P: s.P}, nil)), nil
		},
		Decode: estimator.DecodeTyped(DecodeEntropyEstimator),
	})
	estimator.Register(estimator.Kind{
		Tag: TagF1HeavyHitters, Name: "hh1",
		Doc: "Theorem 6: alpha-heavy hitters of F1(P) with deflated threshold",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewF1HeavyHitters(F1HHConfig{
				P: s.P, Alpha: s.Alpha, Epsilon: s.Epsilon,
			}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeF1HeavyHitters),
	})
	estimator.Register(estimator.Kind{
		Tag: TagF2HeavyHitters, Name: "hh2",
		Doc: "Theorem 7: alpha-heavy hitters of F2(P) over a CountSketch",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewF2HeavyHitters(F2HHConfig{
				P: s.P, Alpha: s.Alpha, Epsilon: s.Epsilon,
			}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeF2HeavyHitters),
	})
	estimator.Register(estimator.Kind{
		Tag: TagMonitor, Name: "all",
		Doc: "every estimator behind one Observe loop (n, Fk, F0, entropy, hitters)",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewMonitor(MonitorConfig{
				P: s.P, K: s.K, Epsilon: s.Epsilon, HHAlpha: s.Alpha,
			}, rng.New(s.Seed))), nil
		},
		Decode: estimator.DecodeTyped(DecodeMonitor),
	})
	estimator.Register(estimator.Kind{
		Tag: TagGEEF0Estimator, Name: "gee",
		Doc: "Guaranteed-Error Estimator baseline for F0(P) (space O(F0 of L))",
		New: func(s estimator.Spec) (estimator.Estimator, error) {
			return estimator.Adapt(NewGEEF0Estimator(s.P)), nil
		},
		Decode: estimator.DecodeTyped(DecodeGEEF0Estimator),
	})
}

// Estimates returns every moment estimate the single pass supports:
// phi_1 … phi_k as "f1" … "fk-th", plus the headline "fk" and the
// sampled length.
func (e *FkEstimator) Estimates() map[string]float64 {
	vals := map[string]float64{"sampled_length": float64(e.SampledLength())}
	phi := e.Moments()
	for l := 1; l <= e.k; l++ {
		vals[fmt.Sprintf("f%d", l)] = phi[l]
	}
	vals["fk"] = phi[e.k]
	return vals
}

// Estimates returns the F0(P) estimate, the backend's raw F0(L)
// estimate, and the Lemma 8 multiplicative bound.
func (e *F0Estimator) Estimates() map[string]float64 {
	return map[string]float64{
		"f0":          e.Estimate(),
		"f0_sampled":  e.SampledEstimate(),
		"error_bound": e.ErrorBound(),
	}
}

// Estimates returns the entropy estimate and the sampled length.
func (e *EntropyEstimator) Estimates() map[string]float64 {
	return map[string]float64{
		"entropy":        e.Estimate(),
		"sampled_length": float64(e.SampledLength()),
	}
}

// Estimates returns the GEE F0(P) estimate.
func (e *GEEF0Estimator) Estimates() map[string]float64 {
	return map[string]float64{"f0": e.Estimate()}
}

// Estimates returns the detected-hitter count; the hitters themselves
// are in EstimatorReport.
func (h *F1HeavyHitters) Estimates() map[string]float64 { return h.EstimatorReport().Values }

// EstimatorReport returns the hitter count plus the hitter list.
func (h *F1HeavyHitters) EstimatorReport() estimator.Report {
	hitters := h.Report()
	return estimator.Report{
		Values:    map[string]float64{"hitters": float64(len(hitters))},
		F1Hitters: hitters,
	}
}

// Estimates returns the detected-hitter count; the hitters themselves
// are in EstimatorReport.
func (h *F2HeavyHitters) Estimates() map[string]float64 { return h.EstimatorReport().Values }

// EstimatorReport returns the hitter count plus the hitter list.
func (h *F2HeavyHitters) EstimatorReport() estimator.Report {
	hitters := h.Report()
	return estimator.Report{
		Values:    map[string]float64{"hitters": float64(len(hitters))},
		F2Hitters: hitters,
	}
}

// Estimates returns the scalar estimates of the monitor's estimators.
func (m *Monitor) Estimates() map[string]float64 { return m.EstimatorReport().Values }

// EstimatorReport returns the full monitor report including both hitter
// lists.
func (m *Monitor) EstimatorReport() estimator.Report {
	rep := m.Report()
	return estimator.Report{
		Values: map[string]float64{
			"n":       rep.EstimatedLength,
			"fk":      rep.Fk,
			"f0":      rep.F0,
			"entropy": rep.Entropy,
		},
		F1Hitters: rep.F1HeavyHitters,
		F2Hitters: rep.F2HeavyHitters,
	}
}
