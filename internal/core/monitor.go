package core

import (
	"substream/internal/rng"
	"substream/internal/stream"
)

// Monitor bundles the paper's five estimators behind a single Observe
// loop — the shape a sampled-NetFlow collector actually takes: one pass
// over the exported (sampled) packet stream, every statistic of the
// original traffic available at the end.
type Monitor struct {
	p       float64
	fk      *FkEstimator
	f0      *F0Estimator
	entropy *EntropyEstimator
	hh1     *F1HeavyHitters
	hh2     *F2HeavyHitters
	nL      uint64
}

// MonitorConfig configures a Monitor. Zero-valued fields use defaults.
type MonitorConfig struct {
	// P is the Bernoulli sampling probability of the observed stream.
	P float64
	// K is the moment order tracked by the Fk estimator. Default 2.
	K int
	// Epsilon is the shared target relative error. Default 0.2.
	Epsilon float64
	// HHAlpha is the heavy-hitter threshold for both hitters. Default 0.01.
	HHAlpha float64
}

// NewMonitor builds a Monitor. It panics on an invalid P, like the
// individual constructors.
func NewMonitor(cfg MonitorConfig, r *rng.Xoshiro256) *Monitor {
	if cfg.P <= 0 || cfg.P > 1 {
		panic("core: Monitor P must be in (0, 1]")
	}
	k := cfg.K
	if k == 0 {
		k = 2
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.2
	}
	alpha := cfg.HHAlpha
	if alpha == 0 {
		alpha = 0.01
	}
	// F₂ heaviness is measured against √F₂ rather than F₁, so the same
	// intent needs a larger α; clamp the heuristic into range.
	alpha2 := min(alpha*10, 0.9)
	// The parts draw their generators from r in field order (fk, f0,
	// entropy, hh1, hh2); a seeded Monitor's bytes depend on that order.
	return &Monitor{
		p:       cfg.P,
		fk:      NewFkEstimator(FkConfig{K: k, P: cfg.P, Epsilon: eps}, r.Split()),
		f0:      NewF0Estimator(F0Config{P: cfg.P}, r.Split()),
		entropy: NewEntropyEstimator(EntropyConfig{P: cfg.P}, r.Split()),
		hh1:     NewF1HeavyHitters(F1HHConfig{P: cfg.P, Alpha: alpha, Epsilon: eps}, r.Split()),
		hh2:     NewF2HeavyHitters(F2HHConfig{P: cfg.P, Alpha: alpha2, Epsilon: eps}, r.Split()),
	}
}

// Observe feeds one element of the sampled stream to every estimator.
func (m *Monitor) Observe(it stream.Item) {
	m.nL++
	m.fk.Observe(it)
	m.f0.Observe(it)
	m.entropy.Observe(it)
	m.hh1.Observe(it)
	m.hh2.Observe(it)
}

// Report summarizes every estimator of a Monitor.
type Report struct {
	// SampledLength is F1(L), the number of observed elements.
	SampledLength uint64
	// EstimatedLength is the estimate of n = F1(P).
	EstimatedLength float64
	// Fk is the estimate of the configured moment.
	Fk float64
	// F0 is the distinct-count estimate.
	F0 float64
	// Entropy is the entropy estimate in bits.
	Entropy float64
	// F1HeavyHitters and F2HeavyHitters list detected hitters.
	F1HeavyHitters []ReportedHitter
	F2HeavyHitters []ReportedHitter
}

// Report produces the point-in-time summary.
func (m *Monitor) Report() Report {
	return Report{
		SampledLength:   m.nL,
		EstimatedLength: float64(m.nL) / m.p,
		Fk:              m.fk.Estimate(),
		F0:              m.f0.Estimate(),
		Entropy:         m.entropy.Estimate(),
		F1HeavyHitters:  m.hh1.Report(),
		F2HeavyHitters:  m.hh2.Report(),
	}
}

// SpaceBytes returns the combined approximate footprint of the
// estimators.
func (m *Monitor) SpaceBytes() int {
	return 16 + m.fk.SpaceBytes() + m.f0.SpaceBytes() + m.entropy.SpaceBytes() +
		m.hh1.SpaceBytes() + m.hh2.SpaceBytes()
}
