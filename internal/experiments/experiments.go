// Package experiments defines the reproduction harness: one registered
// experiment per quantitative claim of the paper (the table in README.md
// here maps each to its theorem). Every experiment produces plain-text
// tables; the same runners back cmd/experiments and the repository-level
// benchmarks, so the printed numbers and what the benches measure cannot
// drift apart. The comparators the experiments measure the paper's
// estimators against live here too, beside the experiment that uses
// each: none of them merges or has a wire form, so none is served.
//
// The paper is a theory paper with no measured tables of its own; each
// experiment therefore states the theoretical prediction it validates and
// reports whether the measured shape matches.
package experiments

import (
	"fmt"
	"sort"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stats"
	"substream/internal/stream"
)

// Config controls experiment scale; the defaults run the full-scale
// tables in a few minutes on a laptop.
type Config struct {
	// Scale multiplies workload sizes; 1.0 is the full run, benches and
	// unit tests use smaller values. Values ≤ 0 mean 1.0.
	Scale float64
	// Trials is the number of independent sampling trials per cell;
	// 0 means the per-experiment default.
	Trials int
	// Seed is the master seed; all randomness derives from it.
	Seed uint64
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// scaledN shrinks a full-scale workload size, keeping a floor so tiny
// scales still exercise the code meaningfully.
func (c Config) scaledN(full int) int {
	n := int(float64(full) * c.scale())
	if n < 2000 {
		n = 2000
	}
	return n
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

func (c Config) rng() *rng.Xoshiro256 {
	seed := c.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	return rng.New(seed)
}

// Experiment is one registered reproduction.
type Experiment struct {
	// ID is the experiment identifier (E1…E12).
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the theorem/lemma being validated.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) []*stats.Table
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		e1MomentAccuracy(),
		e2TimeSpace(),
		e3F0LowerBound(),
		e4F0UpperBound(),
		e5EntropyImpossibility(),
		e6EntropyRatio(),
		e7F1HeavyHitters(),
		e8F2HeavyHitters(),
		e9F2VsScaling(),
		e10LevelSetAblation(),
		e11SamplerAblation(),
		e12AdaptiveP(),
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// observer is anything that consumes the sampled stream one item at a
// time — every estimator in internal/core satisfies it.
type observer interface {
	Observe(it stream.Item)
}

// runSampled Bernoulli-samples s with probability p and feeds the sampled
// stream to every observer in one pass.
func runSampled(s stream.Stream, p float64, r *rng.Xoshiro256, obs ...observer) int {
	b := sample.NewBernoulli(p)
	count := 0
	_ = b.Pipe(s, r, func(it stream.Item) error {
		count++
		for _, o := range obs {
			o.Observe(it)
		}
		return nil
	})
	return count
}

// verdict turns a pass/fail into the table cell used across experiments.
func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
