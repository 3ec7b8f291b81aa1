// Package sample implements stream samplers. The Bernoulli sampler is the
// paper's model (§1.1, "randomly sampled NetFlow"): each element of the
// original stream P survives into the sampled stream L independently with
// probability p. The package also implements phase-adaptive Bernoulli,
// which experiment E12 contrasts it with, and VarOpt-k, the daemon's
// weighted summary. (E11's 1-in-N and sample-and-hold samplers live beside
// E11 in internal/experiments.)
package sample

import (
	"substream/internal/rng"
	"substream/internal/stream"
)

// Bernoulli subsamples a stream: each item is kept independently with
// probability P. It is the sampling process the paper's estimators assume,
// and the only one whose output the core estimators consume.
type Bernoulli struct {
	// P is the sampling probability, in (0, 1].
	P float64
}

// NewBernoulli returns a Bernoulli sampler with probability p. It panics
// unless 0 < p ≤ 1 — a zero-probability sampler produces no information
// and always indicates a configuration bug.
func NewBernoulli(p float64) Bernoulli {
	if p <= 0 || p > 1 {
		panic("sample: Bernoulli probability must be in (0, 1]")
	}
	return Bernoulli{P: p}
}

// Apply materializes the sampled stream L for original stream s, drawing
// the per-element coin flips from r. Repeated calls with independent
// generators yield independent samples, which is how the experiment
// harness runs multiple trials over one workload.
func (b Bernoulli) Apply(s stream.Stream, r *rng.Xoshiro256) stream.Slice {
	out := make(stream.Slice, 0, int(float64(s.Len())*b.P)+16)
	_ = s.ForEach(func(it stream.Item) error {
		if b.P >= 1 || r.Float64() < b.P {
			out = append(out, it)
		}
		return nil
	})
	return out
}

// Pipe streams the sampled elements of s into sink without materializing
// L, for workloads too large to hold in memory. The sink's error aborts
// the pass.
func (b Bernoulli) Pipe(s stream.Stream, r *rng.Xoshiro256, sink func(stream.Item) error) error {
	return s.ForEach(func(it stream.Item) error {
		if b.P >= 1 || r.Float64() < b.P {
			return sink(it)
		}
		return nil
	})
}

// ExpectedLen returns the expected length of L for an original stream of
// length n, i.e. p·n.
func (b Bernoulli) ExpectedLen(n int) float64 { return b.P * float64(n) }

// AdaptiveBernoulli is the extension the paper's conclusion poses as an
// open question: the sampling probability may be lowered as the stream
// progresses (e.g. when a monitor sheds load). Each phase i samples with
// probability p_i; the sampler records, for every sampled item, the phase
// it was sampled in, so estimators can apply per-phase corrections
// (Horvitz–Thompson weights 1/p_i).
type AdaptiveBernoulli struct {
	// Boundaries[i] is the first stream position (0-based) of phase i+1;
	// phase 0 starts at position 0. Must be strictly increasing.
	Boundaries []int
	// Probs[i] is the sampling probability of phase i;
	// len(Probs) == len(Boundaries)+1.
	Probs []float64
}

// NewAdaptiveBernoulli builds a phased sampler. It panics on malformed
// arguments: probabilities out of (0,1], a boundary list that is not
// strictly increasing, or a length mismatch.
func NewAdaptiveBernoulli(boundaries []int, probs []float64) AdaptiveBernoulli {
	if len(probs) != len(boundaries)+1 {
		panic("sample: AdaptiveBernoulli needs len(probs) == len(boundaries)+1")
	}
	for _, p := range probs {
		if p <= 0 || p > 1 {
			panic("sample: AdaptiveBernoulli probability must be in (0, 1]")
		}
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic("sample: AdaptiveBernoulli boundaries must be strictly increasing")
		}
	}
	return AdaptiveBernoulli{Boundaries: boundaries, Probs: probs}
}

// PhasedItem is a sampled item tagged with the phase it survived.
type PhasedItem struct {
	Item  stream.Item
	Phase int
}

// Apply materializes the phase-tagged sample of s.
func (a AdaptiveBernoulli) Apply(s stream.Stream, r *rng.Xoshiro256) []PhasedItem {
	var out []PhasedItem
	pos, phase := 0, 0
	_ = s.ForEach(func(it stream.Item) error {
		for phase < len(a.Boundaries) && pos >= a.Boundaries[phase] {
			phase++
		}
		if r.Float64() < a.Probs[phase] {
			out = append(out, PhasedItem{Item: it, Phase: phase})
		}
		pos++
		return nil
	})
	return out
}

// EstimateF1 returns the Horvitz–Thompson estimate of the original stream
// length from a phase-tagged sample: Σ 1/p_phase.
func (a AdaptiveBernoulli) EstimateF1(sampled []PhasedItem) float64 {
	var est float64
	for _, it := range sampled {
		est += 1 / a.Probs[it.Phase]
	}
	return est
}

// EstimateF2 returns an unbiased estimate of F2(P) from a phase-tagged
// sample, generalizing the collision inversion E[C2 within phase i] =
// p_i² C2 and cross-phase pair survival p_i·p_j. Concretely it computes,
// per item, the Horvitz–Thompson estimate of f_i² from the phase counts:
// f̂_i² = Σ_a c_a(c_a−1)/p_a² + Σ_{a≠b} c_a c_b/(p_a p_b) + Σ_a c_a/p_a,
// using pair-survival probabilities, then sums over items.
func (a AdaptiveBernoulli) EstimateF2(sampled []PhasedItem) float64 {
	// counts[item][phase]
	counts := make(map[stream.Item][]float64)
	nPhases := len(a.Probs)
	for _, it := range sampled {
		c := counts[it.Item]
		if c == nil {
			c = make([]float64, nPhases)
			counts[it.Item] = c
		}
		c[it.Phase]++
	}
	var est float64
	for _, c := range counts {
		// Unbiased f̂ = Σ c_a/p_a; unbiased f̂² uses pair terms.
		var linear, pairs float64
		for ph, ca := range c {
			pa := a.Probs[ph]
			linear += ca / pa
			pairs += ca * (ca - 1) / (pa * pa)
			for ph2 := ph + 1; ph2 < nPhases; ph2++ {
				pairs += 2 * ca * c[ph2] / (pa * a.Probs[ph2])
			}
		}
		est += pairs + linear
	}
	return est
}

// EffectiveRate returns the average sampling probability over a stream of
// length n, i.e. the expected |L|/n.
func (a AdaptiveBernoulli) EffectiveRate(n int) float64 {
	if n == 0 {
		return 0
	}
	var total float64
	prev := 0
	for i, b := range a.Boundaries {
		if b > n {
			b = n
		}
		total += float64(b-prev) * a.Probs[i]
		prev = b
	}
	if prev < n {
		total += float64(n-prev) * a.Probs[len(a.Probs)-1]
	}
	return total / float64(n)
}
