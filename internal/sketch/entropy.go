package sketch

import (
	"math"
	"sort"

	"substream/internal/rng"
	"substream/internal/stream"
)

// EntropyEstimator is a one-pass multiplicative estimator of the
// empirical entropy H = Σ (f_i/n)·lg(n/f_i), in the style of
// Chakrabarti–Cormode–McGregor: each of several independent probes holds
// a uniformly random stream position J (maintained by reservoir sampling)
// together with R, the number of occurrences of a_J from position J to
// the end. The telescoping estimator
//
//	X = R·lg(n/R) − (R−1)·lg(n/(R−1))
//
// satisfies E[X] = H exactly; averaging within groups and taking the
// median across groups concentrates it. Theorem 5 uses this as the
// black-box multiplicative entropy estimator run on the sampled stream.
type EntropyEstimator struct {
	groups   int
	perGroup int
	items    []stream.Item
	counts   []uint64
	n        uint64
	r        *rng.Xoshiro256
}

// NewEntropyEstimator builds an estimator with groups×perGroup probes.
func NewEntropyEstimator(groups, perGroup int, r *rng.Xoshiro256) *EntropyEstimator {
	if groups < 1 || perGroup < 1 {
		panic("sketch: EntropyEstimator groups and perGroup must be >= 1")
	}
	total := groups * perGroup
	return &EntropyEstimator{
		groups:   groups,
		perGroup: perGroup,
		items:    make([]stream.Item, total),
		counts:   make([]uint64, total),
		r:        r,
	}
}

// Observe feeds one item.
func (e *EntropyEstimator) Observe(it stream.Item) {
	e.n++
	for probe := range e.items {
		// Reservoir step: the current position replaces the probe with
		// probability 1/n, giving a uniform position overall.
		if e.r.Uint64n(e.n) == 0 {
			e.items[probe] = it
			e.counts[probe] = 1
		} else if e.items[probe] == it && e.counts[probe] > 0 {
			e.counts[probe]++
		}
	}
}

// Estimate returns the entropy estimate in bits; 0 for an empty stream.
func (e *EntropyEstimator) Estimate() float64 {
	if e.n == 0 {
		return 0
	}
	n := float64(e.n)
	means := make([]float64, e.groups)
	for g := 0; g < e.groups; g++ {
		var sum float64
		for j := 0; j < e.perGroup; j++ {
			r := float64(e.counts[g*e.perGroup+j])
			x := r * math.Log2(n/r)
			if r > 1 {
				x -= (r - 1) * math.Log2(n/(r-1))
			}
			sum += x
		}
		means[g] = sum / float64(e.perGroup)
	}
	sort.Float64s(means)
	mid := e.groups / 2
	var est float64
	if e.groups%2 == 1 {
		est = means[mid]
	} else {
		est = (means[mid-1] + means[mid]) / 2
	}
	if est < 0 {
		return 0
	}
	return est
}

// SpaceBytes returns the approximate memory footprint.
func (e *EntropyEstimator) SpaceBytes() int { return 16 * len(e.items) }
