package experiments

import (
	"math"
	"sort"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/stats"
	"substream/internal/stream"
	"substream/internal/workload"
)

// e5EntropyImpossibility validates Lemma 9: no multiplicative entropy
// approximation is possible from L in general. Scenario 1 makes the
// sampled entropy collapse to ≈ 0 while H(f) > 0; Scenario 2 exhibits a
// persistent additive gap ≈ |lg(2p)|.
func e5EntropyImpossibility() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "entropy impossibility instances (Lemma 9)",
		Claim: "Lemma 9: no multiplicative approximation; scenarios 1 and 2",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(100000)
			trials := cfg.trials(30)

			t1 := stats.NewTable("E5a: scenario 1 (f₁ = n−k, k = 1/(10p) singletons)",
				"p", "H(f)", "mean Ĥ", "collapse rate", "predicted ≥", "reproduced")
			for _, p := range []float64{0.05, 0.02, 0.01} {
				wl := workload.EntropyScenario1(n, p)
				exact := stream.NewFreq(wl.Stream).Entropy()
				collapsed := 0
				var est stats.Summary
				for tr := 0; tr < trials; tr++ {
					e := core.NewEntropyEstimator(core.EntropyConfig{P: p}, r.Split())
					runSampled(wl.Stream, p, r.Split(), e)
					v := e.Estimate()
					est.Add(v)
					if v < exact/100 {
						collapsed++
					}
				}
				k := float64(int(1/(10*p)) + 1)
				predicted := math.Pow(1-p, k) // Pr[no singleton sampled]
				rate := float64(collapsed) / float64(trials)
				t1.AddRow(p, exact, est.Mean(), rate, predicted*0.5,
					verdict(rate >= predicted*0.5))
			}
			t1.AddNote("collapse = estimate below H(f)/100; Lemma 9 predicts rate ≈ (1−p)^k ≈ 0.9")

			t2 := stats.NewTable("E5b: scenario 2 (all m items once): additive gap",
				"p", "H(f) = lg m", "mean Ĥ ≈ lg(pm)", "gap", "|lg 2p|", "gap ≥ |lg 2p|−1")
			m := cfg.scaledN(1 << 16)
			wl2 := workload.EntropyScenario2(m)
			exact2 := stream.NewFreq(wl2.Stream).Entropy()
			for _, p := range []float64{0.25, 0.1, 0.05} {
				var est stats.Summary
				for tr := 0; tr < trials/3+1; tr++ {
					e := core.NewEntropyEstimator(core.EntropyConfig{P: p}, r.Split())
					runSampled(wl2.Stream, p, r.Split(), e)
					est.Add(e.Estimate())
				}
				gap := exact2 - est.Mean()
				want := math.Abs(math.Log2(2 * p))
				t2.AddRow(p, exact2, est.Mean(), gap, want, verdict(gap >= want-1))
			}
			return []*stats.Table{t1, t2}
		},
	}
}

// e6EntropyRatio validates Proposition 1 + Lemma 10 + Theorem 5: when
// H(f) is well above the additive floor p^(−1/2)·n^(−1/6), the sampled
// entropy (and H_pn) is a constant-factor — in practice near-exact —
// approximation of H(f).
func e6EntropyRatio() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "entropy constant-factor approximation (Theorem 5)",
		Claim: "Thm 5 / Lemma 10: constant-factor when H(f) = omega(p^-1/2 n^-1/6)",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(300000)
			m := 8192
			trials := cfg.trials(7)
			var tables []*stats.Table
			for _, s := range []float64{0.8, 1.0, 1.2, 1.5} {
				wl := workload.Zipf(n, m, s, r.Uint64())
				exact := stream.NewFreq(wl.Stream).Entropy()
				t := stats.NewTable("E6: "+wl.Name,
					"p", "floor", "H(f)", "mean Ĥ/H", "mean Hpn/H", "sketch Ĥ/H", "in [1/2,2]")
				for _, p := range []float64{0.5, 0.1, 0.02} {
					var plugin, hpn, sk stats.Summary
					for tr := 0; tr < trials; tr++ {
						pe := core.NewEntropyEstimator(core.EntropyConfig{P: p}, r.Split())
						se := newEntropySketch(7, 400, r.Split())
						runSampled(wl.Stream, p, r.Split(), pe, se)
						plugin.Add(pe.Estimate() / exact)
						hpn.Add(pe.EstimateHpn(uint64(n)) / exact)
						sk.Add(se.Estimate() / exact)
					}
					floor := math.Pow(p, -0.5) * math.Pow(float64(n), -1.0/6)
					ok := plugin.Mean() >= 0.5 && plugin.Mean() <= 2 &&
						hpn.Mean() >= 0.5 && hpn.Mean() <= 2
					t.AddRow(p, floor, exact, plugin.Mean(), hpn.Mean(), sk.Mean(), verdict(ok))
				}
				tables = append(tables, t)
			}
			return tables
		},
	}
}

// entropySketch is E6's small-space comparator: a one-pass multiplicative
// estimator of the empirical entropy H = Σ (f_i/n)·lg(n/f_i) in the style
// of Chakrabarti–Cormode–McGregor, the black box Theorem 5's space bound
// refers to. Each of several independent probes holds a uniformly random
// stream position J (maintained by reservoir sampling) together with R,
// the number of occurrences of a_J from position J to the end. The
// telescoping estimator
//
//	X = R·lg(n/R) − (R−1)·lg(n/(R−1))
//
// satisfies E[X] = H exactly; averaging within groups and taking the
// median across groups concentrates it. A probe's run length cannot be
// continued across a shard boundary, so it has no merge.
type entropySketch struct {
	groups   int
	perGroup int
	items    []stream.Item
	counts   []uint64
	n        uint64
	r        *rng.Xoshiro256
}

// newEntropySketch builds an estimator with groups×perGroup probes.
func newEntropySketch(groups, perGroup int, r *rng.Xoshiro256) *entropySketch {
	if groups < 1 || perGroup < 1 {
		panic("experiments: entropySketch groups and perGroup must be >= 1")
	}
	total := groups * perGroup
	return &entropySketch{
		groups:   groups,
		perGroup: perGroup,
		items:    make([]stream.Item, total),
		counts:   make([]uint64, total),
		r:        r,
	}
}

// Observe feeds one item.
func (e *entropySketch) Observe(it stream.Item) {
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
func (e *entropySketch) Estimate() float64 {
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
func (e *entropySketch) SpaceBytes() int { return 16 * len(e.items) }
