package experiments

import (
	"math"
	"strconv"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stats"
	"substream/internal/stream"
	"substream/internal/workload"
)

// e3F0LowerBound validates Theorem 4 (via Charikar et al.'s Theorem 3):
// on the adversarial instance, every estimator observing L — including
// Algorithm 2 and GEE — suffers multiplicative error Ω(1/√p) on at least
// one branch of the instance.
func e3F0LowerBound() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "F₀ lower bound on the adversarial instance",
		Claim: "Theorem 4: multiplicative error Omega(1/sqrt(p)) is unavoidable",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(100000)
			d := int(math.Sqrt(float64(n))) // duplicated branch: d distinct values
			trials := cfg.trials(12)
			t := stats.NewTable("E3: adversarial F₀ (n vs d="+strconv.Itoa(d)+" distinct), worst branch",
				"p", "floor √(ln2/12p)", "Alg2 worst mult", "GEE worst mult", "naive worst mult", "floor respected")
			for _, p := range []float64{1.0 / 12, 0.05, 0.02, 0.01} {
				var algWorst, geeWorst, naiveWorst float64 = 1, 1, 1
				for tr := 0; tr < trials; tr++ {
					wl, _ := workload.F0Adversarial(n, d, r.Uint64())
					exact := float64(stream.NewFreq(wl.Stream).F0())
					alg := core.NewF0Estimator(core.F0Config{P: p}, r.Split())
					gee := core.NewGEEF0Estimator(p)
					naive := newNaiveF0(p, 1024, r.Split())
					runSampled(wl.Stream, p, r.Split(), alg, gee, naive)
					algWorst = math.Max(algWorst, stats.MultErr(alg.Estimate(), exact))
					geeWorst = math.Max(geeWorst, stats.MultErr(gee.Estimate(), exact))
					naiveWorst = math.Max(naiveWorst, stats.MultErr(naive.Estimate(), exact))
				}
				floor := core.F0LowerBoundError(p)
				// The lower bound says SOME estimator input forces error
				// ≥ floor; our estimators' worst-case over the two
				// branches should sit at or above a constant fraction of
				// it (they cannot beat the bound).
				t.AddRow(p, floor, algWorst, geeWorst, naiveWorst,
					verdict(geeWorst >= floor/4))
			}
			t.AddNote("worst-case over both instance branches and %d trials; no estimator beats the floor", trials)
			return []*stats.Table{t}
		},
	}
}

// e4F0UpperBound validates Lemma 8 (Algorithm 2): the multiplicative
// error stays within 4/√p with high probability across workloads.
func e4F0UpperBound() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "F₀ upper bound: Algorithm 2 within 4/√p",
		Claim: "Lemma 8: multiplicative error <= 4/sqrt(p) w.h.p.",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(200000)
			trials := cfg.trials(9)
			var tables []*stats.Table
			for _, wl := range []workload.Workload{
				workload.AllDistinct(n),
				workload.Zipf(n, n/8, 1.0, r.Uint64()),
				workload.ConstantFreq(n/50, 50, r.Uint64()),
			} {
				exact := float64(stream.NewFreq(wl.Stream).F0())
				t := stats.NewTable("E4: "+wl.Name,
					"p", "bound 4/√p", "mean mult", "max mult", "GEE mean mult", "within bound")
				for _, p := range []float64{0.5, 0.2, 0.1, 0.05, 0.02} {
					var alg, gee stats.Summary
					for tr := 0; tr < trials; tr++ {
						a := core.NewF0Estimator(core.F0Config{P: p}, r.Split())
						g := core.NewGEEF0Estimator(p)
						runSampled(wl.Stream, p, r.Split(), a, g)
						alg.Add(stats.MultErr(a.Estimate(), exact))
						gee.Add(stats.MultErr(g.Estimate(), exact))
					}
					bound := 4 / math.Sqrt(p)
					t.AddRow(p, bound, alg.Mean(), alg.Max(), gee.Mean(), verdict(alg.Max() <= bound))
				}
				tables = append(tables, t)
			}
			return tables
		},
	}
}

// naiveF0 is E3's strawman distinct counter: F₀(L)/p. Charikar et al.'s
// lower bound (Theorem 3) shows as this estimator blowing up on
// duplicate-heavy streams, where F₀(L) ≈ F₀(P).
type naiveF0 struct {
	p   float64
	kmv *sketch.KMV
}

// newNaiveF0 builds the strawman over a KMV sketch of size k.
func newNaiveF0(p float64, k int, r *rng.Xoshiro256) *naiveF0 {
	if p <= 0 || p > 1 {
		panic("experiments: naiveF0 P must be in (0, 1]")
	}
	return &naiveF0{p: p, kmv: sketch.NewKMV(k, r)}
}

// Observe feeds one element of the sampled stream L.
func (e *naiveF0) Observe(it stream.Item) { e.kmv.Observe(it) }

// Estimate returns F̂₀(L)/p.
func (e *naiveF0) Estimate() float64 { return e.kmv.Estimate() / e.p }
