package experiments

import (
	"math"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stats"
	"substream/internal/stream"
	"substream/internal/workload"
)

// e11SamplerAblation is an extension beyond the paper: compare Bernoulli
// sampling (the paper's model) against the related-work schemes it
// surveys in §1.3 — deterministic 1-in-N and sample-and-hold — at equal
// expected sample size, on the tasks each was designed for. The expected
// shape: sample-and-hold wins on heavy-flow frequency estimation (its
// design goal), Bernoulli and 1-in-N behave near-identically for
// aggregates on this traffic model, and Bernoulli is the only one with
// the paper's clean per-element independence guarantees.
func e11SamplerAblation() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "extension: Bernoulli vs 1-in-N vs sample-and-hold",
		Claim: "Sec 1.3 survey: scheme choice matters per task; Bernoulli is the general-purpose model",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(400000)
			trials := cfg.trials(7)
			wl, _ := workload.NetFlow(n, n/40, 1.05, 1.3, 4, r.Uint64())
			f := stream.NewFreq(wl.Stream)
			top := f.TopK(10)

			t := stats.NewTable("E11: heavy-flow frequency estimation, equal expected sample size — "+wl.Name,
				"p", "bernoulli relerr", "1-in-N relerr", "sample&hold relerr")
			for _, p := range []float64{0.1, 0.02} {
				var bErr, dErr, shErr stats.Summary
				for tr := 0; tr < trials; tr++ {
					// Bernoulli: scaled sampled counts.
					L := sample.NewBernoulli(p).Apply(wl.Stream, r.Split())
					g := stream.NewFreq(L)
					// Deterministic 1-in-N.
					D := newOneInN(int(1 / p)).Apply(wl.Stream)
					gd := stream.NewFreq(D)
					// Sample-and-hold at the same per-packet rate.
					sh := newSampleAndHold(p, r.Split())
					_ = wl.Stream.ForEach(func(it stream.Item) error {
						sh.Observe(it)
						return nil
					})
					for _, hh := range top {
						truth := float64(hh.Freq)
						bErr.Add(stats.RelErr(float64(g[hh.Item])/p, truth))
						dErr.Add(stats.RelErr(float64(gd[hh.Item])/p, truth))
						shErr.Add(stats.RelErr(sh.EstimateFreq(hh.Item), truth))
					}
				}
				t.AddRow(p, bErr.Mean(), dErr.Mean(), shErr.Mean())
			}
			t.AddNote("top-10 flows; sample-and-hold counts exactly after admission, hence its edge")
			t.AddNote("informational ablation — no paper claim attached")
			return []*stats.Table{t}
		},
	}
}

// oneInN is deterministic systematic sampling, E11's 1-in-N arm: it keeps
// every n-th element, the non-random variant of sampled NetFlow.
type oneInN struct {
	n int
}

// newOneInN returns a 1-in-N sampler; it panics if n < 1.
func newOneInN(n int) oneInN {
	if n < 1 {
		panic("experiments: oneInN requires n >= 1")
	}
	return oneInN{n: n}
}

// Apply materializes the systematic sample: positions n−1, 2n−1, …
func (o oneInN) Apply(s stream.Stream) stream.Slice {
	var out stream.Slice
	pos := 0
	_ = s.ForEach(func(it stream.Item) error {
		pos++
		if pos%o.n == 0 {
			out = append(out, it)
		}
		return nil
	})
	return out
}

// sampleAndHold is Estan–Varghese sample-and-hold, E11's third arm: once
// any packet of a flow is sampled (with probability p per packet), every
// subsequent packet of that flow is counted exactly. Its table of held
// flows is unbounded.
type sampleAndHold struct {
	p      float64
	counts map[stream.Item]uint64
	r      *rng.Xoshiro256
}

// newSampleAndHold returns a sample-and-hold monitor with per-packet
// admission probability p.
func newSampleAndHold(p float64, r *rng.Xoshiro256) *sampleAndHold {
	if p <= 0 || p > 1 {
		panic("experiments: sampleAndHold probability must be in (0, 1]")
	}
	return &sampleAndHold{p: p, counts: make(map[stream.Item]uint64), r: r}
}

// Observe feeds one packet.
func (sh *sampleAndHold) Observe(it stream.Item) {
	if c, held := sh.counts[it]; held {
		sh.counts[it] = c + 1
		return
	}
	if sh.r.Float64() < sh.p {
		sh.counts[it] = 1
	}
}

// EstimateFreq returns the standard sample-and-hold frequency estimate for
// a held flow: observed count plus the expected 1/p − 1 packets missed
// before admission. Returns 0 for flows not held.
func (sh *sampleAndHold) EstimateFreq(it stream.Item) float64 {
	c, held := sh.counts[it]
	if !held {
		return 0
	}
	return float64(c) + 1/sh.p - 1
}

// e12AdaptiveP probes the paper's concluding open question: if the
// algorithm may lower the sampling probability mid-stream (load
// shedding), do Horvitz–Thompson phase corrections preserve unbiased
// F₁/F₂ estimates at the same expected sample size as a fixed-p run?
func e12AdaptiveP() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "extension: adaptive sampling probability (open question 2)",
		Claim: "Conclusion: adaptivity with per-phase corrections keeps estimates unbiased",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(200000)
			// Bias detection needs samples regardless of the requested
			// speed; keep a floor under the trial count.
			trials := cfg.trials(60)
			if trials < 40 {
				trials = 40
			}
			wl := workload.Zipf(n, n/20, 1.0, r.Uint64())
			f := stream.NewFreq(wl.Stream)
			exactF1, exactF2 := float64(f.F1()), f.Fk(2)

			// Fixed p = 0.15 vs phased (0.25 then 0.05): equal expected
			// sample size when the boundary is mid-stream.
			const pFixed = 0.15
			adaptive := sample.NewAdaptiveBernoulli([]int{n / 2}, []float64{0.25, 0.05})

			t := stats.NewTable("E12: fixed p vs adaptive phases, equal expected |L| — "+wl.Name,
				"scheme", "eff. rate", "F1 bias", "F2 bias", "F2 relerr (mean)", "unbiased")
			var fixF1, fixF2, adF1, adF2, fixErr, adErr stats.Summary
			for tr := 0; tr < trials; tr++ {
				e := core.NewFkEstimator(core.FkConfig{K: 2, P: pFixed, Exact: true}, r.Split())
				runSampled(wl.Stream, pFixed, r.Split(), e)
				phi := e.Moments()
				fixF1.Add(phi[1])
				fixF2.Add(phi[2])
				fixErr.Add(stats.RelErr(phi[2], exactF2))

				tagged := adaptive.Apply(stream.Collect(wl.Stream), r.Split())
				adF1.Add(adaptive.EstimateF1(tagged))
				v2 := adaptive.EstimateF2(tagged)
				adF2.Add(v2)
				adErr.Add(stats.RelErr(v2, exactF2))
			}
			fixBias1 := (fixF1.Mean() - exactF1) / exactF1
			fixBias2 := (fixF2.Mean() - exactF2) / exactF2
			adBias1 := (adF1.Mean() - exactF1) / exactF1
			adBias2 := (adF2.Mean() - exactF2) / exactF2
			// An unbiased estimator's measured bias sits within a few
			// standard errors of zero; tolerate 4 (plus a small absolute
			// floor for float noise).
			tol := func(s *stats.Summary, exact float64) float64 {
				se := s.StdDev() / math.Sqrt(float64(s.N())) / exact
				return math.Max(0.005, 4*se)
			}
			t.AddRow("fixed p=0.15", pFixed, fixBias1, fixBias2, fixErr.Mean(),
				verdict(math.Abs(fixBias1) < tol(&fixF1, exactF1) && math.Abs(fixBias2) < tol(&fixF2, exactF2)))
			t.AddRow("adaptive 0.25→0.05", adaptive.EffectiveRate(n), adBias1, adBias2, adErr.Mean(),
				verdict(math.Abs(adBias1) < tol(&adF1, exactF1) && math.Abs(adBias2) < tol(&adF2, exactF2)))
			t.AddNote("bias = (mean estimate − exact)/exact over %d trials; both should be ≈ 0", trials)
			t.AddNote("the adaptive scheme trades higher late-stream variance for early coverage")
			return []*stats.Table{t}
		},
	}
}
