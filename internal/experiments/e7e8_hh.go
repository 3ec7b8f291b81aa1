package experiments

import (
	"math"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/stats"
	"substream/internal/stream"
	"substream/internal/workload"
)

// hhTruth returns the ground-truth Fk-heavy-hitter id sets at the
// inclusion threshold α and the exclusion line (1−ε)·α.
func hhTruth(f stream.Freq, k int, alpha, eps float64) (include, grayzone map[uint64]bool) {
	include = make(map[uint64]bool)
	grayzone = make(map[uint64]bool)
	threshold := alpha * math.Pow(f.Fk(k), 1/float64(k))
	for it, c := range f {
		if float64(c) >= threshold {
			include[uint64(it)] = true
		} else if float64(c) >= (1-eps)*threshold {
			grayzone[uint64(it)] = true
		}
	}
	return include, grayzone
}

// hhScore runs one heavy-hitter trial and scores recall of the must-set,
// false positives below the exclusion line, and worst frequency error on
// the must-set.
func hhScore(rep []core.ReportedHitter, f stream.Freq, include, grayzone map[uint64]bool) (recall float64, falsePos int, worstFreqErr float64) {
	reported := make(map[uint64]float64, len(rep))
	for _, h := range rep {
		reported[uint64(h.Item)] = h.Freq
	}
	found := 0
	for it := range include {
		est, ok := reported[it]
		if !ok {
			continue
		}
		found++
		truth := float64(f[stream.Item(it)])
		if e := stats.RelErr(est, truth); e > worstFreqErr {
			worstFreqErr = e
		}
	}
	if len(include) > 0 {
		recall = float64(found) / float64(len(include))
	} else {
		recall = 1
	}
	for it := range reported {
		if !include[it] && !grayzone[it] {
			falsePos++
		}
	}
	return recall, falsePos, worstFreqErr
}

// e7F1HeavyHitters validates Theorem 6 for both backends.
func e7F1HeavyHitters() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "F₁ heavy hitters from L (Theorem 6)",
		Claim: "Thm 6: recall=1, no item below (1-eps)alpha*F1, (1±eps) freqs",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(300000)
			const alpha, eps = 0.02, 0.2
			wl := workload.PlantedHH(n, 6, int(alpha*float64(n)*1.5), n/4, r.Uint64())
			f := stream.NewFreq(wl.Stream)
			include, gray := hhTruth(f, 1, alpha, eps)
			trials := cfg.trials(7)

			var tables []*stats.Table
			ps := []float64{0.5, 0.2, 0.1, 0.05}
			// Theorem 6's premise does not depend on the sampled-stream
			// algorithm: the CountMin arm runs first and reads it off
			// core, and both tables print it.
			premises := make([]float64, len(ps))
			for _, backend := range []struct {
				name  string
				build func(p float64, r *rng.Xoshiro256) f1HeavyHitters
			}{
				{"CountMin", func(p float64, r *rng.Xoshiro256) f1HeavyHitters {
					return core.NewF1HeavyHitters(core.F1HHConfig{P: p, Alpha: alpha, Epsilon: eps}, r)
				}},
				// Misra–Gries draws nothing; the split keeps both arms'
				// trials on the same generator schedule.
				{"MisraGries", func(p float64, _ *rng.Xoshiro256) f1HeavyHitters {
					return newMGHeavyHitters(p, alpha, eps)
				}},
			} {
				t := stats.NewTable("E7: "+wl.Name+" backend="+backend.name,
					"p", "premise F1≥", "recall", "false pos", "worst freq err", "thm holds")
				for i, p := range ps {
					var rec, fe stats.Summary
					fp := 0
					for tr := 0; tr < trials; tr++ {
						hh := backend.build(p, r.Split())
						runSampled(wl.Stream, p, r.Split(), hh)
						if cm, ok := hh.(*core.F1HeavyHitters); ok {
							premises[i] = cm.MinStreamLength(uint64(n), 0.05)
						}
						recall, falsePos, freqErr := hhScore(hh.Report(), f, include, gray)
						rec.Add(recall)
						fe.Add(freqErr)
						fp += falsePos
					}
					ok := rec.Min() == 1 && fp == 0 && fe.Max() <= eps
					t.AddRow(p, premises[i], rec.Mean(), fp, fe.Max(),
						verdict(ok || float64(n) < premises[i]))
				}
				t.AddNote("%d planted hitters at %.1f%% each; trials=%d", 6, alpha*150, trials)
				tables = append(tables, t)
			}
			return tables
		},
	}
}

// f1HeavyHitters is what E7 reads off either arm.
type f1HeavyHitters interface {
	observer
	Report() []core.ReportedHitter
}

// mgHeavyHitters is E7's second arm: Theorem 6's recipe run on
// Misra–Gries, the insert-only alternative to CountMin the paper notes.
// It keeps core.F1HeavyHitters' deflated threshold α′ = (1 − 2ε/5)·α and
// sizes the summary so its undercount N/(k+1) is at most (ε/20)·α′·N.
// Misra–Gries lists its own counters, so it needs no candidate tracker:
// an item whose count clears the threshold holds a counter. It is
// deterministic and has no merge.
type mgHeavyHitters struct {
	p, alphaPr float64
	mg         *misraGries
	observed   uint64
}

func newMGHeavyHitters(p, alpha, eps float64) *mgHeavyHitters {
	alphaPr := (1 - 2*eps/5) * alpha
	return &mgHeavyHitters{
		p: p, alphaPr: alphaPr,
		mg: newMisraGries(int(math.Ceil(20 / (eps * alphaPr)))),
	}
}

// Observe feeds one element of the sampled stream L.
func (h *mgHeavyHitters) Observe(it stream.Item) {
	h.observed++
	h.mg.Observe(it)
}

// Report returns the counted items whose count clears α′·F₁(L), scaled
// by 1/p. Misra–Gries undercounts by at most N/(k+1), so the threshold
// is lowered by that much: every item whose upper bound clears it is
// admitted. The report is unordered.
func (h *mgHeavyHitters) Report() []core.ReportedHitter {
	threshold := h.alphaPr*float64(h.observed) - h.mg.ErrorBound()
	var out []core.ReportedHitter
	for it, c := range h.mg.counters {
		if est := float64(c); est >= threshold {
			out = append(out, core.ReportedHitter{Item: it, Freq: est / h.p})
		}
	}
	return out
}

// misraGries is the deterministic frequent-items summary of Misra and
// Gries [33]: with k counters, every item's reported count underestimates
// its true count by at most N/(k+1), so all items with f_i > N/(k+1) are
// guaranteed to be present.
type misraGries struct {
	k        int
	counters map[stream.Item]uint64
	n        uint64
}

// newMisraGries returns a summary with k counters. It panics if k < 1.
func newMisraGries(k int) *misraGries {
	if k < 1 {
		panic("experiments: misraGries requires k >= 1")
	}
	return &misraGries{k: k, counters: make(map[stream.Item]uint64, k+1)}
}

// Observe feeds one item.
func (mg *misraGries) Observe(it stream.Item) {
	mg.n++
	if _, ok := mg.counters[it]; ok {
		mg.counters[it]++
		return
	}
	if len(mg.counters) < mg.k {
		mg.counters[it] = 1
		return
	}
	// Decrement-all step; delete counters that reach zero.
	for key, c := range mg.counters {
		if c == 1 {
			delete(mg.counters, key)
		} else {
			mg.counters[key] = c - 1
		}
	}
}

// Estimate returns the (under-)estimate of item's count: true count minus
// at most N/(k+1).
func (mg *misraGries) Estimate(it stream.Item) uint64 { return mg.counters[it] }

// ErrorBound returns the maximum undercount N/(k+1).
func (mg *misraGries) ErrorBound() float64 { return float64(mg.n) / float64(mg.k+1) }

// e8F2HeavyHitters validates Theorem 7.
func e8F2HeavyHitters() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "F₂ heavy hitters from L (Theorem 7)",
		Claim: "Thm 7: CountSketch on L with alpha' = (1-2eps/5)alpha*sqrt(p)",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(200000)
			const alpha, eps = 0.25, 0.2
			wl := workload.PlantedHH(n, 3, n/15, n, r.Uint64())
			f := stream.NewFreq(wl.Stream)
			include, _ := hhTruth(f, 2, alpha, eps)
			trials := cfg.trials(7)

			t := stats.NewTable("E8: "+wl.Name,
				"p", "exclusion (1-ε)√p·α√F₂", "recall", "false pos", "worst freq err", "thm holds")
			sqrtF2 := math.Sqrt(f.Fk(2))
			for _, p := range []float64{0.5, 0.2, 0.1} {
				// Theorem 7's exclusion line scales with √p.
				exclusion := (1 - eps) * math.Sqrt(p) * alpha * sqrtF2
				gray := make(map[uint64]bool)
				for it, c := range f {
					if !include[uint64(it)] && float64(c) >= exclusion {
						gray[uint64(it)] = true
					}
				}
				var rec, fe stats.Summary
				fp := 0
				for tr := 0; tr < trials; tr++ {
					hh := core.NewF2HeavyHitters(core.F2HHConfig{P: p, Alpha: alpha, Epsilon: eps}, r.Split())
					runSampled(wl.Stream, p, r.Split(), hh)
					recall, falsePos, freqErr := hhScore(hh.Report(), f, include, gray)
					rec.Add(recall)
					fe.Add(freqErr)
					fp += falsePos
				}
				ok := rec.Min() == 1 && fp == 0
				t.AddRow(p, exclusion, rec.Mean(), fp, fe.Max(), verdict(ok))
			}
			t.AddNote("3 planted F₂-heavy items; trials=%d", trials)
			return []*stats.Table{t}
		},
	}
}
