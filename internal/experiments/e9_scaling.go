package experiments

import (
	"strconv"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stats"
	"substream/internal/stream"
	"substream/internal/workload"
)

// e9F2VsScaling validates the §1.3 comparison with Rusu–Dobra: the
// collision-based estimator needs Õ(1/p) space while sketch-and-rescale
// needs Õ(1/p²), because rescaling divides the sketch's error by p². The
// measurable shape: at equal space, the scaling method's error degrades
// faster than the collision method's as p shrinks.
func e9F2VsScaling() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "F₂: collision method vs Rusu–Dobra scaling",
		Claim: "Sec 1.3: collision method needs O~(1/p) space vs O~(1/p^2)",
		Run: func(cfg Config) []*stats.Table {
			r := cfg.rng()
			n := cfg.scaledN(300000)
			m := n / 18 // keep collision density constant across scales
			if m < 256 {
				m = 256
			}
			trials := cfg.trials(9)
			wl := workload.Zipf(n, m, 1.1, r.Uint64())
			exact := stream.NewFreq(wl.Stream).Fk(2)

			// Equal-space comparison: give both estimators ≈ the same
			// number of bytes and sweep p. Per-row cells are
			// informational; the claim is the degradation trend.
			ps := []float64{0.5, 0.2, 0.1, 0.05, 0.02}
			collErr := make([]float64, len(ps))
			scalErr := make([]float64, len(ps))
			t1 := stats.NewTable("E9a: equal space (~64KB), error vs p — "+wl.Name,
				"p", "collision relerr", "scaling relerr")
			for pi, p := range ps {
				var coll, scal stats.Summary
				for tr := 0; tr < trials; tr++ {
					// ~64KB each: levelset budget 512 (≈ 512·(48+5·32)B)
					// vs CountSketch 1638 columns × 5 rows × 8B.
					ce := core.NewFkEstimator(core.FkConfig{
						K: 2, P: p, Epsilon: 0.2, Budget: 512,
					}, r.Split())
					se := newScaledF2(p, 1638, 5, r.Split())
					runSampled(wl.Stream, p, r.Split(), ce, se)
					coll.Add(stats.RelErr(ce.Estimate(), exact))
					scal.Add(stats.RelErr(se.Estimate(), exact))
				}
				collErr[pi] = coll.Median()
				scalErr[pi] = scal.Median()
				t1.AddRow(p, collErr[pi], scalErr[pi])
			}
			// Trend verdict: scaling error grows faster from the largest
			// to the smallest p than collision error does (with slack for
			// trial noise).
			collRatio := degradation(collErr)
			scalRatio := degradation(scalErr)
			t1.AddNote("degradation p=%.2g→%.2g: collision ×%.2f, scaling ×%.2f — shape %s",
				ps[0], ps[len(ps)-1], collRatio, scalRatio,
				verdict(scalRatio >= 0.7*collRatio))
			t1.AddNote("claim: scaling error amplified by 1/p² rescaling; collision error grows only ~1/p")

			// Space-to-reach-accuracy at a fixed small p (informational):
			// the scaling method needs a much wider sketch to match.
			t2 := stats.NewTable("E9b: space vs error at p=0.05 — "+wl.Name,
				"method", "space bytes", "median relerr")
			const p = 0.05
			for _, budget := range []int{256, 1024} {
				var errs stats.Summary
				var space int
				for tr := 0; tr < trials; tr++ {
					ce := core.NewFkEstimator(core.FkConfig{K: 2, P: p, Epsilon: 0.2, Budget: budget}, r.Split())
					runSampled(wl.Stream, p, r.Split(), ce)
					errs.Add(stats.RelErr(ce.Estimate(), exact))
					space = ce.SpaceBytes()
				}
				t2.AddRow("collision(budget="+strconv.Itoa(budget)+")", space, errs.Median())
			}
			for _, width := range []int{512, 4096, 32768} {
				var errs stats.Summary
				var space int
				for tr := 0; tr < trials; tr++ {
					se := newScaledF2(p, width, 5, r.Split())
					runSampled(wl.Stream, p, r.Split(), se)
					errs.Add(stats.RelErr(se.Estimate(), exact))
					space = se.SpaceBytes()
				}
				t2.AddRow("scaling(width="+strconv.Itoa(width)+")", space, errs.Median())
			}
			return []*stats.Table{t1, t2}
		},
	}
}

// degradation returns last/first with a floor on the denominator so a
// near-zero initial error does not blow the ratio up.
func degradation(errs []float64) float64 {
	first := errs[0]
	if first < 0.005 {
		first = 0.005
	}
	return errs[len(errs)-1] / first
}

// scaledF2 is the Rusu–Dobra-style baseline E9 measures the collision
// method against: it sketches F₂(L) and inverts
//
//	E[F₂(L)] = p²·F₂(P) + p(1−p)·F₁(P)
//
// giving F̂₂(P) = (F̂₂(L) − (1−p)·F₁(L)) / p², with F₁(L) counted exactly.
// It is unbiased given an unbiased F̂₂(L), but dividing by p² amplifies
// the sketch's error by 1/p², which is why matching the collision
// method's accuracy takes quadratically more space (§1.3).
type scaledF2 struct {
	p  float64
	cs *sketch.CountSketch
	nL uint64
}

// newScaledF2 builds the baseline over a width×depth CountSketch.
func newScaledF2(p float64, width, depth int, r *rng.Xoshiro256) *scaledF2 {
	if p <= 0 || p > 1 {
		panic("experiments: scaledF2 P must be in (0, 1]")
	}
	return &scaledF2{p: p, cs: sketch.NewCountSketch(width, depth, r)}
}

// Observe feeds one element of the sampled stream L.
func (e *scaledF2) Observe(it stream.Item) {
	e.nL++
	e.cs.Observe(it)
}

// Estimate returns the inverted estimate of F₂(P). Noise can push the
// raw inversion below the information floor F₁(P) ≈ F₁(L)/p; the result
// is clamped there.
func (e *scaledF2) Estimate() float64 {
	f2L := e.cs.F2Estimate()
	f1L := float64(e.nL)
	est := (f2L - (1-e.p)*f1L) / (e.p * e.p)
	if floor := f1L / e.p; est < floor {
		return floor
	}
	return est
}

// SpaceBytes returns the approximate memory footprint.
func (e *scaledF2) SpaceBytes() int { return e.cs.SpaceBytes() + 16 }
