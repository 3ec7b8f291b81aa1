package core

import (
	"math"
	"testing"
	"testing/quick"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func zipfStream(n, m int, s float64, seed uint64) stream.Slice {
	r := rng.New(seed)
	z := rng.NewZipf(m, s)
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(z.Draw(r))
	}
	return out
}

func feedFk(e *FkEstimator, s stream.Slice) {
	for _, it := range s {
		e.Observe(it)
	}
}

func TestFkExactWhenPOneExactCounter(t *testing.T) {
	// With p = 1 and the exact collision counter, Algorithm 1 reduces to
	// the Lemma 1 identity and must reproduce F_k exactly.
	f := func(counts [12]uint8) bool {
		var s stream.Slice
		for i, c := range counts {
			for j := 0; j < int(c%25); j++ {
				s = append(s, stream.Item(i+1))
			}
		}
		if len(s) == 0 {
			return true
		}
		fr := stream.NewFreq(s)
		for k := 2; k <= 5; k++ {
			e := NewFkEstimator(FkConfig{K: k, P: 1, Exact: true}, rng.New(1))
			feedFk(e, s)
			want := fr.Fk(k)
			got := e.Estimate()
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFkMomentsConsistent(t *testing.T) {
	s := zipfStream(20000, 200, 1.1, 1)
	fr := stream.NewFreq(s)
	e := NewFkEstimator(FkConfig{K: 4, P: 1, Exact: true}, rng.New(2))
	feedFk(e, s)
	phi := e.Moments()
	for l := 1; l <= 4; l++ {
		want := fr.Fk(l)
		if math.Abs(phi[l]-want) > 1e-6*want {
			t.Fatalf("φ_%d = %v, want %v", l, phi[l], want)
		}
	}
}

func TestFkUnbiasedUnderSampling(t *testing.T) {
	// With the exact counter, E[C_ℓ(L)/p^ℓ] = C_ℓ(P), so the estimate
	// should be unbiased across many independent samples.
	s := zipfStream(30000, 100, 1.0, 3)
	exact := stream.NewFreq(s).Fk(2)
	const p, trials = 0.1, 60
	b := sample.NewBernoulli(p)
	var sum float64
	r := rng.New(4)
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		e := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
		feedFk(e, L)
		sum += e.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.1 {
		t.Fatalf("mean F2 estimate %v, exact %v", mean, exact)
	}
}

func TestFkAccuracyImprovesWithP(t *testing.T) {
	// Theorem 1's tradeoff: larger p → lower error (at fixed space).
	s := zipfStream(100000, 1000, 1.1, 5)
	exact := stream.NewFreq(s).Fk(2)
	meanErr := func(p float64, seed uint64) float64 {
		const trials = 15
		b := sample.NewBernoulli(p)
		r := rng.New(seed)
		var total float64
		for tr := 0; tr < trials; tr++ {
			L := b.Apply(s, r.Split())
			e := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
			feedFk(e, L)
			total += math.Abs(e.Estimate()-exact) / exact
		}
		return total / trials
	}
	errHigh := meanErr(0.5, 6)
	errLow := meanErr(0.02, 7)
	if errHigh > errLow {
		t.Fatalf("error did not shrink with p: p=0.5 → %v, p=0.02 → %v", errHigh, errLow)
	}
	if errHigh > 0.05 {
		t.Fatalf("p=0.5 error too large: %v", errHigh)
	}
}

func TestFkHigherMomentsUnderSampling(t *testing.T) {
	s := zipfStream(80000, 300, 1.2, 8)
	fr := stream.NewFreq(s)
	const p = 0.2
	b := sample.NewBernoulli(p)
	for _, k := range []int{3, 4} {
		const trials = 25
		var sum float64
		exact := fr.Fk(k)
		r := rng.New(uint64(10 + k))
		for tr := 0; tr < trials; tr++ {
			L := b.Apply(s, r.Split())
			e := NewFkEstimator(FkConfig{K: k, P: p, Exact: true}, r.Split())
			feedFk(e, L)
			sum += e.Estimate()
		}
		mean := sum / trials
		if math.Abs(mean-exact)/exact > 0.15 {
			t.Fatalf("k=%d: mean estimate %v, exact %v", k, mean, exact)
		}
	}
}

func TestFkLevelSetBackendTracksExact(t *testing.T) {
	// The level-set backend under a real budget should agree with the
	// exact backend within the schedule's tolerance on a skewed stream.
	s := zipfStream(150000, 20000, 1.3, 9)
	exact := stream.NewFreq(s).Fk(2)
	const p = 0.2
	b := sample.NewBernoulli(p)
	r := rng.New(10)
	L := b.Apply(s, r.Split())
	e := NewFkEstimator(FkConfig{K: 2, P: p, Epsilon: 0.2, Budget: 4096}, r.Split())
	feedFk(e, L)
	got := e.Estimate()
	if relErr := math.Abs(got-exact) / exact; relErr > 0.35 {
		t.Fatalf("level-set F2 = %v, exact %v (rel err %v)", got, exact, relErr)
	}
}

func TestFkStdErrEstimateCalibration(t *testing.T) {
	// The plug-in standard error should be the right order of magnitude:
	// the empirical spread of estimates across independent samples must
	// lie within a small constant factor of the reported SE.
	s := zipfStream(60000, 500, 1.1, 22)
	const p, trials = 0.1, 40
	b := sample.NewBernoulli(p)
	r := rng.New(23)
	var ests stats
	var seSum float64
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		e := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
		feedFk(e, L)
		ests.add(e.Estimate())
		seSum += e.StdErrEstimate(2)
	}
	meanSE := seSum / trials
	empirical := ests.stddev()
	if empirical > 20*meanSE || meanSE > 50*empirical {
		t.Fatalf("SE estimate %v vs empirical spread %v: wrong order of magnitude", meanSE, empirical)
	}
}

// stats is a minimal local accumulator to avoid importing the stats
// package into core's tests (which would not be a cycle, but keeps the
// test self-contained).
type stats struct {
	n          int
	sum, sumsq float64
}

func (s *stats) add(v float64) { s.n++; s.sum += v; s.sumsq += v * v }
func (s *stats) stddev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.sum / float64(s.n)
	return math.Sqrt((s.sumsq - float64(s.n)*mean*mean) / float64(s.n-1))
}

func TestFkStdErrPanics(t *testing.T) {
	e := NewFkEstimator(FkConfig{K: 3, P: 0.5, Exact: true}, rng.New(1))
	for _, l := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("StdErrEstimate(%d) did not panic", l)
				}
			}()
			e.StdErrEstimate(l)
		}()
	}
	if got := e.StdErrEstimate(2); got != 0 {
		t.Fatalf("empty-stream SE = %v, want 0", got)
	}
}

func TestFkSampledLengthAndAccessors(t *testing.T) {
	e := NewFkEstimator(FkConfig{K: 3, P: 0.5, Exact: true}, rng.New(11))
	for i := 0; i < 100; i++ {
		e.Observe(stream.Item(i%10 + 1))
	}
	if e.SampledLength() != 100 {
		t.Fatalf("SampledLength = %d", e.SampledLength())
	}
	if e.k != 3 || e.p != 0.5 {
		t.Fatalf("configuration lost: k=%d p=%v", e.k, e.p)
	}
	if len(e.schedule) != 4 {
		t.Fatalf("schedule length %d", len(e.schedule))
	}
	if e.SpaceBytes() <= 0 {
		t.Fatal("SpaceBytes not positive")
	}
}

func TestFkEmptyStream(t *testing.T) {
	e := NewFkEstimator(FkConfig{K: 2, P: 0.5, Exact: true}, rng.New(12))
	if got := e.Estimate(); got != 0 {
		t.Fatalf("empty-stream estimate %v", got)
	}
}

func TestFkClampAtF1(t *testing.T) {
	// A stream of all-distinct samples has C2(L) = 0; the estimate must
	// not fall below φ₁ = F₁(L)/p (moments are monotone).
	e := NewFkEstimator(FkConfig{K: 2, P: 0.5, Exact: true}, rng.New(13))
	for i := 1; i <= 1000; i++ {
		e.Observe(stream.Item(i))
	}
	phi1 := float64(1000) / 0.5
	if got := e.Estimate(); got < phi1 {
		t.Fatalf("estimate %v below φ₁ %v", got, phi1)
	}
}

func TestFkPanics(t *testing.T) {
	cases := []FkConfig{
		{K: 1, P: 0.5},
		{K: 13, P: 0.5},
		{K: 2, P: 0},
		{K: 2, P: 1.5},
		{K: 2, P: 0.5, Epsilon: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewFkEstimator(cfg, rng.New(1))
		}()
	}
}

func TestMinSamplingP(t *testing.T) {
	if got := MinSamplingP(10000, 1<<40, 2); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("MinSamplingP = %v, want 0.01", got)
	}
	if got := MinSamplingP(1<<30, 10000, 2); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("MinSamplingP (n smaller) = %v, want 0.01", got)
	}
	if got := MinSamplingP(0, 0, 2); got != 1 {
		t.Fatalf("MinSamplingP empty = %v", got)
	}
}

func TestFkTimeSpaceTradeoffSmoke(t *testing.T) {
	// §1.2: for F2 with n = Θ(m), p = Θ(1/√n) yields a sublinear-space
	// estimator that still lands within a constant factor.
	const n = 1 << 16
	s := zipfStream(n, n, 1.0, 14)
	exact := stream.NewFreq(s).Fk(2)
	p := 4 / math.Sqrt(float64(n))
	b := sample.NewBernoulli(p)
	r := rng.New(15)
	const trials = 10
	var sum float64
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		e := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
		feedFk(e, L)
		sum += e.Estimate()
	}
	mean := sum / trials
	if mean < exact/3 || mean > exact*3 {
		t.Fatalf("sublinear-p mean estimate %v, exact %v", mean, exact)
	}
}
