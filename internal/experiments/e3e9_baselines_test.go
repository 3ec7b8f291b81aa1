package experiments

import (
	"math"
	"testing"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func TestScaledF2UnbiasedAtModerateP(t *testing.T) {
	s := zipfStream(50000, 500, 1.0, 1)
	exact := stream.NewFreq(s).Fk(2)
	const p, trials = 0.5, 40
	b := sample.NewBernoulli(p)
	r := rng.New(2)
	var sum float64
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		e := newScaledF2(p, 8192, 5, r.Split())
		for _, it := range L {
			e.Observe(it)
		}
		sum += e.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.1 {
		t.Fatalf("scaled F2 mean %v, exact %v", mean, exact)
	}
}

func TestScaledF2ErrorAmplifiedAtSmallP(t *testing.T) {
	// At equal sketch space, the scaled estimator's error should exceed
	// the collision estimator's at small p — the §1.3 comparison.
	s := zipfStream(100000, 2000, 1.1, 3)
	exact := stream.NewFreq(s).Fk(2)
	const p, trials = 0.02, 20
	b := sample.NewBernoulli(p)
	r := rng.New(4)
	var scaledErr, collisionErr float64
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		se := newScaledF2(p, 256, 5, r.Split())
		ce := core.NewFkEstimator(core.FkConfig{K: 2, P: p, Exact: true}, r.Split())
		for _, it := range L {
			se.Observe(it)
			ce.Observe(it)
		}
		scaledErr += math.Abs(se.Estimate()-exact) / exact
		collisionErr += math.Abs(ce.Estimate()-exact) / exact
	}
	scaledErr /= trials
	collisionErr /= trials
	if collisionErr >= scaledErr {
		t.Fatalf("collision err %v not better than scaled err %v at p=%v",
			collisionErr, scaledErr, p)
	}
}

func TestScaledF2Clamp(t *testing.T) {
	// With almost no data the inversion can go below F1(L)/p; it must
	// clamp rather than return a negative moment.
	e := newScaledF2(0.5, 4096, 5, rng.New(5))
	e.Observe(1)
	if got := e.Estimate(); got < 2 {
		t.Fatalf("clamped estimate %v < F1 floor 2", got)
	}
}

func TestNaiveF0CollapsesOnSingletonStream(t *testing.T) {
	// F0(L)/p overestimates F0(P)=n? No: F0(L) ≈ pn, so naive ≈ n — fine
	// on singleton streams. The failure mode is duplicate-heavy streams:
	// F0(L) ≈ F0(P) (every value still appears), so naive ≈ F0/p ≫ F0.
	var s stream.Slice
	for i := 1; i <= 2000; i++ {
		for j := 0; j < 20; j++ {
			s = append(s, stream.Item(i))
		}
	}
	exact := float64(stream.NewFreq(s).F0())
	const p = 0.1
	b := sample.NewBernoulli(p)
	r := rng.New(7)
	L := b.Apply(s, r.Split())
	naive := newNaiveF0(p, 1024, r.Split())
	algo := core.NewF0Estimator(core.F0Config{P: p}, r.Split())
	for _, it := range L {
		naive.Observe(it)
		algo.Observe(it)
	}
	naiveEst := naive.Estimate()
	algoEst := algo.Estimate()
	if naiveEst < exact*5 {
		t.Fatalf("naive F0 did not blow up: %v vs exact %v", naiveEst, exact)
	}
	mult := math.Max(algoEst/exact, exact/algoEst)
	if mult > 4/math.Sqrt(p) {
		t.Fatalf("Algorithm 2 outside bound: %v vs %v", algoEst, exact)
	}
}

func TestBaselinePanics(t *testing.T) {
	cases := []func(){
		func() { newScaledF2(0, 4096, 5, rng.New(1)) },
		func() { newNaiveF0(0, 16, rng.New(1)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBaselineSpaceAccounting(t *testing.T) {
	se := newScaledF2(0.5, 64, 2, rng.New(8))
	if se.SpaceBytes() < 8*128 {
		t.Fatalf("scaled F2 space %d too small", se.SpaceBytes())
	}
}
