package core

import (
	"math"
	"testing"

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
		e := NewScaledF2Estimator(ScaledF2Config{P: p, Width: 8192, Depth: 5}, r.Split())
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
		se := NewScaledF2Estimator(ScaledF2Config{P: p, Width: 256, Depth: 5}, r.Split())
		ce := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
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
	e := NewScaledF2Estimator(ScaledF2Config{P: 0.5}, rng.New(5))
	e.Observe(1)
	if got := e.Estimate(); got < 2 {
		t.Fatalf("clamped estimate %v < F1 floor 2", got)
	}
}

func TestNaiveFkUnderestimatesSkewedStreams(t *testing.T) {
	// F_k(L)/p^k drops the lower-order binomial terms; on a stream whose
	// F2 has a large linear component it must undershoot noticeably,
	// while Algorithm 1 stays close.
	var s stream.Slice
	for i := 0; i < 20000; i++ {
		s = append(s, stream.Item(i%10000+1)) // every item twice
	}
	exact := stream.NewFreq(s).Fk(2) // 10000·4 = 40000
	const p, trials = 0.1, 30
	b := sample.NewBernoulli(p)
	r := rng.New(6)
	var naiveSum, algoSum float64
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		naive := NewNaiveFkEstimator(2, p)
		algo := NewFkEstimator(FkConfig{K: 2, P: p, Exact: true}, r.Split())
		for _, it := range L {
			naive.Observe(it)
			algo.Observe(it)
		}
		naiveSum += naive.Estimate()
		algoSum += algo.Estimate()
	}
	naiveMean := naiveSum / trials
	algoMean := algoSum / trials
	// Naive expectation: (p²F2 + p(1−p)F1)/p² = F2 + F1(1−p)/p = 40000 +
	// 20000·9 = 220000 — a 5.5× overestimate (the bias is upward here
	// because the linear term dominates at small p).
	if naiveMean < exact*3 {
		t.Fatalf("naive estimator unexpectedly accurate: %v vs exact %v", naiveMean, exact)
	}
	if math.Abs(algoMean-exact)/exact > 0.25 {
		t.Fatalf("Algorithm 1 mean %v, exact %v", algoMean, exact)
	}
}

func TestNaiveF0CollapsesOnSingletonStream(t *testing.T) {
	// F0(L)/p overestimates F0(P)=n? No: F0(L) ≈ pn, so naive ≈ n — fine
	// on singleton streams. The failure mode is duplicate-heavy streams:
	// F0(L) ≈ F0(P) (every value still appears), so naive ≈ F0/p ≫ F0.
	s := distinctStream(2000, 20)
	exact := float64(stream.NewFreq(s).F0())
	const p = 0.1
	b := sample.NewBernoulli(p)
	r := rng.New(7)
	L := b.Apply(s, r.Split())
	naive := NewNaiveF0Estimator(p, 1024, r.Split())
	algo := NewF0Estimator(F0Config{P: p}, r.Split())
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
		func() { NewScaledF2Estimator(ScaledF2Config{P: 0}, rng.New(1)) },
		func() { NewNaiveFkEstimator(0, 0.5) },
		func() { NewNaiveFkEstimator(2, 0) },
		func() { NewNaiveF0Estimator(0, 16, rng.New(1)) },
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
	se := NewScaledF2Estimator(ScaledF2Config{P: 0.5, Width: 64, Depth: 2}, rng.New(8))
	if se.SpaceBytes() < 8*128 {
		t.Fatalf("scaled F2 space %d too small", se.SpaceBytes())
	}
	nf := NewNaiveFkEstimator(2, 0.5)
	nf.Observe(1)
	// One slab entry of 16 bytes plus the item index while it is fed; the
	// estimate orders the store, which drops the index.
	if fed := nf.SpaceBytes(); fed <= 16 {
		t.Fatalf("naive Fk space while fed = %d, want the slab and an index", fed)
	}
	nf.Estimate()
	if nf.SpaceBytes() != 16 {
		t.Fatalf("naive Fk space = %d", nf.SpaceBytes())
	}
	n0 := NewNaiveF0Estimator(0.5, 16, rng.New(9))
	if n0.SpaceBytes() <= 0 {
		t.Fatal("naive F0 space not positive")
	}
}
