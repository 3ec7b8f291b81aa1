package core

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func TestEntropyPluginConstantFactor(t *testing.T) {
	// Lemma 10 regime: entropy well above the additive floor; the
	// estimate must be within a constant factor (we check a tight one).
	s := zipfStream(100000, 5000, 1.0, 1)
	exact := stream.NewFreq(s).Entropy()
	for _, p := range []float64{0.5, 0.1, 0.05} {
		b := sample.NewBernoulli(p)
		r := rng.New(2)
		L := b.Apply(s, r.Split())
		e := NewEntropyEstimator(EntropyConfig{P: p}, r.Split())
		for _, it := range L {
			e.Observe(it)
		}
		got := e.Estimate()
		if e.AdditiveFloor(uint64(len(s))) > exact/10 {
			t.Fatalf("p=%v: test workload below the guarantee regime", p)
		}
		ratio := got / exact
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("p=%v: H estimate %v, exact %v (ratio %v)", p, got, exact, ratio)
		}
	}
}

func TestEntropyHpnMatchesPaperQuantity(t *testing.T) {
	// H_pn(g) computed by the estimator must equal the definition.
	s := zipfStream(20000, 500, 1.1, 3)
	const p = 0.2
	b := sample.NewBernoulli(p)
	r := rng.New(4)
	L := b.Apply(s, r.Split())
	e := NewEntropyEstimator(EntropyConfig{P: p}, r.Split())
	for _, it := range L {
		e.Observe(it)
	}
	g := stream.NewFreq(L)
	pn := p * float64(len(s))
	var want float64
	for _, c := range g {
		want += float64(c) / pn * math.Log2(pn/float64(c))
	}
	got := e.EstimateHpn(uint64(len(s)))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Hpn = %v, want %v", got, want)
	}
}

func TestEntropyProposition1(t *testing.T) {
	// |H_pn(g) − H(g)| = O(log m/√(pn)): check the gap is small for a
	// large sampled stream.
	s := zipfStream(200000, 2000, 1.0, 5)
	const p = 0.25
	b := sample.NewBernoulli(p)
	r := rng.New(6)
	L := b.Apply(s, r.Split())
	e := NewEntropyEstimator(EntropyConfig{P: p}, r.Split())
	for _, it := range L {
		e.Observe(it)
	}
	hg := e.Estimate()                   // exact H(g) via plugin
	hpn := e.EstimateHpn(uint64(len(s))) // H_pn(g)
	gap := math.Abs(hpn - hg)            // Proposition 1 quantity
	bound := 10 * math.Log2(2000) / math.Sqrt(p*float64(len(s)))
	if gap > bound {
		t.Fatalf("|Hpn − H(g)| = %v > bound %v", gap, bound)
	}
}

func TestEntropyLemma9Scenario1(t *testing.T) {
	// Scenario 1: f₁ = n−k with k = 1/(10p) singletons. H(f) > 0 but the
	// sampled stream frequently contains no singleton at all, making the
	// sampled entropy estimate ≈ 0 — no multiplicative approximation.
	const n, p = 100000, 0.01
	k := int(1 / (10 * p)) // 10 singletons
	var s stream.Slice
	for i := 0; i < n-k; i++ {
		s = append(s, 1)
	}
	for i := 0; i < k; i++ {
		s = append(s, stream.Item(i+2))
	}
	exact := stream.NewFreq(s).Entropy()
	if exact <= 0 {
		t.Fatal("scenario 1 entropy should be positive")
	}
	// Count over trials how often the sampled stream has zero entropy.
	zeroTrials := 0
	const trials = 50
	b := sample.NewBernoulli(p)
	r := rng.New(9)
	for tr := 0; tr < trials; tr++ {
		L := b.Apply(s, r.Split())
		e := NewEntropyEstimator(EntropyConfig{P: p}, r.Split())
		for _, it := range L {
			e.Observe(it)
		}
		if e.Estimate() < exact/100 {
			zeroTrials++
		}
	}
	// (1−p)^k ≈ 0.90: most trials should collapse.
	if zeroTrials < trials/2 {
		t.Fatalf("only %d/%d trials collapsed; Lemma 9 scenario not reproduced", zeroTrials, trials)
	}
}

func TestEntropyAdditiveFloor(t *testing.T) {
	e := NewEntropyEstimator(EntropyConfig{P: 0.01}, rng.New(10))
	got := e.AdditiveFloor(1 << 30)
	want := math.Pow(0.01, -0.5) * math.Pow(float64(uint64(1)<<30), -1.0/6)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AdditiveFloor = %v, want %v", got, want)
	}
	if !math.IsInf(e.AdditiveFloor(0), 1) {
		t.Fatal("AdditiveFloor(0) should be +Inf")
	}
}

func TestEntropyPanics(t *testing.T) {
	for _, p := range []float64{0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("P=%v did not panic", p)
				}
			}()
			NewEntropyEstimator(EntropyConfig{P: p}, rng.New(1))
		}()
	}
}

func TestEntropyEmpty(t *testing.T) {
	e := NewEntropyEstimator(EntropyConfig{P: 0.5}, rng.New(11))
	if e.Estimate() != 0 || e.EstimateHpn(0) != 0 {
		t.Fatal("empty entropy not zero")
	}
}
