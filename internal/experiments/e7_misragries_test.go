package experiments

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

func TestMisraGriesGuarantee(t *testing.T) {
	// Undercount is at most N/(k+1) for every item.
	s := zipfStream(100000, 2000, 1.1, 1)
	const k = 100
	mg := newMisraGries(k)
	for _, it := range s {
		mg.Observe(it)
	}
	f := stream.NewFreq(s)
	bound := mg.ErrorBound()
	for it, c := range f {
		est := mg.Estimate(it)
		if est > c {
			t.Fatalf("item %d: Misra-Gries overestimated %d > %d", it, est, c)
		}
		if float64(c)-float64(est) > bound+1e-9 {
			t.Fatalf("item %d: undercount %d exceeds bound %v", it, c-est, bound)
		}
	}
}

func TestMisraGriesFindsMajority(t *testing.T) {
	// An item with frequency > N/(k+1) must survive.
	var s stream.Slice
	for i := 0; i < 600; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 400; i++ {
		s = append(s, stream.Item(i+2)) // all distinct
	}
	mg := newMisraGries(9) // bound N/10 = 100 < 600
	for _, it := range s {
		mg.Observe(it)
	}
	if mg.Estimate(1) == 0 {
		t.Fatal("majority item evicted")
	}
	if _, ok := mg.counters[1]; !ok {
		t.Fatal("majority item not in candidates")
	}
}

func TestMisraGriesCounterCap(t *testing.T) {
	mg := newMisraGries(5)
	for i := 0; i < 10000; i++ {
		mg.Observe(stream.Item(i%100 + 1))
	}
	if len(mg.counters) > 5 {
		t.Fatalf("tracked %d > k=5 counters", len(mg.counters))
	}
	if mg.n != 10000 {
		t.Fatalf("N = %d", mg.n)
	}
}

func TestMisraGriesExactWhenFits(t *testing.T) {
	mg := newMisraGries(10)
	s := stream.Slice{1, 1, 2, 3, 3, 3}
	for _, it := range s {
		mg.Observe(it)
	}
	if mg.Estimate(1) != 2 || mg.Estimate(2) != 1 || mg.Estimate(3) != 3 {
		t.Fatalf("exact counts wrong: %v", mg.counters)
	}
}

func TestMisraGriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newMisraGries(0) did not panic")
		}
	}()
	newMisraGries(0)
}

func TestMGHeavyHittersTheorem6(t *testing.T) {
	// E7's Misra–Gries arm meets Theorem 6 where CountMin does: 4 heavy
	// items at 5% each over a light background; α = 0.04, ε = 0.2.
	const n = 200000
	s := workload.PlantedHH(n, 4, n/20, 50000, 1).Stream.(stream.Slice)
	f := stream.NewFreq(s)
	const alpha, eps = 0.04, 0.2
	for _, p := range []float64{0.5, 0.1} {
		r := rng.New(2)
		L := sample.NewBernoulli(p).Apply(s, r.Split())
		hh := newMGHeavyHitters(p, alpha, eps)
		for _, it := range L {
			hh.Observe(it)
		}
		rep := make(map[stream.Item]float64)
		for _, h := range hh.Report() {
			rep[h.Item] = h.Freq
		}
		// (1) every true heavy hitter reported with ±ε frequency.
		threshold := alpha * float64(f.F1())
		for it, c := range f {
			if float64(c) >= threshold {
				got, ok := rep[it]
				if !ok {
					t.Fatalf("p=%v: heavy item %d (f=%d) missed", p, it, c)
				}
				if math.Abs(got-float64(c))/float64(c) > eps {
					t.Fatalf("p=%v: item %d freq %v, true %d", p, it, got, c)
				}
			}
		}
		// (2) nothing below (1−ε)·α·F1 reported.
		exclude := (1 - eps) * threshold
		for it := range rep {
			if float64(f[it]) < exclude {
				t.Fatalf("p=%v: light item %d (f=%d < %v) reported", p, it, f[it], exclude)
			}
		}
	}
}
