package core

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

// plantedStream builds a stream with `heavy` items of frequency heavyFreq
// each (ids 1..heavy) over a background of light items drawn uniformly
// from [heavy+1, heavy+lightUniverse], total length n.
func plantedStream(n, heavy int, heavyFreq int, lightUniverse int, seed uint64) stream.Slice {
	r := rng.New(seed)
	var s stream.Slice
	for h := 1; h <= heavy; h++ {
		for j := 0; j < heavyFreq; j++ {
			s = append(s, stream.Item(h))
		}
	}
	for len(s) < n {
		s = append(s, stream.Item(heavy+1+r.Intn(lightUniverse)))
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func reportedSet(hh []ReportedHitter) map[stream.Item]float64 {
	out := make(map[stream.Item]float64, len(hh))
	for _, h := range hh {
		out[h.Item] = h.Freq
	}
	return out
}

func TestF1HeavyHittersTheorem6(t *testing.T) {
	// 4 heavy items at 5% each over a light background; α = 0.04, ε = 0.2.
	const n = 200000
	s := plantedStream(n, 4, n/20, 50000, 1)
	f := stream.NewFreq(s)
	const alpha, eps = 0.04, 0.2
	for _, p := range []float64{0.5, 0.1} {
		b := sample.NewBernoulli(p)
		r := rng.New(2)
		L := b.Apply(s, r.Split())
		hh := NewF1HeavyHitters(F1HHConfig{P: p, Alpha: alpha, Epsilon: eps}, r.Split())
		for _, it := range L {
			hh.Observe(it)
		}
		rep := reportedSet(hh.Report())
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
				t.Fatalf("p=%v: light item %d (f=%d < %v) reported",
					p, it, f[it], exclude)
			}
		}
	}
}

func TestF1HeavyHittersPremiseHelper(t *testing.T) {
	hh := NewF1HeavyHitters(F1HHConfig{P: 0.1, Alpha: 0.01, Epsilon: 0.2}, rng.New(3))
	min := hh.MinStreamLength(1<<20, 0.05)
	want := math.Log(float64(uint64(1)<<20)/0.05) / (0.1 * 0.01 * 0.04)
	if math.Abs(min-want)/want > 1e-9 {
		t.Fatalf("MinStreamLength = %v, want %v", min, want)
	}
}

func TestF1HeavyHittersNoHeavyItems(t *testing.T) {
	// Uniform stream: nothing close to α·F1; report must be empty or
	// contain only items above the exclusion line (there are none).
	s := zipfStream(100000, 50000, 0.0, 4)
	const p, alpha = 0.3, 0.01
	b := sample.NewBernoulli(p)
	r := rng.New(5)
	L := b.Apply(s, r.Split())
	hh := NewF1HeavyHitters(F1HHConfig{P: p, Alpha: alpha}, r.Split())
	for _, it := range L {
		hh.Observe(it)
	}
	if rep := hh.Report(); len(rep) != 0 {
		t.Fatalf("uniform stream reported %d heavy hitters: %+v", len(rep), rep)
	}
}

func TestF1HeavyHittersPanics(t *testing.T) {
	cases := []F1HHConfig{
		{P: 0, Alpha: 0.1},
		{P: 0.5, Alpha: 0},
		{P: 0.5, Alpha: 1},
		{P: 0.5, Alpha: 0.1, Epsilon: -0.1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewF1HeavyHitters(cfg, rng.New(1))
		}()
	}
}

func TestF2HeavyHittersTheorem7(t *testing.T) {
	// F2-heavy items: a few very frequent ids dominate √F2.
	const n = 150000
	s := plantedStream(n, 3, n/15, 100000, 6)
	f := stream.NewFreq(s)
	sqrtF2 := math.Sqrt(f.Fk(2))
	const alpha, eps = 0.3, 0.2
	for _, p := range []float64{0.5, 0.2} {
		b := sample.NewBernoulli(p)
		r := rng.New(7)
		L := b.Apply(s, r.Split())
		hh := NewF2HeavyHitters(F2HHConfig{P: p, Alpha: alpha, Epsilon: eps}, r.Split())
		for _, it := range L {
			hh.Observe(it)
		}
		rep := reportedSet(hh.Report())
		// Every item with f ≥ α√F2 must be reported.
		for it, c := range f {
			if float64(c) >= alpha*sqrtF2 {
				if _, ok := rep[it]; !ok {
					t.Fatalf("p=%v: F2-heavy item %d (f=%d ≥ %v) missed", p, it, c, alpha*sqrtF2)
				}
			}
		}
		// Theorem 7's exclusion line: nothing below (1−ε)·√p·α·√F2.
		exclude := (1 - eps) * math.Sqrt(p) * alpha * sqrtF2
		for it := range rep {
			if float64(f[it]) < exclude {
				t.Fatalf("p=%v: item %d (f=%d < %v) reported", p, it, f[it], exclude)
			}
		}
		// Reported frequencies of true heavy hitters within 2ε.
		for it, c := range f {
			if float64(c) >= alpha*sqrtF2 {
				if got := rep[it]; math.Abs(got-float64(c))/float64(c) > 2*eps {
					t.Fatalf("p=%v: item %d freq estimate %v, true %d", p, it, got, c)
				}
			}
		}
	}
}

func TestF2HeavyHittersSpaceScalesWithInverseP(t *testing.T) {
	// Theorem 7: space Õ(1/p) — halving p should grow the sketch.
	mk := func(p float64) int {
		return NewF2HeavyHitters(F2HHConfig{P: p, Alpha: 0.2, MaxWidth: 1 << 24}, rng.New(8)).SpaceBytes()
	}
	s1, s2 := mk(0.4), mk(0.1)
	if s2 <= s1 {
		t.Fatalf("space did not grow as p shrank: p=0.4 → %d, p=0.1 → %d", s1, s2)
	}
	ratio := float64(s2) / float64(s1)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("space ratio %v, want ≈ 4 (1/p scaling)", ratio)
	}
}

func TestF2HeavyHittersPanics(t *testing.T) {
	cases := []F2HHConfig{
		{P: 0, Alpha: 0.1},
		{P: 0.5, Alpha: 0},
		{P: 0.5, Alpha: 1},
		{P: 0.5, Alpha: 0.1, Epsilon: 2},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewF2HeavyHitters(cfg, rng.New(1))
		}()
	}
}
