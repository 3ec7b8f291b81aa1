package sample

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func makeStream(n int, m uint64, seed uint64) stream.Slice {
	r := rng.New(seed)
	s := make(stream.Slice, n)
	for i := range s {
		s[i] = stream.Item(r.Uint64n(m) + 1)
	}
	return s
}

func TestBernoulliRate(t *testing.T) {
	s := makeStream(200000, 1000, 1)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		b := NewBernoulli(p)
		L := b.Apply(s, rng.New(42))
		got := float64(len(L)) / float64(len(s))
		tol := 6 * math.Sqrt(p*(1-p)/float64(len(s)))
		if math.Abs(got-p) > tol {
			t.Fatalf("p=%v: sample rate %v, tolerance %v", p, got, tol)
		}
	}
}

func TestBernoulliPOne(t *testing.T) {
	s := makeStream(1000, 50, 2)
	L := NewBernoulli(1).Apply(s, rng.New(1))
	if len(L) != len(s) {
		t.Fatalf("p=1 dropped items: %d of %d", len(L), len(s))
	}
	for i := range s {
		if L[i] != s[i] {
			t.Fatalf("p=1 reordered items at %d", i)
		}
	}
}

func TestBernoulliPreservesOrder(t *testing.T) {
	// The sampled stream must be a subsequence of the original.
	s := stream.Slice{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	L := NewBernoulli(0.5).Apply(s, rng.New(3))
	j := 0
	for _, it := range L {
		for j < len(s) && s[j] != it {
			j++
		}
		if j == len(s) {
			t.Fatalf("sampled stream %v is not a subsequence of %v", L, s)
		}
		j++
	}
}

func TestBernoulliPanics(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBernoulli(%v) did not panic", p)
				}
			}()
			NewBernoulli(p)
		}()
	}
}

func TestBernoulliPipeMatchesApply(t *testing.T) {
	s := makeStream(10000, 100, 4)
	b := NewBernoulli(0.3)
	viaApply := b.Apply(s, rng.New(77))
	var viaPipe stream.Slice
	if err := b.Pipe(s, rng.New(77), func(it stream.Item) error {
		viaPipe = append(viaPipe, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(viaApply) != len(viaPipe) {
		t.Fatalf("Pipe/Apply lengths differ: %d vs %d", len(viaPipe), len(viaApply))
	}
	for i := range viaApply {
		if viaApply[i] != viaPipe[i] {
			t.Fatalf("Pipe/Apply diverge at %d", i)
		}
	}
}

func TestExpectedLen(t *testing.T) {
	if got := NewBernoulli(0.25).ExpectedLen(1000); got != 250 {
		t.Fatalf("ExpectedLen = %v, want 250", got)
	}
}

func TestAdaptiveBernoulliPhases(t *testing.T) {
	a := NewAdaptiveBernoulli([]int{100}, []float64{1, 0.5})
	s := make(stream.Slice, 200)
	for i := range s {
		s[i] = stream.Item(i + 1)
	}
	out := a.Apply(s, rng.New(10))
	// Phase 0 has p=1: all first 100 items present with phase tag 0.
	phase0 := 0
	for _, it := range out {
		if it.Phase == 0 {
			phase0++
			if uint64(it.Item) > 100 {
				t.Fatalf("item %d tagged phase 0", it.Item)
			}
		} else if uint64(it.Item) <= 100 {
			t.Fatalf("item %d tagged phase 1", it.Item)
		}
	}
	if phase0 != 100 {
		t.Fatalf("phase-0 count %d, want 100 (p=1)", phase0)
	}
}

func TestAdaptiveBernoulliF1Unbiased(t *testing.T) {
	a := NewAdaptiveBernoulli([]int{500}, []float64{0.8, 0.2})
	s := makeStream(1000, 100, 11)
	const trials = 1500
	var sum float64
	r := rng.New(12)
	for i := 0; i < trials; i++ {
		sum += a.EstimateF1(a.Apply(s, r.Split()))
	}
	mean := sum / trials
	if math.Abs(mean-1000) > 15 {
		t.Fatalf("adaptive F1 estimate mean %v, want 1000", mean)
	}
}

func TestAdaptiveBernoulliF2Unbiased(t *testing.T) {
	a := NewAdaptiveBernoulli([]int{300}, []float64{0.6, 0.3})
	s := makeStream(600, 20, 13) // small universe → real collisions
	exact := stream.NewFreq(s).Fk(2)
	const trials = 3000
	var sum float64
	r := rng.New(14)
	for i := 0; i < trials; i++ {
		sum += a.EstimateF2(a.Apply(s, r.Split()))
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.05 {
		t.Fatalf("adaptive F2 estimate mean %v, exact %v", mean, exact)
	}
}

func TestAdaptiveBernoulliPanics(t *testing.T) {
	cases := []struct {
		name  string
		bound []int
		probs []float64
	}{
		{"len mismatch", []int{10}, []float64{0.5}},
		{"bad prob", []int{10}, []float64{0.5, 0}},
		{"non increasing", []int{10, 10}, []float64{0.5, 0.5, 0.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewAdaptiveBernoulli(c.bound, c.probs)
		})
	}
}

func TestEffectiveRate(t *testing.T) {
	a := NewAdaptiveBernoulli([]int{100}, []float64{1, 0.5})
	if got := a.EffectiveRate(200); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("EffectiveRate = %v, want 0.75", got)
	}
	if got := a.EffectiveRate(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EffectiveRate(100) = %v, want 1", got)
	}
	if got := a.EffectiveRate(0); got != 0 {
		t.Fatalf("EffectiveRate(0) = %v", got)
	}
}
