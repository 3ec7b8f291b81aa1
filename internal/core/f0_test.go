package core

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func distinctStream(d, repeats int) stream.Slice {
	var s stream.Slice
	for i := 1; i <= d; i++ {
		for j := 0; j < repeats; j++ {
			s = append(s, stream.Item(i))
		}
	}
	return s
}

func TestF0WithinLemma8Bound(t *testing.T) {
	// Multiplicative error ≤ 4/√p w.h.p. across workloads and p.
	for _, tc := range []struct {
		name string
		s    stream.Slice
	}{
		{"distinct", distinctStream(20000, 1)},
		{"repeated", distinctStream(5000, 10)},
		{"zipf", zipfStream(50000, 8000, 1.0, 1)},
	} {
		exact := float64(stream.NewFreq(tc.s).F0())
		for _, p := range []float64{0.5, 0.1, 0.05} {
			b := sample.NewBernoulli(p)
			r := rng.New(42)
			L := b.Apply(tc.s, r.Split())
			e := NewF0Estimator(F0Config{P: p}, r.Split())
			for _, it := range L {
				e.Observe(it)
			}
			got := e.Estimate()
			mult := math.Max(got/exact, exact/got)
			if mult > e.ErrorBound() {
				t.Fatalf("%s p=%v: estimate %v vs exact %v, mult error %v > bound %v",
					tc.name, p, got, exact, mult, e.ErrorBound())
			}
		}
	}
}

func TestF0SampledEstimateTracksF0L(t *testing.T) {
	s := distinctStream(10000, 1)
	const p = 0.3
	b := sample.NewBernoulli(p)
	r := rng.New(3)
	L := b.Apply(s, r.Split())
	e := NewF0Estimator(F0Config{P: p}, r.Split())
	for _, it := range L {
		e.Observe(it)
	}
	exactL := float64(stream.NewFreq(L).F0())
	got := e.SampledEstimate()
	if math.Abs(got-exactL)/exactL > 0.15 {
		t.Fatalf("sampled estimate %v, F0(L) = %v", got, exactL)
	}
}

func TestGEEMoreAccurateThanWorstCase(t *testing.T) {
	// On a repeat-heavy stream GEE sees every item ≥ twice in L with high
	// probability and is nearly exact — far better than 4/√p.
	s := distinctStream(3000, 50)
	const p = 0.1
	b := sample.NewBernoulli(p)
	r := rng.New(4)
	L := b.Apply(s, r.Split())
	gee := NewGEEF0Estimator(p)
	for _, it := range L {
		gee.Observe(it)
	}
	got := gee.Estimate()
	if math.Abs(got-3000)/3000 > 0.05 {
		t.Fatalf("GEE estimate %v, exact 3000", got)
	}
}

func TestGEEAllSingletons(t *testing.T) {
	// All-distinct stream: GEE = |L|/√p with E[|L|] = pn, so the estimate
	// concentrates around n√p — the √(1/p) error the lower bound allows.
	const n = 50000
	s := distinctStream(n, 1)
	const p = 0.25
	b := sample.NewBernoulli(p)
	r := rng.New(5)
	L := b.Apply(s, r.Split())
	gee := NewGEEF0Estimator(p)
	for _, it := range L {
		gee.Observe(it)
	}
	got := gee.Estimate()
	want := float64(n) * math.Sqrt(p) // n·p/√p
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("GEE singleton estimate %v, want ≈ %v", got, want)
	}
	// Its multiplicative error is ≈ 1/√p, within the Theorem 3/4 regime.
	mult := float64(n) / got
	if mult > 3/math.Sqrt(p) {
		t.Fatalf("GEE mult error %v too large", mult)
	}
}

func TestF0LowerBoundErrorCurve(t *testing.T) {
	// The bound grows as p shrinks and matches the closed form.
	prev := 0.0
	for _, p := range []float64{1.0 / 12, 0.01, 0.001} {
		got := F0LowerBoundError(p)
		want := math.Sqrt(math.Ln2 / (12 * p))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("F0LowerBoundError(%v) = %v, want %v", p, got, want)
		}
		if got <= prev {
			t.Fatalf("bound not increasing as p shrinks")
		}
		prev = got
	}
}

func TestF0Panics(t *testing.T) {
	cases := []func(){
		func() { NewF0Estimator(F0Config{P: 0}, rng.New(1)) },
		func() { NewF0Estimator(F0Config{P: 2}, rng.New(1)) },
		func() { NewGEEF0Estimator(0) },
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

func TestF0SpaceAccounting(t *testing.T) {
	e := NewF0Estimator(F0Config{P: 0.5}, rng.New(6))
	if e.SpaceBytes() <= 0 {
		t.Fatal("F0 SpaceBytes not positive")
	}
	gee := NewGEEF0Estimator(0.5)
	gee.Observe(1)
	gee.Observe(2)
	// Two slab entries of 16 bytes plus the item index while it is fed;
	// the estimate only reads, and settling orders the store, which drops
	// the index.
	fed := gee.SpaceBytes()
	if fed <= 32 {
		t.Fatalf("GEE SpaceBytes while fed = %d, want the slab and an index", fed)
	}
	gee.Estimate()
	if gee.SpaceBytes() != fed {
		t.Fatalf("GEE SpaceBytes after an estimate = %d, want %d: an estimate writes nothing", gee.SpaceBytes(), fed)
	}
	gee.Settle()
	if gee.SpaceBytes() != 32 {
		t.Fatalf("GEE SpaceBytes = %d, want 32", gee.SpaceBytes())
	}
}
