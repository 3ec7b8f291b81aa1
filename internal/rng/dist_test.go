package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiscreteMatchesWeights(t *testing.T) {
	r := New(1)
	weights := []float64{1, 2, 3, 4}
	d := NewDiscrete(weights)
	const n = 400000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[d.Draw(r)]++
	}
	total := 10.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		tol := 6 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > tol {
			t.Fatalf("weight %d: rate %v, want %v ± %v", i, got, want, tol)
		}
	}
}

func TestDiscreteSingleton(t *testing.T) {
	d := NewDiscrete([]float64{3.5})
	r := New(2)
	for i := 0; i < 100; i++ {
		if d.Draw(r) != 0 {
			t.Fatal("singleton distribution drew nonzero index")
		}
	}
}

func TestDiscreteZeroWeightNeverDrawn(t *testing.T) {
	d := NewDiscrete([]float64{1, 0, 1})
	r := New(3)
	for i := 0; i < 100000; i++ {
		if d.Draw(r) == 1 {
			t.Fatal("zero-weight index was drawn")
		}
	}
}

func TestDiscretePanics(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -1}},
		{"nan", []float64{math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"allzero", []float64{0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDiscrete(%v) did not panic", c.weights)
				}
			}()
			NewDiscrete(c.weights)
		})
	}
}

func TestDiscreteProbabilitiesProperty(t *testing.T) {
	// Property: for random small weight vectors, empirical frequencies
	// track normalized weights.
	f := func(seed uint64, raw [5]uint8) bool {
		weights := make([]float64, 0, 5)
		var total float64
		for _, v := range raw {
			w := float64(v%16) + 1
			weights = append(weights, w)
			total += w
		}
		d := NewDiscrete(weights)
		r := New(seed)
		const n = 40000
		counts := make([]int, len(weights))
		for i := 0; i < n; i++ {
			counts[d.Draw(r)]++
		}
		for i, w := range weights {
			want := w / total
			got := float64(counts[i]) / n
			if math.Abs(got-want) > 8*math.Sqrt(want*(1-want)/n)+0.005 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(4)
	z := NewZipf(1000, 1.0)
	const n = 300000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		v := z.Draw(r)
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf draw %d out of [1,1000]", v)
		}
		counts[v]++
	}
	// With s=1, P(1)/P(2) = 2.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("Zipf(1) head ratio %v, want ≈ 2", ratio)
	}
	// Item 1 should carry ≈ 1/H_1000 ≈ 13.4% of mass.
	h := 0.0
	for i := 1; i <= 1000; i++ {
		h += 1 / float64(i)
	}
	want := 1 / h
	got := float64(counts[1]) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("Zipf(1) P(1) = %v, want %v", got, want)
	}
}

func TestZipfZeroIsUniform(t *testing.T) {
	r := New(5)
	z := NewZipf(10, 0)
	const n = 200000
	counts := make([]int, 11)
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	expected := float64(n) / 10
	for i := 1; i <= 10; i++ {
		if math.Abs(float64(counts[i])-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("Zipf(0) not uniform: counts %v", counts[1:])
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		m int
		s float64
	}{{0, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%d,%v) did not panic", c.m, c.s)
				}
			}()
			NewZipf(c.m, c.s)
		}()
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(6)
	const xm, alpha = 2.0, 1.5
	for i := 0; i < 100000; i++ {
		v := Pareto(r, xm, alpha)
		if v < xm {
			t.Fatalf("Pareto below scale: %v < %v", v, xm)
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := New(7)
	const xm, alpha, n = 1.0, 2.0, 300000
	// P(X > 2) = (1/2)^2 = 0.25.
	over := 0
	for i := 0; i < n; i++ {
		if Pareto(r, xm, alpha) > 2 {
			over++
		}
	}
	got := float64(over) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Pareto tail P(X>2) = %v, want 0.25", got)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(1<<16, 1.1)
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Draw(r)
	}
	_ = sink
}
