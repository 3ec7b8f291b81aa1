package sketch

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func zipfStream(n int, m int, s float64, seed uint64) stream.Slice {
	r := rng.New(seed)
	z := rng.NewZipf(m, s)
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(z.Draw(r))
	}
	return out
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	s := zipfStream(50000, 1000, 1.1, 1)
	cm := NewCountMin(256, 4, rng.New(2))
	for _, it := range s {
		cm.Observe(it)
	}
	f := stream.NewFreq(s)
	for it, c := range f {
		if est := cm.Estimate(it); est < c {
			t.Fatalf("item %d: estimate %d < true %d", it, est, c)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// With width e/ε, per-item overestimate ≤ εN with good probability;
	// check that the overwhelming majority of items obey it.
	const eps, delta = 0.01, 0.01
	s := zipfStream(100000, 5000, 1.0, 3)
	cm := NewCountMinWithError(eps, delta, rng.New(4))
	for _, it := range s {
		cm.Observe(it)
	}
	f := stream.NewFreq(s)
	bound := uint64(eps * float64(cm.n))
	bad := 0
	for it, c := range f {
		if cm.Estimate(it)-c > bound {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(f)); frac > delta*2 {
		t.Fatalf("%.3f of items exceeded εN overestimate bound, want ≤ %v", frac, delta*2)
	}
}

func TestCountMinUnseenItemSmall(t *testing.T) {
	s := zipfStream(50000, 100, 0.5, 5)
	cm := NewCountMin(512, 5, rng.New(6))
	for _, it := range s {
		cm.Observe(it)
	}
	// Items far outside the universe should estimate ≈ εN, not huge.
	bound := uint64(float64(cm.n) * 3 / 512)
	for probe := stream.Item(1 << 40); probe < 1<<40+100; probe++ {
		if est := cm.Estimate(probe); est > bound {
			t.Fatalf("unseen item estimate %d > %d", est, bound)
		}
	}
}

func TestCountMinAddCounts(t *testing.T) {
	cm := NewCountMin(64, 3, rng.New(7))
	cm.Add(42, 1000)
	cm.Observe(42)
	if got := cm.Estimate(42); got < 1001 {
		t.Fatalf("estimate %d < 1001", got)
	}
	if cm.n != 1001 {
		t.Fatalf("N = %d, want 1001", cm.n)
	}
}

func TestCountMinWithErrorDimensions(t *testing.T) {
	cm := NewCountMinWithError(0.01, 0.001, rng.New(8))
	if cm.width < 271 { // e/0.01 ≈ 271.8
		t.Fatalf("width %d too small", cm.width)
	}
	if cm.depth < 6 { // ln(1000) ≈ 6.9
		t.Fatalf("depth %d too small", cm.depth)
	}
	if cm.SpaceBytes() <= 0 {
		t.Fatal("SpaceBytes not positive")
	}
}

func TestCountMinPanics(t *testing.T) {
	cases := []func(){
		func() { NewCountMin(0, 1, rng.New(1)) },
		func() { NewCountMin(1, 0, rng.New(1)) },
		func() { NewCountMinWithError(0, 0.1, rng.New(1)) },
		func() { NewCountMinWithError(0.1, 1, rng.New(1)) },
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

func TestCountMinEmptyEstimate(t *testing.T) {
	cm := NewCountMin(16, 2, rng.New(9))
	if got := cm.Estimate(5); got != 0 {
		t.Fatalf("empty sketch estimate %d", got)
	}
}

func BenchmarkCountMinObserve(b *testing.B) {
	cm := NewCountMin(1024, 5, rng.New(1))
	for i := 0; i < b.N; i++ {
		cm.Observe(stream.Item(i%1000 + 1))
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm := NewCountMin(1024, 5, rng.New(1))
	for i := 0; i < 10000; i++ {
		cm.Observe(stream.Item(i%1000 + 1))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += cm.Estimate(stream.Item(i%1000 + 1))
	}
	_ = sink
}

func TestCountMinDeterministicWithSeed(t *testing.T) {
	build := func() *CountMin {
		cm := NewCountMin(128, 4, rng.New(99))
		for i := 0; i < 1000; i++ {
			cm.Observe(stream.Item(i%50 + 1))
		}
		return cm
	}
	a, b := build(), build()
	for i := stream.Item(1); i <= 50; i++ {
		if a.Estimate(i) != b.Estimate(i) {
			t.Fatalf("same-seed sketches disagree on %d", i)
		}
	}
}

func TestCountMinRelativeAccuracyOnHeavyItems(t *testing.T) {
	// Heavy items should be estimated within a few percent with a
	// reasonably sized sketch.
	s := zipfStream(200000, 10000, 1.3, 10)
	cm := NewCountMin(2048, 5, rng.New(11))
	for _, it := range s {
		cm.Observe(it)
	}
	f := stream.NewFreq(s)
	for _, hh := range f.TopK(5) {
		est := float64(cm.Estimate(hh.Item))
		relErr := math.Abs(est-float64(hh.Freq)) / float64(hh.Freq)
		if relErr > 0.05 {
			t.Fatalf("heavy item %d: rel err %v", hh.Item, relErr)
		}
	}
}
