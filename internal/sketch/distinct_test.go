package sketch

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func distinctStream(d int, repeats int) stream.Slice {
	var s stream.Slice
	for i := 1; i <= d; i++ {
		for j := 0; j < repeats; j++ {
			s = append(s, stream.Item(i))
		}
	}
	return s
}

func TestKMVExactBelowK(t *testing.T) {
	kmv := NewKMV(100, rng.New(1))
	for _, it := range distinctStream(50, 3) {
		kmv.Observe(it)
	}
	if got := kmv.Estimate(); got != 50 {
		t.Fatalf("KMV below-k estimate %v, want exactly 50", got)
	}
}

func TestKMVAccuracy(t *testing.T) {
	const d = 100000
	kmv := NewKMV(1024, rng.New(2))
	for _, it := range distinctStream(d, 1) {
		kmv.Observe(it)
	}
	got := kmv.Estimate()
	relErr := math.Abs(got-d) / d
	// Relative error ~ 1/sqrt(1024) ≈ 3%; allow 5 standard errors.
	if relErr > 0.16 {
		t.Fatalf("KMV estimate %v for %d distinct (rel err %v)", got, d, relErr)
	}
}

func TestKMVDuplicatesIgnored(t *testing.T) {
	a := NewKMV(64, rng.New(3))
	b := NewKMV(64, rng.New(3))
	for _, it := range distinctStream(1000, 1) {
		a.Observe(it)
	}
	for _, it := range distinctStream(1000, 7) {
		b.Observe(it)
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("duplicates changed KMV estimate: %v vs %v", a.Estimate(), b.Estimate())
	}
}

func TestKMVUnbiasedAcrossSeeds(t *testing.T) {
	const d, trials = 5000, 300
	s := distinctStream(d, 1)
	var sum float64
	r := rng.New(4)
	for tr := 0; tr < trials; tr++ {
		kmv := NewKMV(256, r.Split())
		for _, it := range s {
			kmv.Observe(it)
		}
		sum += kmv.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-d)/d > 0.02 {
		t.Fatalf("KMV mean across seeds %v, want ≈ %d", mean, d)
	}
}

func TestKMVWithError(t *testing.T) {
	kmv := NewKMVWithError(0.1, rng.New(5))
	if kmv.k < 400 {
		t.Fatalf("KMV k=%d too small for eps=0.1", kmv.k)
	}
	if kmv.SpaceBytes() <= 0 {
		t.Fatal("SpaceBytes not positive")
	}
}

func TestKMVPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewKMV(1, rng.New(1)) },
		func() { NewKMVWithError(0, rng.New(1)) },
		func() { NewKMVWithError(1, rng.New(1)) },
	} {
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

func TestHLLAccuracyAcrossScales(t *testing.T) {
	for _, d := range []int{100, 10000, 300000} {
		h := NewHLL(12, rng.New(uint64(d)))
		for i := 1; i <= d; i++ {
			h.Observe(stream.Item(i))
		}
		got := h.Estimate()
		relErr := math.Abs(got-float64(d)) / float64(d)
		// 1.04/sqrt(4096) ≈ 1.6%; allow generous 8%.
		if relErr > 0.08 {
			t.Fatalf("HLL estimate %v for %d distinct (rel err %v)", got, d, relErr)
		}
	}
}

func TestHLLDuplicatesIgnored(t *testing.T) {
	a := NewHLL(10, rng.New(6))
	b := NewHLL(10, rng.New(6))
	for _, it := range distinctStream(2000, 1) {
		a.Observe(it)
	}
	for _, it := range distinctStream(2000, 5) {
		b.Observe(it)
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("duplicates changed HLL estimate")
	}
}

func TestHLLEmpty(t *testing.T) {
	h := NewHLL(8, rng.New(7))
	if got := h.Estimate(); got != 0 {
		t.Fatalf("empty HLL estimate %v, want 0", got)
	}
}

func TestHLLPanics(t *testing.T) {
	for _, p := range []uint{3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHLL(%d) did not panic", p)
				}
			}()
			NewHLL(p, rng.New(1))
		}()
	}
}

func TestHLLSpaceSmallerThanKMVAtSameAccuracy(t *testing.T) {
	// Sanity on the space accounting: HLL at ~1.6% error uses far less
	// space than KMV at ~3%.
	h := NewHLL(12, rng.New(8))
	kmv := NewKMV(1024, rng.New(9))
	if h.SpaceBytes() >= kmv.SpaceBytes() {
		t.Fatalf("HLL %dB >= KMV %dB", h.SpaceBytes(), kmv.SpaceBytes())
	}
}

func BenchmarkKMVObserve(b *testing.B) {
	kmv := NewKMV(1024, rng.New(1))
	for i := 0; i < b.N; i++ {
		kmv.Observe(stream.Item(i + 1))
	}
}

func BenchmarkHLLObserve(b *testing.B) {
	h := NewHLL(12, rng.New(1))
	for i := 0; i < b.N; i++ {
		h.Observe(stream.Item(i + 1))
	}
}
