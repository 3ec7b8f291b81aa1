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

func TestKMVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKMV(1) did not panic")
		}
	}()
	NewKMV(1, rng.New(1))
}

func BenchmarkKMVObserve(b *testing.B) {
	kmv := NewKMV(1024, rng.New(1))
	for i := 0; i < b.N; i++ {
		kmv.Observe(stream.Item(i + 1))
	}
}
