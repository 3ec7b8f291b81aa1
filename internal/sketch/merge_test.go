package sketch

import (
	"errors"
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// splitStreams cuts a stream into `parts` contiguous substreams,
// modelling independent monitors each seeing part of the traffic.
func splitStreams(s stream.Slice, parts int) []stream.Slice {
	out := make([]stream.Slice, parts)
	chunk := len(s) / parts
	for i := 0; i < parts; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if i == parts-1 {
			hi = len(s)
		}
		out[i] = s[lo:hi]
	}
	return out
}

func TestCountMinMergeEqualsSingle(t *testing.T) {
	s := zipfStream(60000, 2000, 1.1, 1)
	whole := NewCountMin(512, 4, rng.New(7))
	for _, it := range s {
		whole.Observe(it)
	}
	parts := splitStreams(s, 3)
	merged := NewCountMin(512, 4, rng.New(7))
	for i := 1; i < 3; i++ {
		part := NewCountMin(512, 4, rng.New(7))
		for _, it := range parts[i] {
			part.Observe(it)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range parts[0] {
		merged.Observe(it)
	}
	if merged.n != whole.n {
		t.Fatalf("N %d vs %d", merged.n, whole.n)
	}
	for it := stream.Item(1); it <= 2000; it++ {
		if merged.Estimate(it) != whole.Estimate(it) {
			t.Fatalf("merged estimate differs for %d", it)
		}
	}
}

func TestCountMinMergeIncompatible(t *testing.T) {
	a := NewCountMin(512, 4, rng.New(1))
	b := NewCountMin(256, 4, rng.New(1))
	if err := a.Merge(b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("dim mismatch not detected: %v", err)
	}
	c := NewCountMin(512, 4, rng.New(2)) // different seed → different hashes
	if err := a.Merge(c); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("hash mismatch not detected: %v", err)
	}
}

func TestCountSketchMergeEqualsSingle(t *testing.T) {
	s := zipfStream(60000, 2000, 1.1, 2)
	whole := NewCountSketch(512, 5, rng.New(8))
	merged := NewCountSketch(512, 5, rng.New(8))
	half := len(s) / 2
	for _, it := range s {
		whole.Observe(it)
	}
	for _, it := range s[:half] {
		merged.Observe(it)
	}
	other := NewCountSketch(512, 5, rng.New(8))
	for _, it := range s[half:] {
		other.Observe(it)
	}
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	if merged.F2Estimate() != whole.F2Estimate() {
		t.Fatalf("merged F2 %v vs %v", merged.F2Estimate(), whole.F2Estimate())
	}
	for it := stream.Item(1); it <= 100; it++ {
		if merged.Estimate(it) != whole.Estimate(it) {
			t.Fatalf("merged estimate differs for %d", it)
		}
	}
}

func TestCountSketchMergeIncompatible(t *testing.T) {
	a := NewCountSketch(64, 3, rng.New(1))
	b := NewCountSketch(64, 3, rng.New(99))
	if err := a.Merge(b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("hash mismatch not detected: %v", err)
	}
}

func TestKMVMergeEqualsSingle(t *testing.T) {
	s := distinctStream(30000, 1)
	whole := NewKMV(256, rng.New(10))
	merged := NewKMV(256, rng.New(10))
	other := NewKMV(256, rng.New(10))
	half := len(s) / 2
	for _, it := range s {
		whole.Observe(it)
	}
	for _, it := range s[:half] {
		merged.Observe(it)
	}
	for _, it := range s[half:] {
		other.Observe(it)
	}
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	if merged.Estimate() != whole.Estimate() {
		t.Fatalf("merged KMV %v vs single-pass %v", merged.Estimate(), whole.Estimate())
	}
}

func TestKMVMergeOverlappingMonitors(t *testing.T) {
	// Monitors with overlapping item sets: union semantics, not sum.
	a := NewKMV(128, rng.New(11))
	b := NewKMV(128, rng.New(11))
	for i := 1; i <= 5000; i++ {
		a.Observe(stream.Item(i))
	}
	for i := 2501; i <= 7500; i++ {
		b.Observe(stream.Item(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Estimate()
	if math.Abs(got-7500)/7500 > 0.3 {
		t.Fatalf("union estimate %v, want ≈ 7500", got)
	}
}

func TestKMVMergeIncompatible(t *testing.T) {
	a := NewKMV(128, rng.New(1))
	b := NewKMV(64, rng.New(1))
	if err := a.Merge(b); !errors.Is(err, ErrIncompatible) {
		t.Fatal("k mismatch not detected")
	}
	c := NewKMV(128, rng.New(2))
	if err := a.Merge(c); !errors.Is(err, ErrIncompatible) {
		t.Fatal("hash mismatch not detected")
	}
}
