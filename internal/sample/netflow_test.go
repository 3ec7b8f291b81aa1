package sample

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func TestOneInN(t *testing.T) {
	s := make(stream.Slice, 10)
	for i := range s {
		s[i] = stream.Item(i + 1)
	}
	got := NewOneInN(3).Apply(s)
	want := stream.Slice{3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("OneInN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OneInN = %v, want %v", got, want)
		}
	}
	// N=1 keeps everything.
	if all := NewOneInN(1).Apply(s); len(all) != len(s) {
		t.Fatalf("OneInN(1) kept %d of %d", len(all), len(s))
	}
}

func TestOneInNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOneInN(0) did not panic")
		}
	}()
	NewOneInN(0)
}

func TestSampleAndHoldCountsExactAfterAdmission(t *testing.T) {
	// With p=1 the first packet admits the flow, so counts are exact.
	sh := NewSampleAndHold(1, 0, rng.New(8))
	s := stream.Slice{1, 1, 2, 1, 2, 3}
	for _, it := range s {
		sh.Observe(it)
	}
	c := sh.Counts()
	if c[1] != 3 || c[2] != 2 || c[3] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if got := sh.EstimateFreq(1); got != 3 {
		t.Fatalf("EstimateFreq(1) with p=1 = %v, want 3", got)
	}
	if got := sh.EstimateFreq(99); got != 0 {
		t.Fatalf("EstimateFreq(absent) = %v, want 0", got)
	}
}

func TestSampleAndHoldEstimateUnbiasedForLargeFlows(t *testing.T) {
	// A flow of size 1000 under p=0.05: E[estimate] ≈ 1000 once admitted.
	const f, p, trials = 1000, 0.05, 3000
	var sum float64
	admitted := 0
	r := rng.New(9)
	for tr := 0; tr < trials; tr++ {
		sh := NewSampleAndHold(p, 0, r.Split())
		for i := 0; i < f; i++ {
			sh.Observe(42)
		}
		if est := sh.EstimateFreq(42); est > 0 {
			sum += est
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("flow never admitted")
	}
	mean := sum / float64(admitted)
	if math.Abs(mean-f)/f > 0.03 {
		t.Fatalf("sample-and-hold estimate mean %v, want ≈ %v", mean, f)
	}
}

func TestSampleAndHoldCap(t *testing.T) {
	sh := NewSampleAndHold(1, 2, rng.New(10))
	for i := 1; i <= 5; i++ {
		sh.Observe(stream.Item(i))
	}
	if len(sh.Counts()) != 2 {
		t.Fatalf("table size %d, want 2", len(sh.Counts()))
	}
}

func TestSampleAndHoldPanics(t *testing.T) {
	for _, p := range []float64{0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSampleAndHold(%v) did not panic", p)
				}
			}()
			NewSampleAndHold(p, 0, rng.New(1))
		}()
	}
}
