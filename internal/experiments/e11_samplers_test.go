package experiments

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
	got := newOneInN(3).Apply(s)
	want := stream.Slice{3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("oneInN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("oneInN = %v, want %v", got, want)
		}
	}
	// n=1 keeps everything.
	if all := newOneInN(1).Apply(s); len(all) != len(s) {
		t.Fatalf("oneInN(1) kept %d of %d", len(all), len(s))
	}
}

func TestOneInNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newOneInN(0) did not panic")
		}
	}()
	newOneInN(0)
}

func TestSampleAndHoldCountsExactAfterAdmission(t *testing.T) {
	// With p=1 the first packet admits the flow, so counts are exact.
	sh := newSampleAndHold(1, rng.New(8))
	s := stream.Slice{1, 1, 2, 1, 2, 3}
	for _, it := range s {
		sh.Observe(it)
	}
	c := sh.counts
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
		sh := newSampleAndHold(p, r.Split())
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

func TestSampleAndHoldPanics(t *testing.T) {
	for _, p := range []float64{0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newSampleAndHold(%v) did not panic", p)
				}
			}()
			newSampleAndHold(p, rng.New(1))
		}()
	}
}
