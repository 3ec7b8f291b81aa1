package experiments

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func TestEntropySketchUniform(t *testing.T) {
	// 64 items, uniform: H = 6 bits.
	var s stream.Slice
	for rep := 0; rep < 200; rep++ {
		for i := 1; i <= 64; i++ {
			s = append(s, stream.Item(i))
		}
	}
	e := newEntropySketch(9, 200, rng.New(1))
	for _, it := range s {
		e.Observe(it)
	}
	got := e.Estimate()
	if math.Abs(got-6) > 0.5 {
		t.Fatalf("uniform entropy estimate %v, want ≈ 6", got)
	}
}

func TestEntropySketchConstantStream(t *testing.T) {
	e := newEntropySketch(3, 50, rng.New(2))
	for i := 0; i < 10000; i++ {
		e.Observe(7)
	}
	if got := e.Estimate(); got > 0.01 {
		t.Fatalf("constant-stream entropy %v, want ≈ 0", got)
	}
}

func TestEntropySketchEmpty(t *testing.T) {
	e := newEntropySketch(3, 10, rng.New(3))
	if got := e.Estimate(); got != 0 {
		t.Fatalf("empty estimate %v", got)
	}
}

func TestEntropySketchUnbiased(t *testing.T) {
	// E[X] = H exactly; verify the probe-level estimator over many seeds
	// on a skewed stream.
	s := zipfStream(4000, 50, 1.0, 4)
	exact := stream.NewFreq(s).Entropy()
	const trials = 400
	var sum float64
	r := rng.New(5)
	for tr := 0; tr < trials; tr++ {
		e := newEntropySketch(1, 16, r.Split())
		for _, it := range s {
			e.Observe(it)
		}
		sum += e.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.1 {
		t.Fatalf("entropy sketch mean %v, exact %v", mean, exact)
	}
}

func TestEntropySketchSkewed(t *testing.T) {
	s := zipfStream(60000, 1000, 1.2, 6)
	exact := stream.NewFreq(s).Entropy()
	e := newEntropySketch(9, 300, rng.New(7))
	for _, it := range s {
		e.Observe(it)
	}
	got := e.Estimate()
	if math.Abs(got-exact)/exact > 0.2 {
		t.Fatalf("skewed entropy estimate %v, exact %v", got, exact)
	}
}

func TestEntropySketchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newEntropySketch(0,1) did not panic")
		}
	}()
	newEntropySketch(0, 1, rng.New(1))
}

func TestEntropySketchSpaceConstant(t *testing.T) {
	e := newEntropySketch(5, 100, rng.New(8))
	before := e.SpaceBytes()
	for i := 0; i < 100000; i++ {
		e.Observe(stream.Item(i%997 + 1))
	}
	if e.SpaceBytes() != before {
		t.Fatalf("entropy sketch space grew: %d → %d", before, e.SpaceBytes())
	}
	if e.n != 100000 {
		t.Fatalf("N = %d", e.n)
	}
}

func TestEntropySketchOnSampledStream(t *testing.T) {
	// E6's arm at its size: on the sampled stream of a Zipf(1.0) stream
	// at p = 0.3 the sketch lands within a factor 2 of H(f).
	s := zipfStream(80000, 1000, 1.0, 7)
	exact := stream.NewFreq(s).Entropy()
	const p = 0.3
	r := rng.New(8)
	L := sample.NewBernoulli(p).Apply(s, r.Split())
	e := newEntropySketch(7, 400, r.Split())
	for _, it := range L {
		e.Observe(it)
	}
	if ratio := e.Estimate() / exact; ratio < 0.5 || ratio > 2 {
		t.Fatalf("sketch entropy %v, exact %v", e.Estimate(), exact)
	}
	if e.n != uint64(len(L)) {
		t.Fatalf("n = %d, want %d", e.n, len(L))
	}
}
