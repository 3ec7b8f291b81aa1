package sketch

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

func TestCountSketchPointEstimates(t *testing.T) {
	s := zipfStream(100000, 2000, 1.2, 1)
	cs := NewCountSketch(1024, 5, rng.New(2))
	for _, it := range s {
		cs.Observe(it)
	}
	f := stream.NewFreq(s)
	// Additive error bound ≈ 3·sqrt(F2/width) per row; median tightens it.
	bound := 4 * math.Sqrt(f.Fk(2)/1024)
	bad := 0
	for it, c := range f {
		if math.Abs(float64(cs.Estimate(it))-float64(c)) > bound {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(f)); frac > 0.02 {
		t.Fatalf("%.3f of items exceeded CountSketch error bound %v", frac, bound)
	}
}

func TestCountSketchUnbiased(t *testing.T) {
	// Average estimate across independent sketches converges to truth.
	var s stream.Slice
	for i := 0; i < 500; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 5000; i++ {
		s = append(s, stream.Item(i%100+2))
	}
	const trials = 200
	var sum float64
	r := rng.New(3)
	for tr := 0; tr < trials; tr++ {
		cs := NewCountSketch(64, 1, r.Split()) // depth 1: no median, pure mean
		for _, it := range s {
			cs.Observe(it)
		}
		sum += float64(cs.Estimate(1))
	}
	mean := sum / trials
	if math.Abs(mean-500)/500 > 0.1 {
		t.Fatalf("CountSketch mean estimate %v, want ≈ 500", mean)
	}
}

func TestCountSketchDeletions(t *testing.T) {
	cs := NewCountSketch(256, 5, rng.New(4))
	cs.Add(7, 100)
	cs.Add(7, -40)
	got := cs.Estimate(7)
	if got != 60 {
		t.Fatalf("estimate after deletion = %d, want 60", got)
	}
}

func TestCountSketchF2Estimate(t *testing.T) {
	s := zipfStream(100000, 1000, 1.0, 5)
	f := stream.NewFreq(s)
	exact := f.Fk(2)
	cs := NewCountSketch(4096, 7, rng.New(6))
	for _, it := range s {
		cs.Observe(it)
	}
	got := cs.F2Estimate()
	if math.Abs(got-exact)/exact > 0.1 {
		t.Fatalf("F2 estimate %v, exact %v (rel err %v)", got, exact, math.Abs(got-exact)/exact)
	}
}

func TestCountSketchPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewCountSketch(0, 1, rng.New(1)) },
		func() { NewCountSketch(1, 0, rng.New(1)) },
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

func TestSketchSpaceAccounting(t *testing.T) {
	cs := NewCountSketch(100, 3, rng.New(1))
	if cs.SpaceBytes() < 8*300 {
		t.Fatalf("CountSketch SpaceBytes %d too small", cs.SpaceBytes())
	}
}

func BenchmarkCountSketchObserve(b *testing.B) {
	cs := NewCountSketch(1024, 5, rng.New(1))
	for i := 0; i < b.N; i++ {
		cs.Observe(stream.Item(i%1000 + 1))
	}
}
