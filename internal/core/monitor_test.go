package core

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
)

func TestMonitorAllStats(t *testing.T) {
	s := zipfStream(100000, 2000, 1.1, 1)
	f := stream.NewFreq(s)
	const p = 0.2
	mon := NewMonitor(MonitorConfig{P: p, HHAlpha: 0.02}, rng.New(2))
	L := sample.NewBernoulli(p).Apply(s, rng.New(3))
	for _, it := range L {
		mon.Observe(it)
	}
	rep := mon.Report()

	if rep.SampledLength != uint64(len(L)) {
		t.Fatalf("SampledLength = %d, want %d", rep.SampledLength, len(L))
	}
	if math.Abs(rep.EstimatedLength-float64(len(s)))/float64(len(s)) > 0.05 {
		t.Fatalf("EstimatedLength = %v, want ≈ %d", rep.EstimatedLength, len(s))
	}
	exactF2 := f.Fk(2)
	if math.Abs(rep.Fk-exactF2)/exactF2 > 0.4 {
		t.Fatalf("Fk = %v, exact %v", rep.Fk, exactF2)
	}
	mult := math.Max(rep.F0/float64(f.F0()), float64(f.F0())/rep.F0)
	if mult > 4/math.Sqrt(p) {
		t.Fatalf("F0 = %v, exact %d (mult %v)", rep.F0, f.F0(), mult)
	}
	exactH := f.Entropy()
	if ratio := rep.Entropy / exactH; ratio < 0.5 || ratio > 2 {
		t.Fatalf("Entropy = %v, exact %v", rep.Entropy, exactH)
	}
	// Every true 2% F1 hitter is reported.
	for _, hh := range f.FkHeavyHitters(1, 0.02) {
		found := false
		for _, r := range rep.F1HeavyHitters {
			if r.Item == hh.Item {
				found = true
			}
		}
		if !found {
			t.Fatalf("monitor missed F1 heavy hitter %d", hh.Item)
		}
	}
	if mon.SpaceBytes() <= 0 {
		t.Fatal("SpaceBytes not positive")
	}
}

func TestMonitorLargeAlphaClamped(t *testing.T) {
	// Regression: HHAlpha near 1 must not push the derived F₂ threshold
	// out of its (0, 1) domain.
	mon := NewMonitor(MonitorConfig{P: 0.5, HHAlpha: 0.4}, rng.New(20))
	for i := 0; i < 100; i++ {
		mon.Observe(stream.Item(i%5 + 1))
	}
	if rep := mon.Report(); rep.SampledLength != 100 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestMonitorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMonitor(P=0) did not panic")
		}
	}()
	NewMonitor(MonitorConfig{P: 0}, rng.New(1))
}

func TestMonitorEmptyReport(t *testing.T) {
	mon := NewMonitor(MonitorConfig{P: 0.5}, rng.New(6))
	rep := mon.Report()
	if rep.SampledLength != 0 || rep.EstimatedLength != 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}
