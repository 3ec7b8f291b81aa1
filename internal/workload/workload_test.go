package workload

import (
	"math"
	"strings"
	"testing"

	"substream/internal/stream"
)

func TestZipfWorkload(t *testing.T) {
	w := Zipf(50000, 1000, 1.1, 1)
	if w.Stream.Len() != 50000 {
		t.Fatalf("length %d", w.Stream.Len())
	}
	if err := stream.Validate(w.Stream, w.Universe); err != nil {
		t.Fatal(err)
	}
	f := stream.NewFreq(w.Stream)
	// Skewed: top item much heavier than median item.
	top := f.TopK(1)[0].Freq
	if top < 50000/100 {
		t.Fatalf("top frequency %d not skewed", top)
	}
	if !strings.Contains(w.Name, "zipf") {
		t.Fatalf("name %q", w.Name)
	}
}

func TestZipfDeterministicBySeed(t *testing.T) {
	a := Zipf(1000, 100, 1.0, 7)
	b := Zipf(1000, 100, 1.0, 7)
	sa, sb := stream.Collect(a.Stream), stream.Collect(b.Stream)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := Zipf(1000, 100, 1.0, 8)
	sc := stream.Collect(c.Stream)
	same := 0
	for i := range sa {
		if sa[i] == sc[i] {
			same++
		}
	}
	if same == len(sa) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestUniformWorkload(t *testing.T) {
	w := Uniform(100000, 500, 2)
	if err := stream.Validate(w.Stream, 500); err != nil {
		t.Fatal(err)
	}
	f := stream.NewFreq(w.Stream)
	if f.F0() != 500 {
		t.Fatalf("uniform stream covered %d of 500 items", f.F0())
	}
	// Max/min frequency ratio should be modest.
	min, max := uint64(math.MaxUint64), uint64(0)
	for _, c := range f {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(min) > 2 {
		t.Fatalf("uniform stream too skewed: max %d min %d", max, min)
	}
}

func TestAllDistinct(t *testing.T) {
	w := AllDistinct(1000)
	f := stream.NewFreq(w.Stream)
	if f.F0() != 1000 || f.F1() != 1000 {
		t.Fatalf("AllDistinct wrong: F0=%d F1=%d", f.F0(), f.F1())
	}
	if f.Collisions(2) != 0 {
		t.Fatal("AllDistinct has collisions")
	}
}

func TestConstantFreq(t *testing.T) {
	w := ConstantFreq(100, 7, 3)
	f := stream.NewFreq(w.Stream)
	if f.F0() != 100 {
		t.Fatalf("F0 = %d", f.F0())
	}
	for it, c := range f {
		if c != 7 {
			t.Fatalf("item %d has frequency %d, want 7", it, c)
		}
	}
}

func TestPlantedHH(t *testing.T) {
	w := PlantedHH(100000, 5, 8000, 50000, 4)
	if w.Stream.Len() != 100000 {
		t.Fatalf("length %d", w.Stream.Len())
	}
	f := stream.NewFreq(w.Stream)
	for i := stream.Item(1); i <= 5; i++ {
		if f[i] != 8000 {
			t.Fatalf("planted item %d frequency %d, want 8000", i, f[i])
		}
	}
	// Background items must stay far below the planted frequency.
	for it, c := range f {
		if it > 5 && c > 800 {
			t.Fatalf("background item %d too heavy: %d", it, c)
		}
	}
}

func TestF0AdversarialBothBranches(t *testing.T) {
	sawDup, sawDistinct := false, false
	for seed := uint64(0); seed < 32 && !(sawDup && sawDistinct); seed++ {
		w, dup := F0Adversarial(10000, 100, seed)
		f := stream.NewFreq(w.Stream)
		if dup {
			sawDup = true
			if f.F0() != 100 {
				t.Fatalf("dup branch F0 = %d, want 100", f.F0())
			}
		} else {
			sawDistinct = true
			if f.F0() != 10000 {
				t.Fatalf("distinct branch F0 = %d, want 10000", f.F0())
			}
		}
		if w.Stream.Len() != 10000 {
			t.Fatalf("length %d", w.Stream.Len())
		}
	}
	if !sawDup || !sawDistinct {
		t.Fatal("32 seeds did not produce both branches")
	}
}

func TestEntropyScenario1Shape(t *testing.T) {
	const n, p = 10000, 0.01
	w := EntropyScenario1(n, p)
	f := stream.NewFreq(w.Stream)
	k := int(1/(10*p)) + 1
	if int(f.F0()) != k+1 {
		t.Fatalf("F0 = %d, want %d", f.F0(), k+1)
	}
	if f[1] != uint64(n-k) {
		t.Fatalf("dominant frequency %d, want %d", f[1], n-k)
	}
	h := f.Entropy()
	if h <= 0 {
		t.Fatal("scenario 1 entropy must be positive")
	}
	// H(f) = Θ(k·lg n/n): tiny.
	if h > 0.2 {
		t.Fatalf("scenario 1 entropy %v unexpectedly large", h)
	}
}

func TestEntropyScenario1DegenerateP(t *testing.T) {
	// Tiny p would make k ≥ n; the generator must clamp.
	w := EntropyScenario1(100, 1e-6)
	if w.Stream.Len() != 100 {
		t.Fatalf("length %d", w.Stream.Len())
	}
}

func TestEntropyScenario2Shape(t *testing.T) {
	w := EntropyScenario2(4096)
	f := stream.NewFreq(w.Stream)
	if got := f.Entropy(); math.Abs(got-12) > 1e-9 {
		t.Fatalf("scenario 2 entropy %v, want 12", got)
	}
}

func TestNetFlow(t *testing.T) {
	w, table := NetFlow(200000, 5000, 1.1, 1.3, 4, 5)
	if w.Stream.Len() != 200000 {
		t.Fatalf("length %d", w.Stream.Len())
	}
	if len(table) != 5000 {
		t.Fatalf("flow table size %d", len(table))
	}
	if err := stream.Validate(w.Stream, w.Universe); err != nil {
		t.Fatal(err)
	}
	f := stream.NewFreq(w.Stream)
	// Popular flows dominate: top flow should hold a few percent of
	// packets with skew 1.1.
	top := f.TopK(1)[0]
	if float64(top.Freq)/200000 < 0.01 {
		t.Fatalf("top flow only %d packets; no skew", top.Freq)
	}
	for _, fl := range table {
		if fl.Packets < 4 {
			t.Fatalf("flow %d smaller than minPkts: %d", fl.ID, fl.Packets)
		}
	}
}

func TestNetFlowDeterministic(t *testing.T) {
	a, _ := NetFlow(10000, 100, 1.0, 1.5, 2, 9)
	b, _ := NetFlow(10000, 100, 1.0, 1.5, 2, 9)
	sa, sb := stream.Collect(a.Stream), stream.Collect(b.Stream)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("NetFlow not deterministic by seed")
		}
	}
}
