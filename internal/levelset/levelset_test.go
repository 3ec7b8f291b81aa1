package levelset

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/workload"
)

func zipfStream(n, m int, s float64, seed uint64) stream.Slice {
	r := rng.New(seed)
	z := rng.NewZipf(m, s)
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(z.Draw(r))
	}
	return out
}

// binom returns G = C(·, ℓ), so Sum(binom(ℓ)) is C̃_ℓ.
func binom(l int) func(uint64) float64 {
	return func(c uint64) float64 { return stream.BinomialCoeff(c, l) }
}

func feed(e *Estimator, s stream.Slice) {
	for _, it := range s {
		e.Observe(it)
	}
}

func TestExactCounter(t *testing.T) {
	c := NewExactCounter()
	for _, it := range (stream.Slice{1, 1, 1, 2, 2, 3}) {
		c.Observe(it)
	}
	if c.counts.N() != 6 {
		t.Fatalf("N = %d", c.counts.N())
	}
	fed := c.SpaceBytes()
	if got := c.Sum(binom(2)); got != 3+1 {
		t.Fatalf("C2 = %v, want 4", got)
	}
	if got := c.Sum(binom(3)); got != 1 {
		t.Fatalf("C3 = %v, want 1", got)
	}
	if c.SpaceBytes() != fed {
		t.Fatalf("SpaceBytes after the estimates = %d, want %d: an estimate writes nothing", c.SpaceBytes(), fed)
	}
	// Settling orders the store where it lies: the two slabs three appends
	// grew (four entries each), no index. Merged, they are exact.
	c.Settle()
	if c.SpaceBytes() != 16*4 {
		t.Fatalf("SpaceBytes = %d", c.SpaceBytes())
	}
	acc := NewExactCounter()
	if err := acc.MergeCounter(c); err != nil || acc.SpaceBytes() != 16*3 {
		t.Fatalf("merged SpaceBytes = %d (%v)", acc.SpaceBytes(), err)
	}
}

func TestEstimatorExactModeWhenBudgetLarge(t *testing.T) {
	// With budget ≥ distinct items, T stays 0 and counts are exact, so
	// the estimate equals the exact C_ℓ.
	s := zipfStream(20000, 500, 1.1, 1)
	f := stream.NewFreq(s)
	e := New(Config{EpsPrime: 0.1, Budget: 10000, Reps: 3}, rng.New(2))
	feed(e, s)
	for _, lvl := range e.ThresholdLevels() {
		if lvl != 0 {
			t.Fatalf("threshold raised with ample budget: %v", e.ThresholdLevels())
		}
	}
	for l := 2; l <= 4; l++ {
		exact := f.Collisions(l)
		got := e.Sum(binom(l))
		if math.Abs(got-exact) > 1e-6*exact {
			t.Fatalf("C%d = %v, exact %v", l, got, exact)
		}
	}
}

func TestSumOfOneIsDistinctCount(t *testing.T) {
	// In exact mode every item is tracked at its true count, so G ≡ 1
	// sums to the number of distinct items.
	s := zipfStream(30000, 100, 1.0, 9)
	e := New(Config{EpsPrime: 0.2, Budget: 10000, Reps: 3}, rng.New(10))
	feed(e, s)
	if got, d := e.Sum(func(uint64) float64 { return 1 }), float64(stream.NewFreq(s).F0()); got != d {
		t.Fatalf("Sum(1) = %v, distinct = %v", got, d)
	}
}

func TestEstimatorUnderBudgetPressure(t *testing.T) {
	// Budget forces subsampling; the estimate should still land
	// within a reasonable factor of the truth for C2 on a collision-rich
	// stream.
	s := zipfStream(200000, 20000, 1.3, 5)
	f := stream.NewFreq(s)
	exact := f.Collisions(2)
	e := New(Config{EpsPrime: 0.1, Budget: 2000, Reps: 5}, rng.New(6))
	feed(e, s)
	raised := false
	for _, lvl := range e.ThresholdLevels() {
		if lvl > 0 {
			raised = true
		}
	}
	if !raised {
		t.Fatal("budget pressure did not raise any threshold (test not exercising eviction)")
	}
	got := e.Sum(binom(2))
	if got < exact/3 || got > exact*3 {
		t.Fatalf("C2 under pressure = %v, exact %v", got, exact)
	}
}

func TestEstimatorMedianUnbiasedUnderSampling(t *testing.T) {
	// Average the estimate across seeds; should approach truth.
	s := zipfStream(50000, 5000, 1.2, 7)
	exact := stream.NewFreq(s).Collisions(2)
	const trials = 30
	var sum float64
	r := rng.New(8)
	for tr := 0; tr < trials; tr++ {
		e := New(Config{EpsPrime: 0.1, Budget: 1000, Reps: 5}, r.Split())
		feed(e, s)
		sum += e.Sum(binom(2))
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.25 {
		t.Fatalf("mean C2 = %v, exact %v", mean, exact)
	}
}

// TestServedSumIsUnbiased feeds one stream of 2²⁰ draws over 2¹⁸ keys
// per workload — Zipf(1.1), Zipf(0.8) and uniform — to 16 estimators at
// Budget 4096 and ε′ = 0.025, and requires the mean relative error of C̃₂
// to stay within ±1 % on each. The paper's banded sum, which prices every
// band member at its band's lower edge, reads 2–4 % low here.
func TestServedSumIsUnbiased(t *testing.T) {
	const n, m, seeds = 1 << 20, 1 << 18, 16
	for _, wl := range []workload.Workload{
		workload.Zipf(n, m, 1.1, 1),
		workload.Zipf(n, m, 0.8, 2),
		workload.Uniform(n, m, 3),
	} {
		s := stream.Collect(wl.Stream)
		exact := stream.NewFreq(s).Collisions(2)
		r := rng.New(4)
		var sum float64
		for range seeds {
			e := New(Config{EpsPrime: 0.025, Budget: 4096}, r.Split())
			e.UpdateBatch(s)
			sum += (e.Sum(binom(2)) - exact) / exact
		}
		if bias := sum / seeds; math.Abs(bias) > 0.01 {
			t.Errorf("%s: mean relative error of C̃₂ %+.2f %%, want within ±1 %%", wl.Name, 100*bias)
		} else {
			t.Logf("%s: mean relative error of C̃₂ %+.3f %%", wl.Name, 100*bias)
		}
	}
}

func TestEstimatorNoGrossOverestimate(t *testing.T) {
	// Theorem 2's property: the estimate never grossly overestimates,
	// even for streams with almost no collisions. With all-distinct
	// input, C2 = 0 and the estimate must be 0 or tiny.
	var s stream.Slice
	for i := 1; i <= 100000; i++ {
		s = append(s, stream.Item(i))
	}
	for seed := uint64(1); seed <= 10; seed++ {
		e := New(Config{EpsPrime: 0.1, Budget: 500, Reps: 5}, rng.New(seed))
		feed(e, s)
		if got := e.Sum(binom(2)); got != 0 {
			t.Fatalf("seed %d: C2 estimate %v on collision-free stream", seed, got)
		}
	}
}

func TestEstimatorSpaceBounded(t *testing.T) {
	const budget = 500
	e := New(Config{EpsPrime: 0.1, Budget: budget, Reps: 3}, rng.New(12))
	for i := 1; i <= 300000; i++ {
		e.Observe(stream.Item(i))
	}
	// The figure is the bytes of the slices held, not a per-entry guess…
	want := e.heavy.SpaceBytes()
	for _, rs := range e.reps {
		want += 8*cap(rs.items) + 8*cap(rs.counts) + cap(rs.levels) + rs.index.SpaceBytes()
	}
	if e.SpaceBytes() != want {
		t.Fatalf("SpaceBytes = %d, want the %d bytes of the slices held", e.SpaceBytes(), want)
	}
	// …and the budget bounds it: a slab never exceeds budget+1 entries
	// (its capacity at most doubles that), a 4-byte index slot table
	// at most four times; the heavy summary adds 8 bytes of heap
	// permutation per entry.
	if bound := (budget + 1) * ((2*(24+8) + 4*4) + 3*(2*17+4*4)); want > bound {
		t.Fatalf("space %d exceeds the budget-implied bound %d", want, bound)
	}
	if empty := New(Config{EpsPrime: 0.1, Budget: 1 << 20}, rng.New(12)).SpaceBytes(); empty != 0 {
		t.Fatalf("an empty estimator reports %d bytes", empty)
	}
}

func TestEstimatorPanics(t *testing.T) {
	cases := []func(){
		func() { New(Config{EpsPrime: 0, Budget: 10}, rng.New(1)) },
		func() { New(Config{EpsPrime: 0.1, Budget: 0}, rng.New(1)) },
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

func TestEstimatorDefaultReps(t *testing.T) {
	e := New(Config{EpsPrime: 0.1, Budget: 10}, rng.New(1))
	if len(e.ThresholdLevels()) != 5 {
		t.Fatalf("default reps = %d, want 5", len(e.ThresholdLevels()))
	}
}

func BenchmarkLevelSetObserve(b *testing.B) {
	e := New(Config{EpsPrime: 0.1, Budget: 4096, Reps: 5}, rng.New(1))
	for i := 0; i < b.N; i++ {
		e.Observe(stream.Item(i%100000 + 1))
	}
}

func BenchmarkLevelSetEstimate(b *testing.B) {
	e := New(Config{EpsPrime: 0.1, Budget: 4096, Reps: 5}, rng.New(1))
	s := zipfStream(100000, 10000, 1.1, 2)
	feed(e, s)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.Sum(binom(2))
	}
	_ = sink
}
