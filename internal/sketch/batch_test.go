package sketch

import (
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/workload"
)

// zipfItems materializes a skewed test stream.
func zipfItems(n int, seed uint64) stream.Slice {
	return stream.Collect(workload.Zipf(n, 1024, 1.2, seed).Stream)
}

// TestUpdateBatchMatchesObserve checks bit-exact equivalence of the
// batched and per-item paths for the deterministic, order-insensitive
// sketches (their state is a pure function of the observed multiset).
func TestUpdateBatchMatchesObserve(t *testing.T) {
	items := zipfItems(20_000, 1)

	t.Run("countmin", func(t *testing.T) {
		a := NewCountMin(512, 4, rng.New(2))
		b := NewCountMin(512, 4, rng.New(2))
		for _, it := range items {
			a.Observe(it)
		}
		b.UpdateBatch(items)
		for _, probe := range []stream.Item{1, 2, 3, 500, 900} {
			if a.Estimate(probe) != b.Estimate(probe) {
				t.Fatalf("CountMin estimates diverge for %d", probe)
			}
		}
		if a.n != b.n {
			t.Fatalf("N %d vs %d", a.n, b.n)
		}
	})

	t.Run("countsketch", func(t *testing.T) {
		a := NewCountSketch(512, 5, rng.New(3))
		b := NewCountSketch(512, 5, rng.New(3))
		for _, it := range items {
			a.Observe(it)
		}
		b.UpdateBatch(items)
		for _, probe := range []stream.Item{1, 2, 3, 500, 900} {
			if a.Estimate(probe) != b.Estimate(probe) {
				t.Fatalf("CountSketch estimates diverge for %d", probe)
			}
		}
		if a.F2Estimate() != b.F2Estimate() {
			t.Fatal("CountSketch F2 estimates diverge")
		}
	})

	t.Run("kmv", func(t *testing.T) {
		a := NewKMV(256, rng.New(5))
		b := NewKMV(256, rng.New(5))
		for _, it := range items {
			a.Observe(it)
		}
		b.UpdateBatch(items)
		if a.Estimate() != b.Estimate() {
			t.Fatal("KMV estimates diverge")
		}
	})

	t.Run("spacesaving", func(t *testing.T) {
		a := NewSpaceSaving(64)
		b := NewSpaceSaving(64)
		for _, it := range items {
			a.Observe(it)
		}
		b.UpdateBatch(items)
		ca, cb := a.Counters(), b.Counters()
		if len(ca) != len(cb) {
			t.Fatalf("counter counts %d vs %d", len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("counter %d: %+v vs %+v", i, ca[i], cb[i])
			}
		}
	})
}

// TestSpaceSavingMerge verifies the mergeable-summaries rule: the merged
// summary must (a) keep every item whose true combined count exceeds the
// combined error bound, and (b) keep every per-item interval sound.
func TestSpaceSavingMerge(t *testing.T) {
	const k = 32
	left := zipfItems(30_000, 7)
	right := zipfItems(30_000, 8)

	a, b := NewSpaceSaving(k), NewSpaceSaving(k)
	for _, it := range left {
		a.Observe(it)
	}
	for _, it := range right {
		b.Observe(it)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}

	truth := make(stream.Freq)
	for _, it := range left {
		truth[it]++
	}
	for _, it := range right {
		truth[it]++
	}
	n := truth.F1()
	if got := a.n; got != n {
		t.Fatalf("merged N %d, want %d", got, n)
	}

	// Guaranteed-tracking property: f > 2N/k must be present (each side
	// contributes error at most N_side/k).
	bound := 2 * n / uint64(k)
	tracked := make(map[stream.Item]Counter)
	for _, c := range a.Counters() {
		tracked[c.Item] = c
	}
	for it, f := range truth {
		if f > bound {
			c, ok := tracked[it]
			if !ok {
				t.Fatalf("item %d (f=%d > %d) lost in merge", it, f, bound)
			}
			if f > c.Count || f < c.Count-c.Err {
				t.Fatalf("item %d: true %d outside [%d, %d]", it, f, c.Count-c.Err, c.Count)
			}
		}
	}

	if err := a.Merge(NewSpaceSaving(k + 1)); err == nil {
		t.Fatal("expected incompatible-k merge to fail")
	}
}

// TestSpaceSavingMergeExactWhenUnderCapacity: with spare capacity on both
// sides the merge must be exact (absence means a true zero).
func TestSpaceSavingMergeExactWhenUnderCapacity(t *testing.T) {
	a, b := NewSpaceSaving(64), NewSpaceSaving(64)
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			a.Observe(stream.Item(i + 1))
			b.Observe(stream.Item(i + 51))
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := uint64(i + 1)
		for _, it := range []stream.Item{stream.Item(i + 1), stream.Item(i + 51)} {
			if got := ssCount(a, it); got != want {
				t.Fatalf("item %d: estimate %d, want exact %d", it, got, want)
			}
		}
	}
	for _, c := range a.Counters() {
		if c.Err != 0 {
			t.Fatalf("item %d carries error %d in an under-capacity merge", c.Item, c.Err)
		}
	}
}
