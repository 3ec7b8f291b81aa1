package levelset

import (
	"bytes"
	"math"
	"math/bits"
	"sort"
	"testing"

	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/wire"
)

// refRep is repState as it stood before the slab rewrite — a
// map[Item] of tracked items, probed before the level is computed —
// kept verbatim as the differential reference for observe and merge.
type refRep struct {
	hash   rng.Hash2
	counts map[stream.Item]refTracked
	T      int
	budget int
}

type refTracked struct {
	level uint8
	count uint64
}

func (rs *refRep) levelOf(it stream.Item) int {
	h := rs.hash.Hash(uint64(it)) // uniform in [0, 2^61−1)
	if h == 0 {
		return maxLevel
	}
	lvl := 61 - bits.Len64(h)
	if lvl > maxLevel {
		lvl = maxLevel
	}
	return lvl
}

func (rs *refRep) observe(it stream.Item) {
	if tracked, ok := rs.counts[it]; ok {
		tracked.count++
		rs.counts[it] = tracked
		return
	}
	lvl := rs.levelOf(it)
	if lvl < rs.T {
		return
	}
	rs.counts[it] = refTracked{level: uint8(lvl), count: 1}
	// Raise the threshold and evict until the tracked set fits the budget.
	for len(rs.counts) > rs.budget {
		rs.T++
		for key, tr := range rs.counts {
			if int(tr.level) < rs.T {
				delete(rs.counts, key)
			}
		}
		if rs.T >= maxLevel {
			break
		}
	}
}

// refRepOf copies a repetition into the reference layout.
func refRepOf(rs *repState) *refRep {
	ref := &refRep{hash: rs.hash, T: rs.T, budget: rs.budget,
		counts: make(map[stream.Item]refTracked, len(rs.items))}
	for id, it := range rs.items {
		ref.counts[it] = refTracked{level: rs.levels[id], count: rs.counts[id]}
	}
	return ref
}

// rep copies the reference back into the slab layout (in map order: the
// slab's order must not be observable).
func (rs *refRep) rep() *repState {
	out := &repState{hash: rs.hash, T: rs.T, budget: rs.budget, fed: true}
	for it, tr := range rs.counts {
		out.push(it, tr.count, tr.level)
		out.index.Put(out.items, int32(len(out.items)-1))
	}
	return out
}

// refRepMerge is repState.merge as it stood before the one-pass kernel
// (insert everything, then raise T one level at a time with a full
// eviction pass per level), kept verbatim as the differential
// reference: the kernel must leave byte-identical state.
func refRepMerge(rs, os *refRep) {
	if os.T > rs.T {
		rs.T = os.T
		for it, tr := range rs.counts {
			if int(tr.level) < rs.T {
				delete(rs.counts, it)
			}
		}
	}
	for it, tr := range os.counts {
		if int(tr.level) < rs.T {
			continue
		}
		if mine, ok := rs.counts[it]; ok {
			mine.count += tr.count
			rs.counts[it] = mine
		} else {
			rs.counts[it] = tr
		}
	}
	for len(rs.counts) > rs.budget && rs.T < maxLevel {
		rs.T++
		for it, tr := range rs.counts {
			if int(tr.level) < rs.T {
				delete(rs.counts, it)
			}
		}
	}
}

// refMerge is Estimator.Merge with the light repetitions folded by the
// reference (the heavy summary has its own reference in
// internal/sketch).
func refMerge(t *testing.T, e, other *Estimator) {
	t.Helper()
	if err := e.heavy.Merge(other.heavy); err != nil {
		t.Fatal(err)
	}
	for i := range e.reps {
		ref := refRepOf(e.reps[i])
		refRepMerge(ref, refRepOf(other.reps[i]))
		e.reps[i] = ref.rep()
	}
}

func lsOf(budget int, s stream.Slice) *Estimator {
	e := New(Config{EpsPrime: 0.05, Budget: budget}, rng.New(11))
	e.UpdateBatch(s)
	return e
}

func lsBytes(t *testing.T, e *Estimator) []byte {
	t.Helper()
	b, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func lsClone(t *testing.T, e *Estimator) *Estimator {
	t.Helper()
	c, err := wire.Decode(lsBytes(t, e), DecodeEstimator)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkLSMerge folds b into a with both implementations and requires
// byte-identical state (heavy heap layout, every T, every tracked map).
func checkLSMerge(t *testing.T, a, b *Estimator) *Estimator {
	t.Helper()
	want := lsClone(t, a)
	refMerge(t, want, b)
	bBefore := lsBytes(t, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lsBytes(t, a), lsBytes(t, want)) {
		t.Fatalf("merged state differs from the reference: T %v vs %v", a.ThresholdLevels(), want.ThresholdLevels())
	}
	if !bytes.Equal(lsBytes(t, b), bBefore) {
		t.Fatal("Merge mutated its argument")
	}
	return a
}

// runOfItems is n distinct items starting at base: every tracked count
// is 1, the tie-heavy shape.
func runOfItems(base, n int) stream.Slice {
	out := make(stream.Slice, n)
	for i := range out {
		out[i] = stream.Item(base + i)
	}
	return out
}

func TestEstimatorMergeMatchesReference(t *testing.T) {
	const budget = 256
	cases := map[string][2]stream.Slice{
		"random":           {zipfStream(30000, 5000, 1.1, 1), zipfStream(30000, 5000, 1.1, 2)},
		"tie-heavy":        {runOfItems(0, 3000), runOfItems(1500, 3000)},
		"under-capacity":   {zipfStream(200, 100, 1.1, 3), zipfStream(200, 100, 1.1, 4)},
		"one-sided-full-a": {zipfStream(30000, 5000, 1.1, 5), zipfStream(50, 5000, 1.1, 6)},
		"one-sided-full-b": {zipfStream(50, 5000, 1.1, 7), zipfStream(30000, 5000, 1.1, 8)},
		"empty-receiver":   {nil, zipfStream(30000, 5000, 1.1, 9)},
		"empty-argument":   {zipfStream(30000, 5000, 1.1, 10), nil},
		"both-empty":       {nil, nil},
		"same-items":       {zipfStream(30000, 5000, 1.1, 11), zipfStream(30000, 5000, 1.1, 11)},
		"disjoint":         {runOfItems(0, 2000), runOfItems(1<<30, 2000)},
		"foreign-T-higher": {runOfItems(0, 300), runOfItems(0, 20000)},
		"many-raises":      {runOfItems(0, 250), runOfItems(1<<20, 250)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkLSMerge(t, lsOf(budget, c[0]), lsOf(budget, c[1]))
		})
	}
	t.Run("self", func(t *testing.T) {
		a := lsOf(budget, zipfStream(30000, 5000, 1.1, 12))
		want := lsClone(t, a)
		refMerge(t, want, lsClone(t, a))
		if err := a.Merge(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lsBytes(t, a), lsBytes(t, want)) {
			t.Fatal("self-merge differs from the reference")
		}
	})
	t.Run("random-shapes", func(t *testing.T) {
		r := rng.New(77)
		for trial := 0; trial < 150; trial++ {
			budget := 1 + int(r.Uint64n(48))
			na, nb := int(r.Uint64n(600)), int(r.Uint64n(600))
			m := 1 + int(r.Uint64n(400))
			checkLSMerge(t, lsOf(budget, zipfStream(na, m, 1.1, r.Uint64())), lsOf(budget, zipfStream(nb, m, 1.1, r.Uint64())))
		}
	})
}

// TestEstimatorFold16MatchesReference is the collector's shape: 16
// states folded sequentially into a fresh accumulator, checked against
// the reference after every step.
func TestEstimatorFold16MatchesReference(t *testing.T) {
	const budget = 512
	acc := New(Config{EpsPrime: 0.05, Budget: budget}, rng.New(11))
	for i := 0; i < 16; i++ {
		acc = checkLSMerge(t, acc, lsOf(budget, zipfStream(8000, 1<<16, 1.1, uint64(30+i))))
	}
	for _, T := range acc.ThresholdLevels() {
		if T == 0 {
			t.Fatalf("fold never raised a threshold: %v", acc.ThresholdLevels())
		}
	}
}

// refSum is Sum written out directly: the heavy set re-derived from the
// summary's counters, then map-ordered sums over each repetition's
// tracked items, scaled by 2^T, and the middle of the sorted per-repetition
// sums.
func refSum(e *Estimator, g func(uint64) float64) float64 {
	heavy := make(map[stream.Item]uint64)
	e.heavy.Each(func(c sketch.Counter) {
		if low := c.Count - c.Err; low > 0 && float64(c.Err) <= e.epsPrime*float64(low) {
			heavy[c.Item] = low
		}
	})
	var total float64
	for _, low := range heavy {
		total += g(low)
	}
	var vals []float64
	for _, rs := range e.reps {
		var sum float64
		for it, tr := range refRepOf(rs).counts {
			if _, isHeavy := heavy[it]; !isHeavy {
				sum += g(tr.count)
			}
		}
		vals = append(vals, sum*math.Pow(2, float64(rs.T)))
	}
	sort.Float64s(vals)
	return total + vals[len(vals)/2]
}

// TestSumMatchesReference checks Sum against refSum for G = C(·, 2), c³
// and 1 (integer terms whose totals stay below 2^53, so the sum's order
// cannot round) on fed, decoded and merged estimators.
func TestSumMatchesReference(t *testing.T) {
	gs := map[string]func(uint64) float64{
		"C2":   binom(2),
		"cube": func(c uint64) float64 { return float64(c * c * c) },
		"one":  func(uint64) float64 { return 1 },
	}
	for i, c := range []struct {
		budget int
		s      stream.Slice
	}{
		{256, nil},
		{256, zipfStream(200, 100, 1.1, 1)},
		{256, zipfStream(30000, 5000, 1.1, 2)},
		{4096, zipfStream(100000, 1<<16, 1.1, 3)},
		{64, runOfItems(0, 5000)},
	} {
		for layout, mk := range layouts(t, c.budget) {
			e := mk(c.s)
			for name, g := range gs {
				if got, want := e.Sum(g), refSum(e, g); got != want {
					t.Fatalf("case %d, %s, G = %s: Sum = %v, reference %v", i, layout, name, got, want)
				}
			}
		}
	}
}
