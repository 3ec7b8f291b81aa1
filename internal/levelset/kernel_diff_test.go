package levelset

import (
	"bytes"
	"fmt"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// Differential tests for the level-first slab repetitions against the
// map-first reference.

// refFeed feeds s into e item by item with the reference repetition
// (table probe first, level second); the heavy summary has its own
// reference in internal/sketch.
func refFeed(e *Estimator, s stream.Slice) {
	for i, rs := range e.reps {
		ref := refRepOf(rs)
		for _, it := range s {
			ref.observe(it)
		}
		e.reps[i] = ref.rep()
	}
	for _, it := range s {
		e.heavy.Observe(it)
	}
}

func diffStreams(budget int) map[string]stream.Slice {
	r := rng.New(42)
	runHeavy := make(stream.Slice, 0, 20000)
	for _, it := range zipfStream(800, 8*budget+3, 1.1, 7) {
		for n := 1 + r.Uint64n(40); n > 0; n-- {
			runHeavy = append(runHeavy, it)
		}
	}
	wide := make(stream.Slice, 8000)
	keys := make([]stream.Item, 6*budget+2)
	for i := range keys {
		keys[i] = stream.Item(r.Uint64() | 1<<63)
	}
	for i := range wide {
		wide[i] = keys[r.Uint64n(uint64(len(keys)))]
	}
	withZero := zipfStream(5000, 4*budget+1, 1.1, 9)
	for i := range withZero {
		withZero[i]-- // rank 1, the heaviest item, becomes key 0
	}
	return map[string]stream.Slice{
		"zipf":           zipfStream(20000, 16*budget+5, 1.1, 1),
		"run-heavy":      runHeavy,
		"distinct-storm": runOfItems(0, 40*budget), // every count 1, T raised again and again
		"under-capacity": zipfStream(3000, max(budget/2, 1), 1.1, 3),
		"key-zero":       withZero,
		"wide-keys":      wide,
		"empty":          nil,
	}
}

func feedSplits(update func([]stream.Item), items stream.Slice, sizes []int) {
	for off, si := 0, 0; off < len(items); si++ {
		end := min(off+sizes[si%len(sizes)], len(items))
		update(items[off:end])
		off = end
	}
}

func TestEstimatorUpdateMatchesReference(t *testing.T) {
	splits := [][]int{{1}, {3}, {7}, {64}, {1, 64, 1024, 3, 37}, {1 << 20}}
	for _, budget := range []int{1, 9, 64, 300} {
		for name, s := range diffStreams(budget) {
			t.Run(fmt.Sprintf("b%d/%s", budget, name), func(t *testing.T) {
				ref := lsOf(budget, nil)
				refFeed(ref, s)
				want := lsBytes(t, ref)

				one := lsOf(budget, nil)
				feed(one, s)
				if !bytes.Equal(lsBytes(t, one), want) {
					t.Fatalf("Observe state differs from the reference: T %v vs %v", one.ThresholdLevels(), ref.ThresholdLevels())
				}
				for _, sizes := range splits {
					e := lsOf(budget, nil)
					feedSplits(e.UpdateBatch, s, sizes)
					if !bytes.Equal(lsBytes(t, e), want) {
						t.Fatalf("splits %v: UpdateBatch state differs from the reference", sizes)
					}
					for ri, rs := range e.reps {
						if n := len(rs.items); len(rs.counts) != n || len(rs.levels) != n {
							t.Fatalf("rep %d: %d items, %d counts, %d levels", ri, n, len(rs.counts), len(rs.levels))
						}
						for id, it := range rs.items {
							if got, ok := rs.index.Get(rs.items, it); !ok || int(got) != id || int(rs.levels[id]) < rs.T {
								t.Fatalf("rep %d: slab[%d] = %d at level %d, index says %d, %v (T = %d)", ri, id, it, rs.levels[id], got, ok, rs.T)
							}
						}
					}
				}

				// decode → update → marshal against update → marshal.
				half := len(s) / 2
				dec := lsClone(t, lsOf(budget, s[:half]))
				dec.UpdateBatch(s[half:])
				if !bytes.Equal(lsBytes(t, dec), want) {
					t.Fatal("decode → update differs from update")
				}

				// update → Merge → update → marshal, both sides of the merge.
				third := len(s) / 3
				a, b := lsOf(budget, s[:third]), lsOf(budget, s[third:2*third])
				ra, rb := lsClone(t, a), lsClone(t, b)
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				refMerge(t, ra, rb)
				for _, side := range [][2]*Estimator{{a, ra}, {b, rb}} {
					side[0].UpdateBatch(s[2*third:])
					refFeed(side[1], s[2*third:])
					if !bytes.Equal(lsBytes(t, side[0]), lsBytes(t, side[1])) {
						t.Fatal("update after Merge differs from the reference")
					}
				}
			})
		}
	}
}
