package estimator_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"substream/internal/estimator"
	"substream/internal/stream"
	"substream/internal/workload"

	// Register every standard kind, including the quantile summary, so
	// the registry-driven suites below cover them all.
	_ "substream/internal/core"
	_ "substream/internal/quantile"
	_ "substream/internal/sample"
)

// This file pins the library-wide batching contract: for EVERY registry
// stat, and fk over the exact counter, UpdateBatch over any partition of a
// stream produces serialized state bit-identical to item-by-item
// Observe. The batch kernels in sketch/levelset/core are free to
// reorganize work (row-major loops, run-length map amortization, KMV
// threshold prefilters) but never to change state — a regression here
// means shards, agents, and replayed streams silently diverge.

// equivSpec sizes every kind small enough that counter-based summaries
// overflow their budgets (exercising eviction and replace-min paths) while
// table-based sketches stay test-fast.
func equivSpec(stat string) estimator.Spec {
	return estimator.Spec{
		Stat: stat, P: 0.3, K: 3, Epsilon: 0.25, Alpha: 0.1, Budget: 96, Seed: 99,
	}
}

// equivSpecs are the specs the suites below run, by subtest name: every
// stat's, and fk's over the exact collision counter, which no stat's
// default nests.
func equivSpecs() map[string]estimator.Spec {
	specs := map[string]estimator.Spec{}
	for _, stat := range estimator.Stats() {
		specs[stat] = equivSpec(stat)
	}
	exact := equivSpec("fk")
	exact.Exact = true
	specs["fk-exact"] = exact
	return specs
}

// equivStream is a skewed stream over a small universe: heavy items form
// long presence (exercising the run-length fast paths), the tail churns
// the eviction paths.
func equivStream(n int, seed uint64) stream.Slice {
	return stream.Collect(workload.Zipf(n, 2048, 1.2, seed).Stream)
}

// feedBatches partitions items into consecutive batches of the given
// sizes, cycling through sizes until the stream is consumed.
func feedBatches(e estimator.Estimator, items stream.Slice, sizes []int) {
	si := 0
	for off := 0; off < len(items); {
		size := sizes[si%len(sizes)]
		si++
		end := off + size
		if end > len(items) {
			end = len(items)
		}
		e.UpdateBatch(items[off:end])
		off = end
	}
}

func TestBatchObserveBitEquivalence(t *testing.T) {
	items := equivStream(12_000, 1)
	splits := [][]int{
		{1},                  // batch path driven one item at a time
		{64},                 // chunk-sized batches
		{1024},               // pipeline-sized batches
		{7},                  // batches straddling run boundaries
		{1, 64, 1024, 3, 37}, // mixed partition
	}
	for name, spec := range equivSpecs() {
		t.Run(name, func(t *testing.T) {
			ref, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				ref.Observe(it)
			}
			want, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, sizes := range splits {
				e, err := estimator.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				feedBatches(e, items, sizes)
				got, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("splits %v: batched state diverges from Observe state (%d vs %d bytes)",
						sizes, len(got), len(want))
				}
			}
			// An empty batch must be a no-op, not a state change.
			e, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				e.Observe(it)
			}
			e.UpdateBatch(nil)
			got, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("UpdateBatch(nil) changed serialized state")
			}
		})
	}
}

// FuzzBatchSplit fuzzes the same invariant over arbitrary streams and
// arbitrary split points: however a stream is cut into batches, the
// serialized state must match per-item observation for every
// constructible kind.
func FuzzBatchSplit(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint64(1))
	f.Add(bytes.Repeat([]byte{9}, 64), uint64(7))
	seed := equivStream(96, 3)
	buf := make([]byte, 0, 8*len(seed))
	for _, it := range seed {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it))
	}
	f.Add(buf, uint64(5))
	// The shapes the slab/index update kernels special-case: long runs of
	// one item, more distinct items than any budget (replace-min and
	// eviction storms at one shared count), and keys that differ only in
	// their high bits.
	for _, shape := range []func(i int) uint64{
		func(i int) uint64 { return uint64(3 + i/29) },
		func(i int) uint64 { return uint64(1000 + i) },
		func(i int) uint64 { return uint64(i%41+1)<<56 | 1 },
	} {
		buf = buf[:0]
		for i := 0; i < 128; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, shape(i))
		}
		f.Add(bytes.Clone(buf), uint64(11))
	}
	f.Fuzz(func(t *testing.T, data []byte, splitSeed uint64) {
		items := make(stream.Slice, 0, len(data)/8)
		for off := 0; off+8 <= len(data) && len(items) < 128; off += 8 {
			v := binary.LittleEndian.Uint64(data[off:])
			if v == 0 {
				v = 1 // items are 1-based
			}
			items = append(items, stream.Item(v))
		}
		if len(items) == 0 {
			return
		}
		// Derive a deterministic split pattern from splitSeed: sizes in
		// [1, 17], enough to land splits inside and across runs.
		sizes := make([]int, 4)
		s := splitSeed
		for i := range sizes {
			s = s*6364136223846793005 + 1442695040888963407
			sizes[i] = int(s>>33)%17 + 1
		}
		for name, spec := range equivSpecs() {
			ref, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				ref.Observe(it)
			}
			want, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			e, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			feedBatches(e, items, sizes)
			got, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("kind %s, splits %v: batched state diverges from Observe state", name, sizes)
			}
		}
	})
}

// TestBatchEquivalenceCoversRegistry fails when a registered stat would
// silently skip the equivalence suite — the test above iterates Stats()
// live, so this is a tripwire against the registry and the suite drifting
// apart (e.g. a kind registered under a name the spec defaults cannot
// construct) — and pins the stats: the nine that answer about P, besides
// the demo kind this package registers.
func TestBatchEquivalenceCoversRegistry(t *testing.T) {
	for name, spec := range equivSpecs() {
		if _, err := estimator.New(spec); err != nil {
			t.Errorf("kind %q cannot be built with the equivalence spec: %v", name, err)
		}
	}
	want := []string{"all", "entropy", "f0", "fk", "gee", "hh1", "hh2", "quantile", "varopt"}
	if got := slices.DeleteFunc(estimator.Stats(), func(stat string) bool { return stat == "demo-f1" }); !slices.Equal(got, want) {
		t.Fatalf("registry stats are %v, want %v — registration imports missing, or a kind that answers nothing about P?", got, want)
	}
}
