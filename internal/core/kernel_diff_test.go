package core

import (
	"bytes"
	"encoding"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
)

// refF1Observe and refF2Observe are the heavy-hitter update loops as
// they stood before ObserveEstimate fused the sketch update and the
// point query: every row's hashes evaluated twice per item.
func refF1Observe(h *F1HeavyHitters, it stream.Item) {
	h.observed++
	h.cm.Observe(it)
	h.tracker.Update(it, float64(h.cm.Estimate(it)))
}

func refF2Observe(h *F2HeavyHitters, it stream.Item) {
	h.nL++
	h.cs.Observe(it)
	if est := h.cs.Estimate(it); est > 0 {
		h.tracker.Update(it, float64(est))
	}
}

func mustBytes(t *testing.T, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func feedSplits(update func([]stream.Item), items stream.Slice, sizes []int) {
	for off, si := 0, 0; off < len(items); si++ {
		end := min(off+sizes[si%len(sizes)], len(items))
		update(items[off:end])
		off = end
	}
}

// TestHeavyHittersMatchTwoCallReference: fused Observe and UpdateBatch
// leave the bytes the Observe-then-Estimate loops left, on skewed,
// planted, tie-heavy and wide-key streams.
func TestHeavyHittersMatchTwoCallReference(t *testing.T) {
	wide := make(stream.Slice, 5000)
	r := rng.New(4)
	for i := range wide {
		wide[i] = stream.Item(r.Uint64n(64)<<56 | r.Uint64n(3)) // key 0 included
	}
	streams := map[string]stream.Slice{
		"zipf":      zipfStream(30000, 5000, 1.1, 1),
		"planted":   plantedStream(30000, 5, 2000, 4000, 2),
		"tie-storm": zipfStream(6000, 1<<20, 0.3, 3), // nearly every estimate is 1
		"wide-keys": wide,
	}
	sizes := []int{1, 64, 1024, 3, 37}
	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			cfg1 := F1HHConfig{P: 0.5, Alpha: 0.05}
			ref1, one1, batched1 := NewF1HeavyHitters(cfg1, rng.New(7)), NewF1HeavyHitters(cfg1, rng.New(7)), NewF1HeavyHitters(cfg1, rng.New(7))
			cfg2 := F2HHConfig{P: 0.5, Alpha: 0.2}
			ref2, one2, batched2 := NewF2HeavyHitters(cfg2, rng.New(7)), NewF2HeavyHitters(cfg2, rng.New(7)), NewF2HeavyHitters(cfg2, rng.New(7))
			for _, it := range s {
				refF1Observe(ref1, it)
				one1.Observe(it)
				refF2Observe(ref2, it)
				one2.Observe(it)
			}
			feedSplits(batched1.UpdateBatch, s, sizes)
			feedSplits(batched2.UpdateBatch, s, sizes)
			if want := mustBytes(t, ref1); !bytes.Equal(mustBytes(t, one1), want) || !bytes.Equal(mustBytes(t, batched1), want) {
				t.Fatal("F1: fused state differs from Observe+Estimate")
			}
			if want := mustBytes(t, ref2); !bytes.Equal(mustBytes(t, one2), want) || !bytes.Equal(mustBytes(t, batched2), want) {
				t.Fatal("F2: fused state differs from Observe+Estimate")
			}
		})
	}
}

// TestUpdateBatchSteadyStateAllocFree: once a full estimator's slabs,
// heaps and index tables have reached their working size, UpdateBatch
// allocates nothing — evictions compact in place and re-point the same
// table.
func TestUpdateBatchSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := zipfStream(1<<16, 1<<20, 1.1, 5)
	for name, e := range map[string]interface{ UpdateBatch([]stream.Item) }{
		"fk":  NewFkEstimator(FkConfig{K: 2, P: 1, Budget: 512}, rng.New(1)),
		"hh1": NewF1HeavyHitters(F1HHConfig{P: 1, Alpha: 0.01}, rng.New(1)),
		"hh2": NewF2HeavyHitters(F2HHConfig{P: 1, Alpha: 0.1}, rng.New(1)),
	} {
		for i := 0; i < 4; i++ {
			e.UpdateBatch(s) // fill every structure and settle the thresholds
		}
		off := 0
		if avg := testing.AllocsPerRun(50, func() {
			e.UpdateBatch(s[off : off+1024])
			off = (off + 1024) % len(s)
		}); avg != 0 {
			t.Errorf("%s: steady-state UpdateBatch allocates %.2f times per 1024-item batch, want 0", name, avg)
		}
	}
}
