package core

import (
	"bytes"
	"encoding"
	"reflect"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// refF1Observe and refF2Observe are the heavy-hitter update loops as
// they stood before ObserveEstimate fused the sketch update and the
// point query: every row's hashes evaluated twice per item.
func refF1Observe(h *F1HeavyHitters, it stream.Item) {
	h.observed++
	if h.cm != nil {
		h.cm.Observe(it)
		h.tracker.Update(it, float64(h.cm.Estimate(it)))
	} else {
		h.mg.Observe(it)
		h.tracker.Update(it, float64(h.mg.Estimate(it)))
	}
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

// sameF1 compares two heavy-hitter estimators' state: their payloads, or
// for the Misra–Gries backend, which has no wire form, what it holds.
func sameF1(t *testing.T, a, b *F1HeavyHitters) bool {
	t.Helper()
	if a.cm != nil {
		return bytes.Equal(mustBytes(t, a), mustBytes(t, b))
	}
	ta, err := wire.Marshal(a.tracker)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := wire.Marshal(b.tracker)
	if err != nil {
		t.Fatal(err)
	}
	return a.observed == b.observed && reflect.DeepEqual(*a.mg, *b.mg) && bytes.Equal(ta, tb)
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
			for _, backend := range []F1Backend{F1CountMin, F1MisraGries} {
				cfg := F1HHConfig{P: 0.5, Alpha: 0.05, Backend: backend}
				ref, one, batched := NewF1HeavyHitters(cfg, rng.New(7)), NewF1HeavyHitters(cfg, rng.New(7)), NewF1HeavyHitters(cfg, rng.New(7))
				for _, it := range s {
					refF1Observe(ref, it)
					one.Observe(it)
				}
				feedSplits(batched.UpdateBatch, s, sizes)
				if !sameF1(t, one, ref) || !sameF1(t, batched, ref) {
					t.Fatalf("F1 backend %d: fused state differs from Observe+Estimate", backend)
				}
			}
			cfg := F2HHConfig{P: 0.5, Alpha: 0.2}
			ref, one, batched := NewF2HeavyHitters(cfg, rng.New(7)), NewF2HeavyHitters(cfg, rng.New(7)), NewF2HeavyHitters(cfg, rng.New(7))
			for _, it := range s {
				refF2Observe(ref, it)
				one.Observe(it)
			}
			feedSplits(batched.UpdateBatch, s, sizes)
			if want := mustBytes(t, ref); !bytes.Equal(mustBytes(t, one), want) || !bytes.Equal(mustBytes(t, batched), want) {
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
