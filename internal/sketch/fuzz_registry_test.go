// Registry-level fuzzing lives in an external test package so the full
// standard registry (core pulls levelset and this package) can be linked
// without an import cycle: estimator.Decode must hold the no-panic
// contract across EVERY registered tag and every component nested in one.
package sketch_test

import (
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/window"

	_ "substream/internal/core"
	_ "substream/internal/quantile"
	_ "substream/internal/sample"
)

// registryCorpus builds one well-formed payload per registry stat, each
// carrying a little state; one of fk over the exact collision counter, the
// one component no stat's default nests; and two of the window ring, both
// two-generation rings: over hh1, whose replicas carry a counter table
// each, and over fk's exact counter, whose replicas carry a sorted run.
// Every component tag rides in it as a nested child
// (TestCorpusNestsEveryComponent).
func registryCorpus(tb testing.TB) [][]byte {
	// Generous error/heaviness targets keep the summaries small: the
	// sweep below is quadratic-ish in payload size, and the race-enabled
	// CI run pays ~10x per decode.
	spec := func(stat string, exact bool) func() (estimator.Estimator, error) {
		return func() (estimator.Estimator, error) {
			return estimator.New(estimator.Spec{
				Stat: stat, P: 0.5, K: 2, Epsilon: 0.5, Alpha: 0.3, Budget: 16, Exact: exact, Seed: 3,
			})
		}
	}
	var builds []func() (estimator.Estimator, error)
	for _, stat := range estimator.Stats() {
		builds = append(builds, spec(stat, false))
	}
	ring := func(inner func() (estimator.Estimator, error)) func() (estimator.Estimator, error) {
		return func() (estimator.Estimator, error) {
			return window.Wrap(window.Config{Window: 2, EpochLen: time.Second, Clock: window.NewManualClock(), New: inner})
		}
	}
	builds = append(builds, spec("fk", true), ring(spec("hh1", false)), ring(spec("fk", true)))
	var corpus [][]byte
	for _, build := range builds {
		e, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			e.Observe(stream.Item(i%23 + 1))
		}
		payload, err := e.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, payload)
	}
	return corpus
}

// FuzzEstimatorDecode feeds arbitrary bytes to the registry's single
// decode entry point — the exact surface a collector exposes to the
// network. Any input must either fail cleanly or produce a usable,
// re-serializable estimator; no tag may panic or over-allocate.
func FuzzEstimatorDecode(f *testing.F) {
	for _, payload := range registryCorpus(f) {
		f.Add(payload)
		for _, row := range sketch.HostileRows(payload) {
			f.Add(row.Payload)
		}
	}
	for _, degenerate := range [][]byte{{}, {0x20}, {0xff, 0xff, 0xff, 0xff}} {
		f.Add(degenerate)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := estimator.Decode(data)
		// The refusal path: under a 64 KiB budget the same input decodes
		// exactly when it decoded and its tables fit.
		const budget = 64 << 10
		restore := sketch.SetMaxDecodedBytes(budget)
		_, tight := estimator.Decode(data)
		restore()
		if fits := err == nil && sketch.TableBytes(data) <= budget; fits != (tight == nil) {
			t.Fatalf("under a %d-byte budget: err = %v (unbounded: %v; tables decode to %d bytes)", budget, tight, err, sketch.TableBytes(data))
		}
		if err != nil {
			return
		}
		// A decoded estimator must be usable across the whole contract.
		e.Observe(stream.Item(1))
		e.UpdateBatch([]stream.Item{2, 3, 2})
		_ = e.Estimates()
		_ = estimator.ReportOf(e)
		if e.SpaceBytes() < 0 {
			t.Fatal("negative space estimate")
		}
		if _, err := e.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of a decoded estimator failed: %v", err)
		}
	})
}

// TestDecodeTruncationsAcrossRegistry replays the per-package truncation
// harness at the registry level: strict prefixes of every kind's payload
// must be rejected by Decode, and byte corruptions must at worst error.
// Cut and corruption points are strided so the sweep stays linear in the
// largest payload (the per-package harnesses cover every offset of the
// small ones exhaustively).
func TestDecodeTruncationsAcrossRegistry(t *testing.T) {
	for _, payload := range registryCorpus(t) {
		stride := 1 + len(payload)/128
		for cut := 0; cut < len(payload); cut += stride {
			if _, err := estimator.Decode(payload[:cut]); err == nil {
				t.Fatalf("tag %#x: accepted a %d/%d-byte truncation", payload[0], cut, len(payload))
			}
		}
		for i := 0; i < len(payload); i += stride {
			mutated := append([]byte{}, payload...)
			mutated[i] ^= 0xa5
			// May or may not decode; must not panic.
			if e, err := estimator.Decode(mutated); err == nil {
				e.Observe(stream.Item(1))
			}
		}
	}
}
