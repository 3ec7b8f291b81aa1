package core

import (
	"fmt"
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// relabel returns s under a random bijection on item IDs, the affine map
// x ↦ a·x + b mod 2⁶⁴ with a odd: the same frequency vector, its keys in
// another order.
func relabel(s stream.Slice, seed uint64) stream.Slice {
	r := rng.New(seed)
	a, b := stream.Item(r.Uint64()|1), stream.Item(r.Uint64())
	out := make(stream.Slice, len(s))
	for i, it := range s {
		out[i] = a*it + b
	}
	return out
}

// exactHolder is an estimator over the exact counting store.
type exactHolder[T any] interface {
	*T
	Observe(stream.Item)
	UpdateBatch([]stream.Item)
	Merge(*T) error
	MarshalBinary() ([]byte, error)
}

// answersEveryPath returns a holder's answers to s by every path a state
// takes: per-item Observe, UpdateBatch in chunks, 1–8 replicas dealt
// chunks in turn and merged into a fresh holder, and Decode(Marshal).
func answersEveryPath[T any, P exactHolder[T]](t *testing.T, s stream.Slice, fresh func() P,
	decode func(*wire.Reader) (P, error), answer func(P) []float64) map[string][]float64 {
	t.Helper()
	const chunk = 1000
	paths := map[string][]float64{}
	seq, batch := fresh(), fresh()
	for i, it := range s {
		seq.Observe(it)
		if i%chunk == 0 {
			batch.UpdateBatch(s[i:min(i+chunk, len(s))])
		}
	}
	paths["observe"], paths["batch"] = answer(seq), answer(batch)
	for shards := 1; shards <= 8; shards++ {
		replicas := make([]P, shards)
		for i := range replicas {
			replicas[i] = fresh()
		}
		for i := 0; i < len(s); i += chunk {
			replicas[i/chunk%shards].UpdateBatch(s[i:min(i+chunk, len(s))])
		}
		acc := fresh()
		for _, rep := range replicas {
			if err := acc.Merge(rep); err != nil {
				t.Fatal(err)
			}
		}
		paths[fmt.Sprintf("merge-%d", shards)] = answer(acc)
	}
	payload, err := seq.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(payload, decode)
	if err != nil {
		t.Fatal(err)
	}
	paths["decode"] = answer(back)
	return paths
}

// checkRelabelled holds every path over s and over a relabelled s to the
// bits of the first answer.
func checkRelabelled[T any, P exactHolder[T]](t *testing.T, s stream.Slice, fresh func() P,
	decode func(*wire.Reader) (P, error), answer func(P) []float64) {
	t.Helper()
	want := answersEveryPath(t, s, fresh, decode, answer)["observe"]
	for name, input := range map[string]stream.Slice{"original": s, "relabelled": relabel(s, 77)} {
		for path, got := range answersEveryPath(t, input, fresh, decode, answer) {
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s stream, %s: answer %d = %v, want %v bit for bit", name, path, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExactAnswersIgnoreRelabelling pins the exact kinds' answers to the
// frequency vector: renaming the items — which reorders every key-ordered
// slab — leaves each answer bit-identical on every path. On a key-order
// loop the entropy's float sum would move in its last bits.
func TestExactAnswersIgnoreRelabelling(t *testing.T) {
	s := zipfStream(60000, 20000, 1.05, 11)
	const p = 0.3
	t.Run("fk-exact", func(t *testing.T) {
		checkRelabelled(t, s, func() *FkEstimator {
			return NewFkEstimator(FkConfig{K: 4, P: p, Exact: true}, rng.New(1))
		}, DecodeFkEstimator, func(e *FkEstimator) []float64 { return e.Moments()[1:] })
	})
	t.Run("entropy", func(t *testing.T) {
		checkRelabelled(t, s, func() *EntropyEstimator {
			return NewEntropyEstimator(EntropyConfig{P: p}, nil)
		}, DecodeEntropyEstimator, func(e *EntropyEstimator) []float64 {
			return []float64{e.Estimate(), e.EstimateHpn(200000)}
		})
	})
	t.Run("gee", func(t *testing.T) {
		checkRelabelled(t, s, func() *GEEF0Estimator { return NewGEEF0Estimator(p) },
			DecodeGEEF0Estimator, func(e *GEEF0Estimator) []float64 { return []float64{e.Estimate()} })
	})
}
