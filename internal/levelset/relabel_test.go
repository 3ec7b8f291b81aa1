package levelset

import (
	"math"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// TestExactCounterIgnoresRelabelling renames the items of a stream by a
// random bijection (x ↦ a·x + b mod 2⁶⁴, a odd), which reorders every
// key-ordered slab, and requires C_ℓ for ℓ = 2…4 to stay bit-identical
// through Observe, UpdateBatch, a 1–8-replica MergeCounter and
// Decode(Marshal), on a fed store as on an ordered one.
func TestExactCounterIgnoresRelabelling(t *testing.T) {
	s := marshalStream(40000, 9)
	r := rng.New(10)
	a, b := stream.Item(r.Uint64()|1), stream.Item(r.Uint64())
	moved := make(stream.Slice, len(s))
	for i, it := range s {
		moved[i] = a*it + b
	}
	answer := func(c *ExactCounter) [3]float64 {
		return [3]float64{c.Sum(binom(2)), c.Sum(binom(3)), c.Sum(binom(4))}
	}
	want := NewExactCounter()
	for _, it := range s {
		want.Observe(it)
	}
	check := func(path string, c *ExactCounter) {
		t.Helper()
		got, w := answer(c), answer(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: C_%d = %v, want %v bit for bit", path, i+2, got[i], w[i])
			}
		}
	}
	for name, input := range map[string]stream.Slice{"original": s, "relabelled": moved} {
		seq, batch := NewExactCounter(), NewExactCounter()
		for _, it := range input {
			seq.Observe(it)
		}
		batch.UpdateBatch(input)
		check(name+" observe", seq)
		check(name+" batch", batch)
		for shards := 1; shards <= 8; shards++ {
			replicas := make([]*ExactCounter, shards)
			for i := range replicas {
				replicas[i] = NewExactCounter()
			}
			for i, it := range input {
				replicas[i%shards].Observe(it)
			}
			acc := NewExactCounter()
			for _, rep := range replicas {
				if err := acc.MergeCounter(rep); err != nil {
					t.Fatal(err)
				}
			}
			check(name+" merge", acc)
		}
		payload, err := seq.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Decode(payload, DecodeExactCounter)
		if err != nil {
			t.Fatal(err)
		}
		check(name+" decode", back)
	}
}
