package levelset

import (
	"encoding"
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// marshalStream is a small skewed stream shared by the round-trip tests.
func marshalStream(n int, seed uint64) stream.Slice {
	r := rng.New(seed)
	z := rng.NewZipf(500, 1.2)
	s := make(stream.Slice, n)
	for i := range s {
		s[i] = stream.Item(z.Draw(r))
	}
	return s
}

func TestExactCounterMarshalRoundTrip(t *testing.T) {
	c := NewExactCounter()
	for _, it := range marshalStream(20000, 1) {
		c.Observe(it)
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeExactCounter)
	if err != nil {
		t.Fatal(err)
	}
	if back.counts.N() != c.counts.N() {
		t.Fatal("N lost in round trip")
	}
	for l := 2; l <= 4; l++ {
		if back.Sum(binom(l)) != c.Sum(binom(l)) {
			t.Fatalf("C_%d differs after round trip", l)
		}
	}
	// Still mergeable.
	sib := NewExactCounter()
	sib.Observe(1)
	if err := back.MergeCounter(sib); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorMarshalRoundTrip(t *testing.T) {
	mk := func() *Estimator {
		return New(Config{EpsPrime: 0.1, Budget: 256, Reps: 3}, rng.New(7))
	}
	e := mk()
	for _, it := range marshalStream(30000, 2) {
		e.Observe(it)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeEstimator)
	if err != nil {
		t.Fatal(err)
	}
	for l := 2; l <= 3; l++ {
		if back.Sum(binom(l)) != e.Sum(binom(l)) {
			t.Fatalf("C_%d differs after round trip", l)
		}
	}
	if back.HeavyCount() != e.HeavyCount() {
		t.Fatal("heavy set differs after round trip")
	}
	// The reconstructed estimator must merge with a same-seed sibling:
	// hashes and band offset survived byte-exactly.
	sib := mk()
	for _, it := range marshalStream(5000, 3) {
		sib.Observe(it)
	}
	if err := back.Merge(sib); err != nil {
		t.Fatalf("round-tripped estimator not mergeable: %v", err)
	}
}

func TestUnmarshalCollisionCounterDispatch(t *testing.T) {
	counters := []CollisionCounter{
		NewExactCounter(),
		New(Config{EpsPrime: 0.2, Budget: 32, Reps: 3}, rng.New(1)),
	}
	for _, c := range counters {
		for _, it := range marshalStream(2000, 6) {
			c.Observe(it)
		}
		data, err := c.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Decode(data, DecodeCollisionCounter)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.Sum(binom(2)), c.Sum(binom(2)); got != want {
			t.Fatalf("%T: C_2 %v after dispatch round trip, want %v", c, got, want)
		}
	}
	// 0x12, the retired Indyk–Woodruff tag, is as unknown as any other.
	for _, tag := range []byte{0x12, 0x7f} {
		if _, err := wire.Decode([]byte{tag, wire.WireVersion}, DecodeCollisionCounter); err == nil {
			t.Fatalf("unknown tag %#x accepted", tag)
		}
	}
	if _, err := wire.Decode(nil, DecodeCollisionCounter); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestUnmarshalExactCounterRejectsSumMismatch(t *testing.T) {
	c := NewExactCounter()
	c.Observe(1)
	c.Observe(1)
	c.Observe(2)
	data, _ := c.MarshalBinary()
	// Layout: tag(1) version(1) n(8) count(4) ... — inflate n.
	bad := append([]byte{}, data...)
	bad[2] = 0xff
	if _, err := wire.Decode(bad, DecodeExactCounter); err == nil {
		t.Fatal("frequency-sum mismatch accepted")
	}
}

// TestLevelsetUnmarshalTruncatedAndBitFlipped mirrors the sketch
// package's corruption harness: all strict prefixes must be rejected and
// no single-bit flip may panic any decoder.
func TestLevelsetUnmarshalTruncatedAndBitFlipped(t *testing.T) {
	exact := NewExactCounter()
	est := New(Config{EpsPrime: 0.2, Budget: 16, Reps: 3}, rng.New(3))
	for _, it := range marshalStream(500, 8) {
		exact.Observe(it)
		est.Observe(it)
	}
	decoders := map[string]func([]byte) error{
		"ExactCounter": func(d []byte) error { _, err := wire.Decode(d, DecodeExactCounter); return err },
		"Estimator":    func(d []byte) error { _, err := wire.Decode(d, DecodeEstimator); return err },
		"dispatch":     func(d []byte) error { _, err := wire.Decode(d, DecodeCollisionCounter); return err },
	}
	for _, c := range []CollisionCounter{exact, est} {
		payload, err := c.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for name, dec := range decoders {
			for cut := 0; cut < len(payload); cut += 3 {
				if err := dec(payload[:cut]); err == nil {
					t.Fatalf("%s accepted a %d/%d-byte truncation of %T", name, cut, len(payload), c)
				}
			}
			for bit := 0; bit < 8*len(payload); bit += 5 {
				flipped := append([]byte{}, payload...)
				flipped[bit/8] ^= 1 << (bit % 8)
				_ = dec(flipped)
			}
		}
	}
}
