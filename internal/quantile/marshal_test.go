package quantile

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"substream/internal/wire"
)

func marshaled(t testing.TB, n int, seed uint64) ([]byte, *Estimator) {
	t.Helper()
	e := NewTargeted(DefaultTargets())
	for _, v := range paretoValues(n, seed) {
		e.Insert(v)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data, e
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 50_000} {
		data, e := marshaled(t, n, 61)
		got, err := wire.Decode(data, Decode)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.N() != e.N() {
			t.Fatalf("n=%d: round-trip N = %d, want %d", n, got.N(), e.N())
		}
		for _, tg := range DefaultTargets() {
			if got.Query(tg.Quantile) != e.Query(tg.Quantile) {
				t.Fatalf("n=%d φ=%v: round-trip query diverges", n, tg.Quantile)
			}
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("n=%d: re-marshal is not byte-identical", n)
		}
	}
}

// TestMarshalFlushesBuffer: MarshalBinary must serialize the full
// logical state — buffered values included — so two summaries that
// observed the same stream serialize identically regardless of where
// their buffers stood.
func TestMarshalFlushesBuffer(t *testing.T) {
	vals := paretoValues(700, 67) // 700 = one flush + 188 buffered
	a := NewTargeted(DefaultTargets())
	b := NewTargeted(DefaultTargets())
	for _, v := range vals {
		a.Insert(v)
		b.Insert(v)
	}
	da, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("equal logical states serialized differently")
	}
	d, err := wire.Decode(da, Decode)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 700 {
		t.Fatalf("decoded N = %d, want 700 (buffered values lost?)", d.N())
	}
}

// corruptCase rewrites one structural aspect of a valid payload; every
// rewrite must be rejected by Unmarshal with an error, never a panic and
// never a silently-wrong summary.
type corruptCase struct {
	name string
	mut  func(p []byte) []byte
}

// Payload layout offsets (after the 2-byte tag+version header):
// u32 T, T×16 bytes of targets, u64 n, u32 S, then S samples of
// (f64 value, uvarint g, uvarint Δ).
func targetCount(p []byte) uint32 { return binary.LittleEndian.Uint32(p[2:]) }
func nOffset(p []byte) int        { return 6 + int(targetCount(p))*16 }
func sampleOffset(p []byte) int   { return nOffset(p) + 12 }

// setFirstWidths re-splices the first sample's two varints, keeping the
// old value of whichever argument is negative.
func setFirstWidths(p []byte, g, delta int64) []byte {
	off := sampleOffset(p) + 8
	oldG, n1 := binary.Uvarint(p[off:])
	oldDelta, n2 := binary.Uvarint(p[off+n1:])
	if g < 0 {
		g = int64(oldG)
	}
	if delta < 0 {
		delta = int64(oldDelta)
	}
	out := append([]byte(nil), p[:off]...)
	out = binary.AppendUvarint(out, uint64(g))
	out = binary.AppendUvarint(out, uint64(delta))
	return append(out, p[off+n1+n2:]...)
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	cases := []corruptCase{
		{"wrong tag", func(p []byte) []byte {
			p[0] = 0x20
			return p
		}},
		{"wrong version", func(p []byte) []byte {
			p[1] = 0xff
			return p
		}},
		{"zero targets", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[2:], 0)
			return p
		}},
		{"huge target count", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[2:], 1<<30)
			return p
		}},
		{"target out of range", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[6:], math.Float64bits(1.5))
			return p
		}},
		{"targets out of order", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[6:], math.Float64bits(0.95))
			return p
		}},
		{"nan epsilon", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[14:], math.Float64bits(math.NaN()))
			return p
		}},
		{"huge sample count", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[nOffset(p)+8:], 1<<31-1)
			return p
		}},
		{"nan sample value", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[sampleOffset(p):], math.Float64bits(math.NaN()))
			return p
		}},
		{"inf sample value", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[sampleOffset(p):], math.Float64bits(math.Inf(1)))
			return p
		}},
		{"samples out of order", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[sampleOffset(p):], math.Float64bits(math.MaxFloat64))
			return p
		}},
		{"zero-width sample", func(p []byte) []byte { return setFirstWidths(p, 0, -1) }},
		{"width sum over n", func(p []byte) []byte { return setFirstWidths(p, 1<<40, -1) }},
		{"delta over n", func(p []byte) []byte { return setFirstWidths(p, -1, 1<<40) }},
		{"over-long width varint", func(p []byte) []byte {
			off := sampleOffset(p) + 8 // g = 1 as the two bytes 0x81 0x00
			return append(append(append([]byte(nil), p[:off]...), 0x81, 0x00), p[off+1:]...)
		}},
		{"width sum under n", func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[nOffset(p):], 1<<40)
			return p
		}},
		{"trailing garbage", func(p []byte) []byte {
			return append(p, 0xde, 0xad)
		}},
	}
	// The splice helper itself must be an identity when it changes nothing.
	if data, _ := marshaled(t, 2_000, 71); !bytes.Equal(setFirstWidths(data, -1, -1), data) {
		t.Fatal("setFirstWidths misreads the sample layout")
	}
	for _, tc := range cases {
		data, _ := marshaled(t, 2_000, 71)
		if _, err := wire.Decode(tc.mut(append([]byte(nil), data...)), Decode); err == nil {
			t.Errorf("%s: Unmarshal accepted a corrupt payload", tc.name)
		}
	}
}

// TestUnmarshalTruncations rejects every strict prefix — the payload is
// small enough to sweep exhaustively, unlike the strided registry-level
// harness in internal/sketch.
func TestUnmarshalTruncations(t *testing.T) {
	data, _ := marshaled(t, 5_000, 73)
	for cut := 0; cut < len(data); cut++ {
		if _, err := wire.Decode(data[:cut], Decode); err == nil {
			t.Fatalf("accepted a %d/%d-byte truncation", cut, len(data))
		}
	}
}

// TestUnmarshalBitFlips sweeps single-byte corruptions at every strided
// offset: decode may succeed (a flipped value bit can be a valid state)
// but must never panic, and anything it accepts must be usable.
func TestUnmarshalBitFlips(t *testing.T) {
	data, _ := marshaled(t, 5_000, 79)
	stride := 1 + len(data)/512
	for i := 0; i < len(data); i += stride {
		for _, mask := range []byte{0x01, 0xa5, 0xff} {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= mask
			e, err := wire.Decode(mutated, Decode)
			if err != nil {
				continue
			}
			e.Insert(1)
			for _, tg := range e.Targets() {
				_ = e.Query(tg.Quantile)
			}
			if _, err := e.MarshalBinary(); err != nil {
				t.Fatalf("offset %d mask %#x: re-marshal of accepted payload failed: %v", i, mask, err)
			}
		}
	}
}

// TestWireHeader pins the tag byte and version so the wire table in
// internal/server/doc.go stays honest.
func TestWireHeader(t *testing.T) {
	data, _ := marshaled(t, 10, 83)
	if TagQuantile != 0x40 || data[0] != TagQuantile {
		t.Fatalf("tag byte = %#x, want 0x40", data[0])
	}
	if data[1] != wire.WireVersion {
		t.Fatalf("version byte = %#x, want %#x", data[1], wire.WireVersion)
	}
}
