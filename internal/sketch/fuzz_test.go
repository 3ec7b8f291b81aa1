package sketch

import (
	"testing"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// Native fuzz targets for the sketch decoders: arbitrary bytes must be
// rejected cleanly or produce a usable sketch, never panic.

func seedCorpus(f *testing.F) {
	for _, p := range validPayloads() {
		f.Add(p)
		for _, row := range HostileRows(p) {
			f.Add(row.Payload)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
}

// validPayloads returns well-formed payloads of every serializable type in
// this package: one each carrying a little state, and one each of the
// table sketches and of KMV with every cell or slot in use.
func validPayloads() [][]byte {
	ssSum := NewSpaceSaving(4)
	tkSum := NewTopK(4)
	cmFull, csFull, kvFull := NewCountMin(8, 2, rng.New(5)), NewCountSketch(8, 2, rng.New(6)), NewKMV(4, rng.New(7))
	for i := 0; i < 64; i++ {
		it := stream.Item(i%9 + 1)
		ssSum.Observe(it)
		tkSum.Update(it, float64(i))
		cmFull.Observe(stream.Item(i))
		csFull.Observe(stream.Item(i))
		kvFull.Observe(stream.Item(i))
	}
	var payloads [][]byte
	for _, e := range []wire.Encoder{
		NewCountMin(8, 2, rng.New(1)), NewCountSketch(8, 2, rng.New(2)), NewKMV(4, rng.New(3)),
		ssSum, tkSum, cmFull, csFull, kvFull,
	} {
		p, _ := wire.Marshal(e)
		payloads = append(payloads, p)
	}
	return payloads
}

// decoders is the full decode surface of the package; corruption tests
// run every input through every decoder.
var decoders = map[string]func([]byte) error{
	"CountMin":    func(d []byte) error { _, err := wire.Decode(d, DecodeCountMin); return err },
	"CountSketch": func(d []byte) error { _, err := wire.Decode(d, DecodeCountSketch); return err },
	"KMV":         func(d []byte) error { _, err := wire.Decode(d, DecodeKMV); return err },
	"SpaceSaving": func(d []byte) error { _, err := wire.Decode(d, DecodeSpaceSaving); return err },
	"TopK":        func(d []byte) error { _, err := wire.Decode(d, DecodeTopK); return err },
}

// TestUnmarshalTruncatedAndBitFlipped drives every decoder over every
// strict prefix and every single-bit corruption of every valid payload:
// truncations must be rejected, and no corruption may panic. The same
// harness is replicated for the levelset and core payloads in their own
// packages.
func TestUnmarshalTruncatedAndBitFlipped(t *testing.T) {
	for _, payload := range validPayloads() {
		for name, dec := range decoders {
			for cut := 0; cut < len(payload); cut++ {
				if err := dec(payload[:cut]); err == nil {
					t.Fatalf("%s accepted a %d/%d-byte truncation", name, cut, len(payload))
				}
			}
			for bit := 0; bit < 8*len(payload); bit++ {
				flipped := append([]byte{}, payload...)
				flipped[bit/8] ^= 1 << (bit % 8)
				// A flip may survive decoding (e.g. inside a counter
				// value); the contract is no panic and no decoder crash.
				_ = dec(flipped)
			}
		}
	}
}

func FuzzUnmarshalCountMin(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := wire.Decode(data, DecodeCountMin)
		if err != nil {
			return
		}
		// A decoded sketch must be usable.
		cm.Observe(stream.Item(1))
		_ = cm.Estimate(stream.Item(1))
		if _, err := cm.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
	})
}

func FuzzUnmarshalCountSketch(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := wire.Decode(data, DecodeCountSketch)
		if err != nil {
			return
		}
		cs.Observe(stream.Item(1))
		_ = cs.Estimate(stream.Item(1))
		_ = cs.F2Estimate()
	})
}

func FuzzUnmarshalKMV(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := wire.Decode(data, DecodeKMV)
		if err != nil {
			return
		}
		s.Observe(stream.Item(1))
		if est := s.Estimate(); est < 0 {
			t.Fatalf("negative estimate %v", est)
		}
	})
}

func FuzzUnmarshalSpaceSaving(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := wire.Decode(data, DecodeSpaceSaving)
		if err != nil {
			return
		}
		ss.Observe(stream.Item(1))
		_ = ss.Counters()
		if _, err := ss.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
	})
}

func FuzzUnmarshalTopK(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tk, err := wire.Decode(data, DecodeTopK)
		if err != nil {
			return
		}
		tk.Update(stream.Item(1), 1)
		_ = tk.Items()
		if _, err := wire.Marshal(tk); err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
	})
}
