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

// validPayloads returns one well-formed payload per serializable type in
// this package, each carrying a little state.
func validPayloads() [][]byte {
	ssSum := NewSpaceSaving(4)
	mgSum := NewMisraGries(4)
	tkSum := NewTopK(4)
	for i := 0; i < 64; i++ {
		it := stream.Item(i%9 + 1)
		ssSum.Observe(it)
		mgSum.Observe(it)
		tkSum.Update(it, float64(i))
	}
	cm, _ := NewCountMin(8, 2, rng.New(1)).MarshalBinary()
	cs, _ := NewCountSketch(8, 2, rng.New(2)).MarshalBinary()
	kv, _ := NewKMV(4, rng.New(3)).MarshalBinary()
	hl, _ := NewHLL(4, rng.New(4)).MarshalBinary()
	ss, _ := ssSum.MarshalBinary()
	mg, _ := mgSum.MarshalBinary()
	tk, _ := tkSum.MarshalBinary()
	return [][]byte{cm, cs, kv, hl, ss, mg, tk}
}

// decoders is the full decode surface of the package; corruption tests
// run every input through every decoder.
var decoders = map[string]func([]byte) error{
	"CountMin":    func(d []byte) error { _, err := wire.Decode(d, DecodeCountMin); return err },
	"CountSketch": func(d []byte) error { _, err := wire.Decode(d, DecodeCountSketch); return err },
	"KMV":         func(d []byte) error { _, err := wire.Decode(d, DecodeKMV); return err },
	"HLL":         func(d []byte) error { _, err := wire.Decode(d, DecodeHLL); return err },
	"SpaceSaving": func(d []byte) error { _, err := wire.Decode(d, DecodeSpaceSaving); return err },
	"MisraGries":  func(d []byte) error { _, err := wire.Decode(d, DecodeMisraGries); return err },
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

func FuzzUnmarshalHLL(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := wire.Decode(data, DecodeHLL)
		if err != nil {
			return
		}
		h.Observe(stream.Item(1))
		if est := h.Estimate(); est < 0 {
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

func FuzzUnmarshalMisraGries(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		mg, err := wire.Decode(data, DecodeMisraGries)
		if err != nil {
			return
		}
		mg.Observe(stream.Item(1))
		_ = mg.Estimate(stream.Item(1))
		if _, err := mg.MarshalBinary(); err != nil {
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
		if _, err := tk.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
	})
}
