package quantile

import (
	"bytes"
	"encoding/binary"
	"testing"

	"substream/internal/wire"
)

// hostileSeeds forges, from a valid payload of the default targets with at
// least one sample, the v3 failure modes a quantile payload can carry: the
// rows internal/sketch's TestHostilePayloads runs for this kind, written
// out by hand because its layout walker lives in that package's tests. The
// first sample's rank width g is the first varint of the payload.
func hostileSeeds(payload []byte) [][]byte {
	count := 2 + 4 + 16*len(DefaultTargets()) + 8 // tag, version, targets, n
	g := count + 4 + 8                            // sample count, first value
	_, n := binary.Uvarint(payload[g:])
	splice := func(at, old int, repl ...byte) []byte {
		return append(append(append([]byte(nil), payload[:at]...), repl...), payload[at+old:]...)
	}
	v2 := splice(1, 1, 2)
	huge := splice(count, 4, 0, 0, 0, 0x10) // 2^28 samples
	overlong := splice(g, n, append(append([]byte(nil), payload[g:g+n-1]...), payload[g+n-1]|0x80, 0)...)
	return [][]byte{
		v2,
		huge[:count+64],
		splice(g, len(payload)-g, 0x80), // cut short mid-varint
		splice(g, n, append(bytes.Repeat([]byte{0x80}, 10), 1)...), // 11 bytes
		splice(g, n, append(bytes.Repeat([]byte{0xff}, 9), 2)...),  // past 64 bits
		overlong,
	}
}

// FuzzQuantileDecode is the package-level half of the decode no-panic
// contract (the registry-level half rides FuzzEstimatorDecode in
// internal/sketch): arbitrary bytes must either fail cleanly or produce
// a fully usable, re-serializable summary. The CKMS structural
// validation in Unmarshal — ascending values, positive widths, Σg == n —
// is what keeps a corrupt network payload from poisoning a collector
// fold.
func FuzzQuantileDecode(f *testing.F) {
	for _, n := range []int{0, 1, 511, 3_000} {
		payload, _ := marshaled(f, n, uint64(n)+89)
		f.Add(payload)
	}
	// A merged summary has weighted samples with nonzero Δ everywhere —
	// a different shape from any sequential payload.
	a := NewTargeted(DefaultTargets())
	b := NewTargeted(DefaultTargets())
	for i, v := range paretoValues(4_000, 97) {
		if i%2 == 0 {
			a.Insert(v)
		} else {
			b.Insert(v)
		}
	}
	if err := a.Merge(b); err != nil {
		f.Fatal(err)
	}
	payload, err := a.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, forged := range hostileSeeds(payload) {
		f.Add(forged)
	}
	f.Add([]byte{})
	f.Add([]byte{TagQuantile})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := wire.Decode(data, Decode)
		if err != nil {
			return
		}
		// Whatever decoded must hold the full contract.
		n := e.N()
		e.Insert(1)
		e.Insert(2.5)
		if e.N() != n+2 {
			t.Fatalf("N did not advance: %d then %d", n, e.N())
		}
		for _, tg := range e.Targets() {
			_ = e.Query(tg.Quantile)
		}
		if e.SpaceBytes() < 0 {
			t.Fatal("negative space estimate")
		}
		again, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of a decoded summary failed: %v", err)
		}
		if _, err := wire.Decode(again, Decode); err != nil {
			t.Fatalf("re-decode of a re-marshal failed: %v", err)
		}
	})
}

// TestHostileSeedsAreRefused keeps hostileSeeds honest: every row it forges
// must fail to decode, so a layout change that moves the fields it aims at
// shows up here and not as a fuzz corpus that quietly seeds nothing.
func TestHostileSeedsAreRefused(t *testing.T) {
	payload, _ := marshaled(t, 3_000, 89)
	for i, forged := range hostileSeeds(payload) {
		if _, err := wire.Decode(forged, Decode); err == nil {
			t.Errorf("hostile seed %d decoded", i)
		}
	}
}
