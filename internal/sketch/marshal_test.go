package sketch

import (
	"testing"
	"testing/quick"

	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

func TestCountMinMarshalRoundTrip(t *testing.T) {
	cm := NewCountMin(256, 4, rng.New(1))
	s := zipfStream(20000, 500, 1.1, 2)
	for _, it := range s {
		cm.Observe(it)
	}
	data, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeCountMin)
	if err != nil {
		t.Fatal(err)
	}
	if back.n != cm.n || back.width != cm.width || back.depth != cm.depth {
		t.Fatal("metadata lost in round trip")
	}
	for it := stream.Item(1); it <= 500; it++ {
		if back.Estimate(it) != cm.Estimate(it) {
			t.Fatalf("estimate differs for %d", it)
		}
	}
	// The reconstructed sketch must merge with the original family.
	other := NewCountMin(256, 4, rng.New(1))
	other.Observe(7)
	if err := back.Merge(other); err != nil {
		t.Fatalf("round-tripped sketch not mergeable: %v", err)
	}
}

func TestCountSketchMarshalRoundTrip(t *testing.T) {
	cs := NewCountSketch(128, 5, rng.New(3))
	s := zipfStream(20000, 300, 1.0, 4)
	for _, it := range s {
		cs.Observe(it)
	}
	cs.Add(9, -50) // negative cells must survive
	data, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeCountSketch)
	if err != nil {
		t.Fatal(err)
	}
	if back.F2Estimate() != cs.F2Estimate() {
		t.Fatal("F2 estimate differs after round trip")
	}
	for it := stream.Item(1); it <= 300; it++ {
		if back.Estimate(it) != cs.Estimate(it) {
			t.Fatalf("estimate differs for %d", it)
		}
	}
}

func TestKMVMarshalRoundTrip(t *testing.T) {
	kmv := NewKMV(128, rng.New(5))
	for i := 1; i <= 10000; i++ {
		kmv.Observe(stream.Item(i))
	}
	data, err := kmv.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeKMV)
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != kmv.Estimate() {
		t.Fatalf("estimate differs: %v vs %v", back.Estimate(), kmv.Estimate())
	}
	// Continue observing on the reconstructed sketch: dedup state intact.
	before := back.Estimate()
	for i := 1; i <= 10000; i++ {
		back.Observe(stream.Item(i)) // all duplicates
	}
	if back.Estimate() != before {
		t.Fatal("duplicates changed reconstructed KMV (seen-set lost)")
	}
	// And merge with a sibling from the same seed.
	sib := NewKMV(128, rng.New(5))
	for i := 10001; i <= 15000; i++ {
		sib.Observe(stream.Item(i))
	}
	if err := back.Merge(sib); err != nil {
		t.Fatalf("round-tripped KMV not mergeable: %v", err)
	}
}

func TestKMVMarshalBelowK(t *testing.T) {
	kmv := NewKMV(64, rng.New(6))
	kmv.Observe(1)
	kmv.Observe(2)
	data, _ := kmv.MarshalBinary()
	back, err := wire.Decode(data, DecodeKMV)
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != 2 {
		t.Fatalf("below-k estimate %v, want 2", back.Estimate())
	}
}

func TestSpaceSavingMarshalRoundTrip(t *testing.T) {
	ss := NewSpaceSaving(64)
	s := zipfStream(30000, 2000, 1.1, 11)
	for _, it := range s {
		ss.Observe(it)
	}
	data, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeSpaceSaving)
	if err != nil {
		t.Fatal(err)
	}
	if back.n != ss.n || back.K() != ss.K() {
		t.Fatal("metadata lost in round trip")
	}
	want, got := ss.Counters(), back.Counters()
	if len(want) != len(got) {
		t.Fatalf("counter count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("counter %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	// The reconstructed summary keeps working: observe and merge.
	back.Observe(1)
	sib := NewSpaceSaving(64)
	sib.Observe(9)
	if err := back.Merge(sib); err != nil {
		t.Fatalf("round-tripped SpaceSaving not mergeable: %v", err)
	}
}

func TestTopKMarshalRoundTrip(t *testing.T) {
	tk := NewTopK(16)
	for i := 1; i <= 200; i++ {
		tk.Update(stream.Item(i), float64(i%37)*1.5)
	}
	data, err := wire.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeTopK)
	if err != nil {
		t.Fatal(err)
	}
	want, got := tk.Items(), back.Items()
	if len(want) != len(got) {
		t.Fatalf("entry count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if min := back.h.counts[back.h.heap[0]]; min != want[len(want)-1].Count {
		t.Fatalf("heap minimum %v after round trip, want %v", min, want[len(want)-1].Count)
	}
	// The rebuilt heap must keep accepting updates.
	back.Update(999, 1e9)
	if _, ok := back.h.find(999); !ok {
		t.Fatal("update after round trip lost")
	}
}

func TestUnmarshalSpaceSavingRejectsBrokenInvariants(t *testing.T) {
	// One counter (item 7, count 5) of a summary that saw 10 items, with
	// the given error bound.
	withErr := func(e uint64) []byte {
		w := &wire.Writer{}
		w.Header(TagSpaceSaving)
		w.U32(4)
		w.U64(10)
		w.U32(1)
		w.U64(7)
		w.Uvarint(5)
		w.Uvarint(e)
		return w.Bytes()
	}
	if _, err := wire.Decode(withErr(4), DecodeSpaceSaving); err != nil {
		t.Fatalf("err < count rejected: %v", err)
	}
	// err >= count wraps the certified lower bound count−err.
	for _, e := range []uint64{5, 1<<64 - 1} {
		if _, err := wire.Decode(withErr(e), DecodeSpaceSaving); err == nil {
			t.Fatalf("err %d >= count accepted", e)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cm := NewCountMin(16, 2, rng.New(8))
	data, _ := cm.MarshalBinary()

	cases := map[string][]byte{
		"empty":       {},
		"wrong tag":   append([]byte{0x7f}, data[1:]...),
		"bad version": append([]byte{data[0], 99}, data[2:]...),
		"truncated":   data[:len(data)-3],
		"trailing":    append(append([]byte{}, data...), 0xff),
	}
	for name, d := range cases {
		if _, err := wire.Decode(d, DecodeCountMin); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// Cross-type confusion.
	kmvData, _ := NewKMV(8, rng.New(9)).MarshalBinary()
	if _, err := wire.Decode(kmvData, DecodeCountMin); err == nil {
		t.Fatal("KMV bytes accepted as CountMin")
	}
	if _, err := wire.Decode(data, DecodeKMV); err == nil {
		t.Fatal("CountMin bytes accepted as KMV")
	}
}

func TestUnmarshalFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Every decoder must reject or accept, never panic.
		_, _ = wire.Decode(data, DecodeCountMin)
		_, _ = wire.Decode(data, DecodeCountSketch)
		_, _ = wire.Decode(data, DecodeKMV)
		_, _ = wire.Decode(data, DecodeSpaceSaving)
		_, _ = wire.Decode(data, DecodeTopK)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	// Random streams: round-tripped CountMin answers identically.
	f := func(seed uint64, items []uint16) bool {
		cm := NewCountMin(64, 3, rng.New(seed))
		for _, v := range items {
			cm.Observe(stream.Item(v) + 1)
		}
		data, err := cm.MarshalBinary()
		if err != nil {
			return false
		}
		back, err := wire.Decode(data, DecodeCountMin)
		if err != nil {
			return false
		}
		for _, v := range items {
			if back.Estimate(stream.Item(v)+1) != cm.Estimate(stream.Item(v)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
