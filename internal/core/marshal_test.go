package core

import (
	"bytes"
	"testing"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
	"substream/internal/workload"
)

// marshalSample returns a skewed sampled stream for round-trip tests.
func marshalSample(n int, seed uint64) stream.Slice {
	wl := workload.Zipf(n, 2000, 1.1, seed)
	return stream.Collect(wl.Stream)
}

func TestFkEstimatorMarshalRoundTrip(t *testing.T) {
	for name, cfg := range map[string]FkConfig{
		"levelset": {K: 3, P: 0.2, Budget: 256},
		"exact":    {K: 3, P: 0.2, Exact: true},
	} {
		t.Run(name, func(t *testing.T) {
			mk := func() *FkEstimator { return NewFkEstimator(cfg, rng.New(11)) }
			e := mk()
			for _, it := range marshalSample(20000, 1) {
				e.Observe(it)
			}
			data, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back, err := wire.Decode(data, DecodeFkEstimator)
			if err != nil {
				t.Fatal(err)
			}
			if back.Estimate() != e.Estimate() {
				t.Fatalf("estimate %v after round trip, want %v", back.Estimate(), e.Estimate())
			}
			if back.SampledLength() != e.SampledLength() || back.k != e.k || back.p != e.p {
				t.Fatal("metadata lost in round trip")
			}
			// Shipping must preserve mergeability with same-seed replicas.
			sib := mk()
			for _, it := range marshalSample(5000, 2) {
				sib.Observe(it)
			}
			if err := back.Merge(sib); err != nil {
				t.Fatalf("round-tripped estimator not mergeable: %v", err)
			}
		})
	}
}

func TestF0EstimatorMarshalRoundTrip(t *testing.T) {
	for name, cfg := range map[string]F0Config{
		"kmv": {P: 0.1},
	} {
		t.Run(name, func(t *testing.T) {
			mk := func() *F0Estimator { return NewF0Estimator(cfg, rng.New(13)) }
			e := mk()
			for _, it := range marshalSample(20000, 3) {
				e.Observe(it)
			}
			data, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back, err := wire.Decode(data, DecodeF0Estimator)
			if err != nil {
				t.Fatal(err)
			}
			if back.Estimate() != e.Estimate() {
				t.Fatal("estimate differs after round trip")
			}
			sib := mk()
			for _, it := range marshalSample(5000, 4) {
				sib.Observe(it)
			}
			if err := back.Merge(sib); err != nil {
				t.Fatalf("round-tripped estimator not mergeable: %v", err)
			}
		})
	}
}

func TestGEEF0EstimatorMarshalRoundTrip(t *testing.T) {
	e := NewGEEF0Estimator(0.25)
	for _, it := range marshalSample(10000, 5) {
		e.Observe(it)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeGEEF0Estimator)
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != e.Estimate() {
		t.Fatal("estimate differs after round trip")
	}
}

func TestEntropyEstimatorMarshalRoundTrip(t *testing.T) {
	e := NewEntropyEstimator(EntropyConfig{P: 0.2}, rng.New(17))
	for _, it := range marshalSample(20000, 6) {
		e.Observe(it)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeEntropyEstimator)
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != e.Estimate() {
		t.Fatal("estimate differs after round trip")
	}
	if back.SampledLength() != e.SampledLength() {
		t.Fatal("nL lost in round trip")
	}
	sib := NewEntropyEstimator(EntropyConfig{P: 0.2}, rng.New(17))
	sib.Observe(1)
	if err := back.Merge(sib); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHittersMarshalRoundTrip(t *testing.T) {
	s := marshalSample(40000, 7)
	t.Run("f1-countmin", func(t *testing.T) {
		mk := func() *F1HeavyHitters {
			return NewF1HeavyHitters(F1HHConfig{P: 0.2, Alpha: 0.05}, rng.New(23))
		}
		h := mk()
		for _, it := range s {
			h.Observe(it)
		}
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Decode(data, DecodeF1HeavyHitters)
		if err != nil {
			t.Fatal(err)
		}
		want, got := h.Report(), back.Report()
		if len(want) != len(got) {
			t.Fatalf("%d hitters after round trip, want %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("hitter %d differs: %+v vs %+v", i, got[i], want[i])
			}
		}
		sib := mk()
		sib.Observe(1)
		if err := back.Merge(sib); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("f2", func(t *testing.T) {
		mk := func() *F2HeavyHitters {
			return NewF2HeavyHitters(F2HHConfig{P: 0.2, Alpha: 0.2}, rng.New(29))
		}
		h := mk()
		for _, it := range s {
			h.Observe(it)
		}
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Decode(data, DecodeF2HeavyHitters)
		if err != nil {
			t.Fatal(err)
		}
		want, got := h.Report(), back.Report()
		if len(want) != len(got) {
			t.Fatalf("%d hitters after round trip, want %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("hitter %d differs: %+v vs %+v", i, got[i], want[i])
			}
		}
		sib := mk()
		sib.Observe(1)
		if err := back.Merge(sib); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMonitorMarshalRoundTrip(t *testing.T) {
	mk := func() *Monitor {
		return NewMonitor(MonitorConfig{P: 0.2, K: 2, HHAlpha: 0.05}, rng.New(31))
	}
	m := mk()
	for _, it := range marshalSample(30000, 8) {
		m.Observe(it)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(data, DecodeMonitor)
	if err != nil {
		t.Fatal(err)
	}
	want, got := m.Report(), back.Report()
	if got.SampledLength != want.SampledLength || got.Fk != want.Fk ||
		got.F0 != want.F0 || got.Entropy != want.Entropy {
		t.Fatalf("report differs after round trip: %+v vs %+v", got, want)
	}
	if len(got.F1HeavyHitters) != len(want.F1HeavyHitters) {
		t.Fatal("F1 hitters differ after round trip")
	}
	sib := mk()
	sib.Observe(1)
	if err := back.Merge(sib); err != nil {
		t.Fatalf("round-tripped monitor not mergeable: %v", err)
	}
}

// TestDecodeMonitorRefusesPartialMonitor hand-builds the payloads a
// Monitor with parts switched off used to write — the presence byte with
// a bit cleared, and only the parts it names behind it — and checks that
// both decode paths refuse them. build with every bit set reproduces
// MarshalBinary byte for byte, so the refusal is the presence byte's and
// not a layout slip.
func TestDecodeMonitorRefusesPartialMonitor(t *testing.T) {
	m := NewMonitor(MonitorConfig{P: 0.5}, rng.New(37))
	for _, it := range marshalSample(5000, 9) {
		m.Observe(it)
	}
	parts := []wire.Encoder{m.fk, m.f0, m.entropy, m.hh1, m.hh2}
	build := func(presence byte) []byte {
		w := &wire.Writer{}
		w.Header(TagMonitor)
		w.F64(m.p)
		w.U64(m.nL)
		w.U8(presence)
		for i, part := range parts {
			if presence&(1<<i) != 0 {
				w.Nest(part)
			}
		}
		return w.Bytes()
	}
	want, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(build(0x1f), want) {
		t.Fatal("hand-built five-part payload differs from MarshalBinary")
	}
	for _, presence := range []byte{0x0f, 0x1e, 0x01, 0x00} {
		data := build(presence)
		if _, err := wire.Decode(data, DecodeMonitor); err == nil {
			t.Errorf("DecodeMonitor accepted presence byte %#02x", presence)
		}
		if _, err := estimator.Decode(data); err == nil {
			t.Errorf("estimator.Decode accepted presence byte %#02x", presence)
		}
	}
}

// TestCoreUnmarshalTruncatedAndBitFlipped mirrors the sketch package's
// corruption harness over the composite estimator payloads.
func TestCoreUnmarshalTruncatedAndBitFlipped(t *testing.T) {
	s := marshalSample(2000, 10)
	fk := NewFkEstimator(FkConfig{K: 2, P: 0.3, Budget: 16}, rng.New(1))
	f0 := NewF0Estimator(F0Config{P: 0.3}, rng.New(2))
	ent := NewEntropyEstimator(EntropyConfig{P: 0.3}, rng.New(3))
	hh1 := NewF1HeavyHitters(F1HHConfig{P: 0.3, Alpha: 0.1}, rng.New(4))
	hh2 := NewF2HeavyHitters(F2HHConfig{P: 0.3, Alpha: 0.3, MaxWidth: 64}, rng.New(5))
	mon := NewMonitor(MonitorConfig{P: 0.3, HHAlpha: 0.1}, rng.New(6))
	for _, it := range s {
		fk.Observe(it)
		f0.Observe(it)
		ent.Observe(it)
		hh1.Observe(it)
		hh2.Observe(it)
		mon.Observe(it)
	}
	type marshaler interface{ MarshalBinary() ([]byte, error) }
	sources := map[string]marshaler{
		"fk": fk, "f0": f0, "entropy": ent, "hh1": hh1, "hh2": hh2, "monitor": mon,
	}
	decoders := map[string]func([]byte) error{
		"fk":      func(d []byte) error { _, err := wire.Decode(d, DecodeFkEstimator); return err },
		"f0":      func(d []byte) error { _, err := wire.Decode(d, DecodeF0Estimator); return err },
		"gee":     func(d []byte) error { _, err := wire.Decode(d, DecodeGEEF0Estimator); return err },
		"entropy": func(d []byte) error { _, err := wire.Decode(d, DecodeEntropyEstimator); return err },
		"hh1":     func(d []byte) error { _, err := wire.Decode(d, DecodeF1HeavyHitters); return err },
		"hh2":     func(d []byte) error { _, err := wire.Decode(d, DecodeF2HeavyHitters); return err },
		"monitor": func(d []byte) error { _, err := wire.Decode(d, DecodeMonitor); return err },
	}
	for src, m := range sources {
		payload, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec := decoders[src]
		// Sample corruption positions with a fixed per-payload budget so
		// the harness stays fast on multi-kilobyte composite payloads.
		cutStep := len(payload)/512 + 1
		for cut := 0; cut < len(payload); cut += cutStep {
			if dec(payload[:cut]) == nil {
				t.Fatalf("%s accepted a %d/%d-byte truncation", src, cut, len(payload))
			}
		}
		// Every decoder over every payload: cross-type confusion and
		// single-bit corruption must never panic.
		bitStep := 8*len(payload)/2048 + 1
		for name, d := range decoders {
			for bit := 0; bit < 8*len(payload); bit += bitStep {
				flipped := append([]byte{}, payload...)
				flipped[bit/8] ^= 1 << (bit % 8)
				_ = d(flipped)
			}
			if name != src {
				if err := d(payload); err == nil {
					t.Fatalf("%s decoder accepted %s payload", name, src)
				}
			}
		}
	}
}
