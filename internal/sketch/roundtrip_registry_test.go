package sketch_test

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/levelset"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/window"
	"substream/internal/wire"
)

// wireSpec is the configuration the round-trip battery builds every kind
// from: the daemon's defaults, so the geometries are the deployed ones.
func wireSpec(stat string) estimator.Spec {
	return estimator.Spec{Stat: stat, P: 0.5, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 5}
}

// wireKind is one payload kind the battery runs: how to build a fresh one
// and how to decode its payload.
type wireKind struct {
	name   string
	fresh  func() (estimator.Estimator, error)
	decode func([]byte) (estimator.Estimator, error)
}

// wireKinds are every kind a payload can hold: each registry stat built
// from spec, fk over the exact collision counter (no stat's default nests
// it), and each component the stats nest, alone, through its own decoder.
func wireKinds(spec func(stat string) estimator.Spec) []wireKind {
	registry := func(name string, s estimator.Spec) wireKind {
		return wireKind{name, func() (estimator.Estimator, error) { return estimator.New(s) }, estimator.Decode}
	}
	var kinds []wireKind
	for _, stat := range estimator.Stats() {
		kinds = append(kinds, registry(stat, spec(stat)))
	}
	exact := spec("fk")
	exact.Exact = true
	s := spec("")
	r := func() *rng.Xoshiro256 { return rng.New(s.Seed) }
	return append(kinds, registry("fk-exact", exact),
		component("countmin", func() *sketch.CountMin { return sketch.NewCountMinWithError(s.Epsilon, 0.01, r()) },
			sketch.DecodeCountMin, (*sketch.CountMin).Merge),
		component("countsketch", func() *sketch.CountSketch { return sketch.NewCountSketch(int(2/(s.Epsilon*s.Epsilon)), 5, r()) },
			sketch.DecodeCountSketch, (*sketch.CountSketch).Merge),
		component("kmv", func() *sketch.KMV { return sketch.NewKMV(int(4/(s.Epsilon*s.Epsilon)), r()) },
			sketch.DecodeKMV, (*sketch.KMV).Merge),
		component("spacesaving", func() *sketch.SpaceSaving { return sketch.NewSpaceSaving(s.Budget) },
			sketch.DecodeSpaceSaving, (*sketch.SpaceSaving).Merge),
		component("exactcounter", levelset.NewExactCounter, levelset.DecodeExactCounter,
			func(c, o *levelset.ExactCounter) error { return c.MergeCounter(o) }),
		component("levelset", func() *levelset.Estimator {
			return levelset.New(levelset.Config{EpsPrime: s.Epsilon, Budget: s.Budget}, r())
		},
			levelset.DecodeEstimator, (*levelset.Estimator).Merge),
	)
}

// summary is what the battery needs of a component.
type summary interface {
	wire.Encoder
	Observe(it stream.Item)
	UpdateBatch(items []stream.Item)
	SpaceBytes() int
}

// part lifts a component to the Estimator interface for the battery. A
// component answers nothing about P, so it reports nothing; its bytes,
// space and fold carry the contract.
type part[C summary] struct {
	c     C
	merge func(into, from C) error
}

func (p part[C]) Observe(it stream.Item)            { p.c.Observe(it) }
func (p part[C]) UpdateBatch(items []stream.Item)   { p.c.UpdateBatch(items) }
func (p part[C]) Encode(w *wire.Writer)             { p.c.Encode(w) }
func (p part[C]) MarshalBinary() ([]byte, error)    { return wire.Marshal(p.c) }
func (p part[C]) SpaceBytes() int                   { return p.c.SpaceBytes() }
func (p part[C]) Estimates() map[string]float64     { return nil }
func (p part[C]) Merge(o estimator.Estimator) error { return p.merge(p.c, o.(part[C]).c) }

// component is the wireKind of one component, decoded by wire.Decode
// around its own decoder as its parent decodes it in place.
func component[C summary](name string, fresh func() C, decode func(*wire.Reader) (C, error), merge func(into, from C) error) wireKind {
	return wireKind{name,
		func() (estimator.Estimator, error) { return part[C]{fresh(), merge}, nil },
		func(data []byte) (estimator.Estimator, error) {
			c, err := wire.Decode(data, decode)
			if err != nil {
				return nil, err
			}
			return part[C]{c, merge}, nil
		}}
}

// wireWorkloads are the key shapes the format has to be right and small
// on. Every third key is observed twice, so counts are not all 1.
func wireWorkloads() map[string][]stream.Item {
	r := rng.New(17)
	ipv4 := make([]stream.Item, 10000)
	for i := range ipv4 {
		ipv4[i] = stream.Item(10<<24 | r.Uint64n(8)<<16 | r.Uint64n(1<<16))
	}
	random := make([]stream.Item, 10000)
	for i := range random {
		random[i] = stream.Item(r.Uint64())
	}
	small := make([]stream.Item, 23)
	for i := range small {
		small[i] = stream.Item(i + 1)
	}
	workloads := map[string][]stream.Item{"empty": nil}
	for name, keys := range map[string][]stream.Item{"23 small keys": small, "10000 IPv4-like keys": ipv4, "10000 random 64-bit keys": random} {
		items := slices.Clone(keys)
		for i := 0; i < len(keys); i += 3 {
			items = append(items, keys[i])
		}
		workloads[name] = items
	}
	return workloads
}

// orderFree are the kinds whose state is a function of the multiset of
// items observed, not of their order, and whose payload therefore must
// not depend on it either. The others — counter summaries that evict,
// heaps in array order, a seeded reservoir, CKMS — keep order-dependent
// state by design.
var orderFree = map[string]bool{
	"countmin": true, "countsketch": true, "exactcounter": true, "fk-exact": true,
	"entropy": true, "gee": true,
}

func mustMarshal(t *testing.T, e estimator.Estimator) []byte {
	t.Helper()
	payload, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func mustDecode(t *testing.T, k wireKind, payload []byte) estimator.Estimator {
	t.Helper()
	e, err := k.decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustFresh builds a fresh summary of kind k.
func mustFresh(t *testing.T, k wireKind) estimator.Estimator {
	t.Helper()
	e, err := k.fresh()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameReport compares two reports value by value, exactly, NaN equal to
// NaN (an empty stream has no entropy).
func sameReport(a, b estimator.Report) bool {
	same := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	if len(a.Values) != len(b.Values) || len(a.F1Hitters) != len(b.F1Hitters) || len(a.F2Hitters) != len(b.F2Hitters) {
		return false
	}
	for name, v := range a.Values {
		if w, ok := b.Values[name]; !ok || !same(v, w) {
			return false
		}
	}
	for i := range a.F1Hitters {
		if a.F1Hitters[i].Item != b.F1Hitters[i].Item || !same(a.F1Hitters[i].Freq, b.F1Hitters[i].Freq) {
			return false
		}
	}
	for i := range a.F2Hitters {
		if a.F2Hitters[i].Item != b.F2Hitters[i].Item || !same(a.F2Hitters[i].Freq, b.F2Hitters[i].Freq) {
			return false
		}
	}
	return true
}

// checkRoundTrip is the same-state-same-answers contract of one summary
// of kind k: its decoded copy re-marshals byte-identically, reports the
// same, takes no more space, and folds into a fresh accumulator exactly as
// it does.
func checkRoundTrip(t *testing.T, k wireKind, e estimator.Estimator) {
	t.Helper()
	payload := mustMarshal(t, e)
	back := mustDecode(t, k, payload)
	if again := mustMarshal(t, back); !bytes.Equal(again, payload) {
		t.Fatalf("re-marshal of the decoded copy differs (%d vs %d bytes)", len(again), len(payload))
	}
	if !sameReport(estimator.ReportOf(back), estimator.ReportOf(e)) {
		t.Fatalf("decoded copy reports %+v, source %+v", estimator.ReportOf(back), estimator.ReportOf(e))
	}
	// Decoders size every slab and map from the validated count, so a
	// decoded copy holds no growth slack; 1 KiB covers the minimum sizes
	// of the item indexes of an empty summary's parts.
	if back.SpaceBytes() > e.SpaceBytes()+1<<10 {
		t.Fatalf("decoded copy takes %d bytes, source %d", back.SpaceBytes(), e.SpaceBytes())
	}
	accSrc, accBack := mustFresh(t, k), mustFresh(t, k)
	if err := accSrc.Merge(e); err != nil {
		t.Fatal(err)
	}
	if err := accBack.Merge(back); err != nil {
		t.Fatalf("decoded copy does not merge: %v", err)
	}
	if !sameReport(estimator.ReportOf(accBack), estimator.ReportOf(accSrc)) {
		t.Fatal("folding the decoded copy reports differently from folding the source")
	}
	if !bytes.Equal(mustMarshal(t, accBack), mustMarshal(t, accSrc)) {
		t.Fatal("folding the decoded copy leaves different state from folding the source")
	}
}

// TestWireRoundTripEveryKind runs the contract for every payload kind
// (wireKinds) on every workload, checks that order-free kinds serialize the
// same whatever order the items came in, and pins the size of the
// sorted-run kinds: at most 4 bytes an entry on IPv4-like keys and 10 on
// uniformly random 64-bit keys, where v2 spent 16 on both.
func TestWireRoundTripEveryKind(t *testing.T) {
	runBudget := map[string]float64{"10000 IPv4-like keys": 4, "10000 random 64-bit keys": 10}
	for _, k := range wireKinds(wireSpec) {
		for name, items := range wireWorkloads() {
			t.Run(k.name+"/"+name, func(t *testing.T) {
				e := mustFresh(t, k)
				e.UpdateBatch(items)
				checkRoundTrip(t, k, e)
				payload := mustMarshal(t, e)
				if orderFree[k.name] {
					reversed := slices.Clone(items)
					slices.Reverse(reversed)
					other := mustFresh(t, k)
					other.UpdateBatch(reversed)
					if !bytes.Equal(mustMarshal(t, other), payload) {
						t.Fatal("the same items in another order serialize differently")
					}
				}
				if budget, pinned := runBudget[name]; pinned && slices.Contains([]string{"exactcounter", "fk-exact", "entropy", "gee"}, k.name) {
					distinct := map[stream.Item]bool{}
					for _, it := range items {
						distinct[it] = true
					}
					if got := float64(len(payload)) / float64(len(distinct)); got > budget {
						t.Fatalf("%.2f bytes an entry, budget %.0f", got, budget)
					}
				}
			})
		}
	}
}

// TestWireRoundTripHugeCounts doubles a one-item summary of every kind
// into itself 63 times, so every count it holds reaches 2^63, and runs
// the contract on the result: ten-byte varints in every field that can
// take them.
func TestWireRoundTripHugeCounts(t *testing.T) {
	// Small geometry: the counts are the point here, and each doubling
	// decodes a copy.
	small := func(stat string) estimator.Spec {
		return estimator.Spec{Stat: stat, P: 0.5, K: 2, Epsilon: 0.5, Alpha: 0.3, Budget: 16, Seed: 5}
	}
	for _, k := range wireKinds(small) {
		t.Run(k.name, func(t *testing.T) {
			e := mustFresh(t, k)
			e.Observe(7)
			for i := 0; i < 63; i++ {
				if err := e.Merge(mustDecode(t, k, mustMarshal(t, e))); err != nil {
					t.Fatal(err)
				}
			}
			checkRoundTrip(t, k, e)
		})
	}
}

// TestWireRoundTripWindowed runs the contract on a ring over hh1 — a
// pristine replica, a cumulative one and three generations, two of them
// idle, each carrying a counter table.
func TestWireRoundTripWindowed(t *testing.T) {
	clock := window.NewManualClock()
	ring := wireKind{"window", func() (estimator.Estimator, error) {
		return window.Wrap(window.Config{Window: 3, EpochLen: time.Second, Clock: clock,
			New: func() (estimator.Estimator, error) { return estimator.New(wireSpec("hh1")) }})
	}, estimator.Decode}
	e := mustFresh(t, ring)
	e.UpdateBatch(wireWorkloads()["10000 IPv4-like keys"])
	checkRoundTrip(t, ring, e)
}

// TestMarshalAllocatesNoBufferPerLevel pins in-place nesting: a composite
// serializes into one buffer, so its MarshalBinary allocates the returned
// payload and next to nothing else, however deep its children nest. (v2
// marshalled every child apart and copied it: 62 allocations for hh2.)
func TestMarshalAllocatesNoBufferPerLevel(t *testing.T) {
	hh2, err := estimator.New(wireSpec("hh2"))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := window.Wrap(window.Config{Window: 4, EpochLen: time.Second, Clock: window.NewManualClock(),
		New: func() (estimator.Estimator, error) { return estimator.New(wireSpec("hh1")) }})
	if err != nil {
		t.Fatal(err)
	}
	items := wireWorkloads()["10000 IPv4-like keys"]
	for name, e := range map[string]estimator.Estimator{"hh2": hh2, "windowed hh1": ring} {
		e.UpdateBatch(items)
		if n := testing.AllocsPerRun(20, func() { mustMarshal(t, e) }); n > 4 {
			t.Errorf("%s: MarshalBinary makes %v allocations, want at most 4", name, n)
		}
	}
}
