package sketch_test

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/window"
)

// wireSpec is the configuration the round-trip battery builds every kind
// from: the daemon's defaults, so the geometries are the deployed ones.
func wireSpec(stat string) estimator.Spec {
	return estimator.Spec{Stat: stat, P: 0.5, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 5}
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
	"countmin": true, "countsketch": true, "hll": true, "exactcounter": true,
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

func mustDecode(t *testing.T, payload []byte) estimator.Estimator {
	t.Helper()
	e, err := estimator.Decode(payload)
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

// checkRoundTrip is the same-state-same-answers contract of one summary:
// its decoded copy re-marshals byte-identically, reports the same, takes
// no more space, and folds into a fresh accumulator exactly as it does.
func checkRoundTrip(t *testing.T, e estimator.Estimator, fresh func() estimator.Estimator) {
	t.Helper()
	payload := mustMarshal(t, e)
	back := mustDecode(t, payload)
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
	accSrc, accBack := fresh(), fresh()
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

// TestWireRoundTripEveryKind runs the contract for every constructible
// kind on every workload, checks that order-free kinds serialize the same
// whatever order the items came in, and pins the size of the sorted-run
// kinds: at most 4 bytes an entry on IPv4-like keys and 10 on uniformly
// random 64-bit keys, where v2 spent 16 on both.
func TestWireRoundTripEveryKind(t *testing.T) {
	runBudget := map[string]float64{"10000 IPv4-like keys": 4, "10000 random 64-bit keys": 10}
	for _, stat := range estimator.Stats() {
		fresh := func() estimator.Estimator {
			e, err := estimator.New(wireSpec(stat))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		for name, items := range wireWorkloads() {
			t.Run(stat+"/"+name, func(t *testing.T) {
				e := fresh()
				e.UpdateBatch(items)
				checkRoundTrip(t, e, fresh)
				payload := mustMarshal(t, e)
				if orderFree[stat] {
					reversed := slices.Clone(items)
					slices.Reverse(reversed)
					other := fresh()
					other.UpdateBatch(reversed)
					if !bytes.Equal(mustMarshal(t, other), payload) {
						t.Fatal("the same items in another order serialize differently")
					}
				}
				if budget, pinned := runBudget[name]; pinned && slices.Contains([]string{"exactcounter", "entropy", "gee"}, stat) {
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
	for _, stat := range estimator.Stats() {
		t.Run(stat, func(t *testing.T) {
			fresh := func() estimator.Estimator {
				// Small geometry: the counts are the point here, and each
				// doubling decodes a copy.
				e, err := estimator.New(estimator.Spec{Stat: stat, P: 0.5, K: 2, Epsilon: 0.5, Alpha: 0.3, Budget: 16, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e := fresh()
			e.Observe(7)
			for i := 0; i < 63; i++ {
				if err := e.Merge(mustDecode(t, mustMarshal(t, e))); err != nil {
					t.Fatal(err)
				}
			}
			checkRoundTrip(t, e, fresh)
		})
	}
}

// TestWireRoundTripWindowed runs the contract on a ring over hh1 — a
// pristine replica, a cumulative one and three generations, two of them
// idle, each carrying a counter table.
func TestWireRoundTripWindowed(t *testing.T) {
	clock := window.NewManualClock()
	fresh := func() estimator.Estimator {
		e, err := window.Wrap(window.Config{Window: 3, EpochLen: time.Second, Clock: clock,
			New: func() (estimator.Estimator, error) { return estimator.New(wireSpec("hh1")) }})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := fresh()
	e.UpdateBatch(wireWorkloads()["10000 IPv4-like keys"])
	checkRoundTrip(t, e, fresh)
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
