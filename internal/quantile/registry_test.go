// Registry-level battery: everything here drives the summary the way
// the rest of the stack does — through estimator.New / estimator.Decode
// and the Estimator interface — so it pins the adapters, the registered
// constructor, and the estimate keys, not just the float64 core.
package quantile_test

import (
	"sort"
	"testing"

	"substream/internal/estimator"
	"substream/internal/quantile"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/workload"
)

func newQuantile(t testing.TB) estimator.Estimator {
	t.Helper()
	e, err := estimator.New(estimator.Spec{Stat: "quantile"})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// itemRank measures rank error of an estimate against the sorted item
// stream, mirroring the in-package helper but over stream.Item values.
func itemRankError(sorted []float64, got, targetRank float64) float64 {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, got)
	hi := sort.Search(n, func(i int) bool { return sorted[i] > got })
	switch {
	case float64(hi) < targetRank:
		return targetRank - float64(hi)
	case float64(lo) > targetRank:
		return float64(lo) - targetRank
	}
	return 0
}

// TestRegistryMergeVsSequential is the headline registry-driven property
// test from the issue: for every shard count in 1..8 and arbitrary
// (seeded) batch split points, folding the shards through the Estimator
// interface answers p50/p90/p99/p999 within 2ε·n ranks of the exact
// stream quantile, while one sequential estimator stays within ε·n.
// CKMS merge is not bit-identical to sequential observation, so unlike
// TestBatchObserveBitEquivalence the assertions here are error bounds,
// never byte comparisons.
func TestRegistryMergeVsSequential(t *testing.T) {
	const n = 60_000
	items := stream.Collect(workload.Zipf(n, 1<<16, 1.1, 23).Stream)
	sorted := make([]float64, n)
	for i, it := range items {
		sorted[i] = float64(it)
	}
	sort.Float64s(sorted)

	seq := newQuantile(t)
	for _, it := range items {
		seq.Observe(it)
	}
	seqEst := seq.Estimates()
	for _, tg := range quantile.DefaultTargets() {
		key := quantile.QuantileKey(tg.Quantile)
		err := itemRankError(sorted, seqEst[key], tg.Quantile*float64(n))
		if bound := tg.Epsilon * float64(n); err > bound {
			t.Errorf("sequential %s: rank error %.0f > ε·n = %.0f", key, err, bound)
		}
	}

	for shards := 1; shards <= 8; shards++ {
		// Arbitrary split points: each shard consumes seeded-random-sized
		// batches via UpdateBatch, interleaved round-robin so batch
		// boundaries land everywhere in the stream.
		r := rng.New(uint64(shards) * 131)
		es := make([]estimator.Estimator, shards)
		for i := range es {
			es[i] = newQuantile(t)
		}
		next := 0
		for off := 0; off < len(items); {
			size := int(r.Uint64()%1500) + 1
			if off+size > len(items) {
				size = len(items) - off
			}
			es[next%shards].UpdateBatch(items[off : off+size])
			next++
			off += size
		}
		acc := newQuantile(t)
		for _, e := range es {
			if err := acc.Merge(e); err != nil {
				t.Fatalf("shards=%d: merge: %v", shards, err)
			}
		}
		est := acc.Estimates()
		if got := est["n"]; got != float64(n) {
			t.Fatalf("shards=%d: merged n = %v, want %d", shards, got, n)
		}
		for _, tg := range quantile.DefaultTargets() {
			key := quantile.QuantileKey(tg.Quantile)
			err := itemRankError(sorted, est[key], tg.Quantile*float64(n))
			if bound := 2 * tg.Epsilon * float64(n); err > bound {
				t.Errorf("shards=%d %s: rank error %.0f > 2ε·n = %.0f", shards, key, err, bound)
			}
		}
	}
}

// TestRegistryEstimateKeys pins the estimate-map surface the collector
// exposes ("p99") and the windowed variant documented in the README
// ("window_p99" after window.Wrap prefixes).
func TestRegistryEstimateKeys(t *testing.T) {
	e := newQuantile(t)
	e.UpdateBatch(stream.Collect(workload.Zipf(4_000, 256, 1.2, 29).Stream))
	est := e.Estimates()
	for _, key := range []string{"n", "p50", "p90", "p99", "p999"} {
		if _, ok := est[key]; !ok {
			t.Errorf("Estimates missing %q (have %v)", key, est)
		}
	}
	if est["n"] != 4_000 {
		t.Errorf("n = %v, want 4000", est["n"])
	}
	if est["p50"] > est["p99"] || est["p90"] > est["p999"] {
		t.Errorf("quantile estimates not monotone: %v", est)
	}
}

// TestRegistryDecodeRoundTrip drives the wire path the collector uses:
// estimator.Decode on a marshaled summary must reconstruct a summary
// that answers identically and merges with the original.
func TestRegistryDecodeRoundTrip(t *testing.T) {
	e := newQuantile(t)
	items := stream.Collect(workload.Zipf(10_000, 1<<12, 1.3, 31).Stream)
	e.UpdateBatch(items)
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != quantile.TagQuantile {
		t.Fatalf("wire tag = %#x, want %#x", data[0], quantile.TagQuantile)
	}
	d, err := estimator.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, got := e.Estimates(), d.Estimates()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("decoded estimate %s = %v, want %v", k, got[k], v)
		}
	}
	if err := d.Merge(e); err != nil {
		t.Fatalf("decoded summary refuses to merge with its original: %v", err)
	}
	if d.Estimates()["n"] != 2*float64(len(items)) {
		t.Fatalf("merged n = %v, want %d", d.Estimates()["n"], 2*len(items))
	}
}

// TestRegistryKindRow pins the registry metadata the CLIs print via
// -list-estimators.
func TestRegistryKindRow(t *testing.T) {
	for _, k := range estimator.Kinds() {
		if k.Name != "quantile" {
			continue
		}
		if k.Tag != 0x40 {
			t.Errorf("quantile tag = %#x, want 0x40", k.Tag)
		}
		if k.New == nil {
			t.Error("quantile must be constructible (stat mode), not a wrapper")
		}
		if k.Decode == nil {
			t.Error("quantile must be decodable")
		}
		return
	}
	t.Fatal("registry does not list a quantile kind")
}
