package pipeline

import (
	"math"
	"testing"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

// These are the merge-correctness property tests: feeding the SAME
// sampled stream L through S shards and merging must agree with the
// single-shard estimator on L. For order-insensitive backends (exact
// collision counters, KMV, plugin entropy, CountMin/CountSketch
// tables) the agreement is exact up to float summation order; for the
// counter-based summaries it is within the documented error bounds, which
// the heavy-hitter tests check through the reporting contract.

const (
	eqN    = 120_000
	eqM    = 2_000
	eqSkew = 1.2
	eqP    = 0.25
)

// sampledZipf builds one Bernoulli-sampled Zipf stream shared by a test.
func sampledZipf(t *testing.T) stream.Slice {
	t.Helper()
	wl := workload.Zipf(eqN, eqM, eqSkew, 42)
	L := sample.NewBernoulli(eqP).Apply(wl.Stream, rng.New(99))
	if len(L) == 0 {
		t.Fatal("empty sampled stream")
	}
	return L
}

// shardMerge runs L through a sharded pipeline of replicas from mk and
// returns the merged replica.
func shardMerge[E Mergeable[E]](t *testing.T, L stream.Slice, shards int, mk func(int) E) E {
	t.Helper()
	p := New(Config{Shards: shards, BatchSize: 256}, mk)
	p.FeedSlice(L)
	merged, err := MergeAll(p)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

func TestMergeEquivalenceFkExact(t *testing.T) {
	L := sampledZipf(t)
	mk := func(int) *core.FkEstimator {
		return core.NewFkEstimator(core.FkConfig{K: 3, P: eqP, Exact: true}, rng.New(7))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)
	for k := 2; k <= 3; k++ {
		s, m := single.Moments()[k], merged.Moments()[k]
		if d := relDiff(s, m); d > 1e-9 {
			t.Fatalf("F%d: single %.9g vs sharded-merged %.9g (rel diff %.2g)", k, s, m, d)
		}
	}
	if single.SampledLength() != merged.SampledLength() {
		t.Fatalf("sampled length %d vs %d", single.SampledLength(), merged.SampledLength())
	}
}

func TestMergeEquivalenceFkLevelSet(t *testing.T) {
	L := sampledZipf(t)
	// Budget above F0(L): no SpaceSaving evictions, thresholds stay 0, so
	// the level-set merge is exact and must match the single replica.
	mk := func(int) *core.FkEstimator {
		return core.NewFkEstimator(core.FkConfig{K: 2, P: eqP, Budget: 4096}, rng.New(21))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)
	s, m := single.Estimate(), merged.Estimate()
	if d := relDiff(s, m); d > 1e-9 {
		t.Fatalf("levelset F2: single %.9g vs sharded-merged %.9g (rel diff %.2g)", s, m, d)
	}

	// Sanity: both track the ground truth F2 of the original stream.
	truth := stream.NewFreq(workload.Zipf(eqN, eqM, eqSkew, 42).Stream).Fk(2)
	if d := relDiff(m, truth); d > 0.35 {
		t.Fatalf("merged estimate %.4g strays %.0f%% from exact F2 %.4g", m, 100*d, truth)
	}
}

func TestMergeEquivalenceFkLevelSetTightBudget(t *testing.T) {
	L := sampledZipf(t)
	// Budget well below F0(L): merging is approximate (bounded-error
	// SpaceSaving fold + threshold raising), so judge the merged replica
	// the way the paper judges the estimator — against ground truth.
	mk := func(int) *core.FkEstimator {
		return core.NewFkEstimator(core.FkConfig{K: 2, P: eqP, Budget: 512}, rng.New(23))
	}
	merged := shardMerge(t, L, 4, mk)
	truth := stream.NewFreq(workload.Zipf(eqN, eqM, eqSkew, 42).Stream).Fk(2)
	if d := relDiff(merged.Estimate(), truth); d > 0.5 {
		t.Fatalf("tight-budget merged estimate %.4g strays %.0f%% from exact F2 %.4g",
			merged.Estimate(), 100*d, truth)
	}
}

func TestMergeEquivalenceF0(t *testing.T) {
	L := sampledZipf(t)
	mk := func(int) *core.F0Estimator { return core.NewF0Estimator(core.F0Config{P: eqP}, rng.New(13)) }
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)
	if s, m := single.Estimate(), merged.Estimate(); s != m {
		t.Fatalf("single %.9g vs sharded-merged %.9g", s, m)
	}
}

func TestMergeEquivalenceEntropyPlugin(t *testing.T) {
	L := sampledZipf(t)
	mk := func(int) *core.EntropyEstimator {
		return core.NewEntropyEstimator(core.EntropyConfig{P: eqP}, rng.New(17))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)
	// Exactly: the plug-in sum runs over the same profile on both sides.
	if s, m := single.Estimate(), merged.Estimate(); s != m {
		t.Fatalf("entropy: single %.17g vs sharded-merged %.17g", s, m)
	}
	if single.SampledLength() != merged.SampledLength() {
		t.Fatalf("sampled length %d vs %d", single.SampledLength(), merged.SampledLength())
	}
}

// reportSet indexes a heavy-hitter report by item.
func reportSet(hh []core.ReportedHitter) map[stream.Item]float64 {
	m := make(map[stream.Item]float64, len(hh))
	for _, h := range hh {
		m[h.Item] = h.Freq
	}
	return m
}

func TestMergeEquivalenceF1HeavyHitters(t *testing.T) {
	const alpha = 0.05
	L := sampledZipf(t)
	truth := stream.NewFreq(workload.Zipf(eqN, eqM, eqSkew, 42).Stream)
	mk := func(int) *core.F1HeavyHitters {
		return core.NewF1HeavyHitters(core.F1HHConfig{P: eqP, Alpha: alpha}, rng.New(29))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)

	sRep, mRep := reportSet(single.Report()), reportSet(merged.Report())
	for _, hh := range truth.FkHeavyHitters(1, alpha) {
		if _, ok := sRep[hh.Item]; !ok {
			t.Fatalf("single run missed true heavy hitter %d (f=%d)", hh.Item, hh.Freq)
		}
		if _, ok := mRep[hh.Item]; !ok {
			t.Fatalf("sharded-merged run missed true heavy hitter %d (f=%d)", hh.Item, hh.Freq)
		}
	}
	// CountMin is linear: the merged table is identical to the single
	// table, so common reported items must agree exactly.
	for it, mf := range mRep {
		if sf, ok := sRep[it]; ok && sf != mf {
			t.Fatalf("item %d: single freq %.1f vs merged %.1f", it, sf, mf)
		}
	}
}

func TestMergeEquivalenceF2HeavyHitters(t *testing.T) {
	const alpha = 0.2
	L := sampledZipf(t)
	truth := stream.NewFreq(workload.Zipf(eqN, eqM, eqSkew, 42).Stream)
	mk := func(int) *core.F2HeavyHitters {
		return core.NewF2HeavyHitters(core.F2HHConfig{P: eqP, Alpha: alpha}, rng.New(31))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)

	sRep, mRep := reportSet(single.Report()), reportSet(merged.Report())
	for _, hh := range truth.FkHeavyHitters(2, alpha) {
		if _, ok := sRep[hh.Item]; !ok {
			t.Fatalf("single run missed true F2 heavy hitter %d (f=%d)", hh.Item, hh.Freq)
		}
		if _, ok := mRep[hh.Item]; !ok {
			t.Fatalf("sharded-merged run missed true F2 heavy hitter %d (f=%d)", hh.Item, hh.Freq)
		}
	}
	for it, mf := range mRep {
		if sf, ok := sRep[it]; ok && sf != mf {
			t.Fatalf("item %d: single freq %.1f vs merged %.1f", it, sf, mf)
		}
	}
}

func TestMergeEquivalenceMonitor(t *testing.T) {
	L := sampledZipf(t)
	mk := func(int) *core.Monitor {
		// The default entropy backend (plugin) merges; everything else
		// merges by construction when seeded identically.
		return core.NewMonitor(core.MonitorConfig{P: eqP, K: 2, HHAlpha: 0.05}, rng.New(37))
	}
	single := mk(0)
	single.UpdateBatch(L)
	merged := shardMerge(t, L, 4, mk)

	s, m := single.Report(), merged.Report()
	if s.SampledLength != m.SampledLength {
		t.Fatalf("sampled length %d vs %d", s.SampledLength, m.SampledLength)
	}
	if d := relDiff(s.F0, m.F0); d > 1e-9 {
		t.Fatalf("monitor F0 %.6g vs %.6g", s.F0, m.F0)
	}
	if s.Entropy != m.Entropy {
		t.Fatalf("monitor entropy %.17g vs %.17g", s.Entropy, m.Entropy)
	}
	if d := relDiff(s.Fk, m.Fk); d > 0.25 {
		t.Fatalf("monitor Fk %.6g vs %.6g (rel diff %.2g)", s.Fk, m.Fk, d)
	}
}

func TestMergeRejectsMismatchedSeeds(t *testing.T) {
	L := sampledZipf(t)
	seed := uint64(0)
	p := New(Config{Shards: 2, BatchSize: 256}, func(int) *core.F0Estimator {
		seed++ // deliberately different construction state per shard
		return core.NewF0Estimator(core.F0Config{P: eqP}, rng.New(seed))
	})
	p.FeedSlice(L)
	if _, err := MergeAll(p); err == nil {
		t.Fatal("expected merge of differently-seeded replicas to fail")
	}
}

// TestShardedSamplingEndToEnd drives the full deployment: the pipeline
// ingests the ORIGINAL stream, samples per shard, and the merged
// estimator must track ground truth within the sampling-noise tolerance.
func TestShardedSamplingEndToEnd(t *testing.T) {
	wl := workload.Zipf(eqN, eqM, eqSkew, 77)
	s := stream.Collect(wl.Stream)
	truth := stream.NewFreq(wl.Stream)

	p := New(Config{Shards: 4, BatchSize: 512, SampleP: eqP, Seed: 5},
		func(int) *core.FkEstimator {
			return core.NewFkEstimator(core.FkConfig{K: 2, P: eqP, Exact: true}, rng.New(41))
		})
	p.FeedSlice(s)
	merged, err := MergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(merged.Estimate(), truth.Fk(2)); d > 0.2 {
		t.Fatalf("end-to-end F2 %.4g strays %.0f%% from exact %.4g",
			merged.Estimate(), 100*d, truth.Fk(2))
	}
	if kept := p.Kept(); relDiff(float64(kept), eqP*float64(len(s))) > 0.05 {
		t.Fatalf("kept %d of %d items, want ≈%.0f", kept, len(s), eqP*float64(len(s)))
	}
}

// TestInterfaceReplicasMatchConcrete proves the pipeline's replica
// contract extends to the estimator registry's interface values: a
// pipeline of estimator.Estimator replicas (what the daemon runs) must
// produce exactly the estimates of a pipeline of the concrete type,
// batch path and MergeAll included — the interface satisfies
// Mergeable[estimator.Estimator], so nothing in this package special-
// cases it.
func TestInterfaceReplicasMatchConcrete(t *testing.T) {
	L := sampledZipf(t)
	spec := estimator.Spec{Stat: "fk", K: 2, P: eqP, Epsilon: 0.2, Exact: true, Seed: 41}

	concrete := New(Config{Shards: 4, BatchSize: 512},
		func(int) *core.FkEstimator {
			return core.NewFkEstimator(core.FkConfig{K: 2, P: eqP, Epsilon: 0.2, Exact: true}, rng.New(41))
		})
	concrete.FeedSlice(L)
	wantMerged, err := MergeAll(concrete)
	if err != nil {
		t.Fatal(err)
	}

	iface := New(Config{Shards: 4, BatchSize: 512},
		func(int) estimator.Estimator {
			e, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
	iface.FeedSlice(L)
	gotMerged, err := MergeAll(iface)
	if err != nil {
		t.Fatal(err)
	}

	want := wantMerged.Estimates()
	got := gotMerged.Estimates()
	if len(got) != len(want) {
		t.Fatalf("estimate sets differ: %v vs %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("interface pipeline %q = %v, concrete pipeline = %v", name, got[name], v)
		}
	}
	// Foreign kinds must fail the merge, not corrupt it.
	other, err := estimator.New(estimator.Spec{Stat: "f0", P: eqP, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := gotMerged.Merge(other); err == nil {
		t.Fatal("merging a foreign kind through the interface did not fail")
	}
}
