// Package substream_bench holds the repository-level benchmark harness:
// one benchmark per reproduced experiment (E1–E10, the table in
// internal/experiments/README.md maps each to its claim) plus throughput
// microbenchmarks for the estimators. The experiment benches call the
// same runners as cmd/experiments at reduced scale, so `go test -bench=.`
// regenerates every table's machinery end to end; `go run
// ./cmd/experiments` prints the full-scale numbers.
package substream_bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/experiments"
	"substream/internal/levelset"
	"substream/internal/pipeline"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/server"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/window"
	"substream/internal/workload"
)

// benchCfg keeps experiment benches laptop-fast; cmd/experiments runs the
// full scale.
var benchCfg = experiments.Config{Scale: 0.1, Trials: 3, Seed: 1}

func benchExperiment(b *testing.B, id string) {
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := exp.Run(benchCfg)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

func BenchmarkE1FkAccuracy(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2TimeSpace(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3F0LowerBound(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4F0Accuracy(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5EntropyImpossibility(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6EntropyRatio(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7F1HeavyHitters(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8F2HeavyHitters(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9F2VsScaling(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10LevelSet(b *testing.B)            { benchExperiment(b, "E10") }

// --- estimator throughput (items/sec on the sampled stream) ---

func sampledZipf(n int, p float64) stream.Slice {
	wl := workload.Zipf(n, 65536, 1.1, 7)
	return sample.NewBernoulli(p).Apply(wl.Stream, rng.New(8))
}

func BenchmarkFkObserveLevelSet(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewFkEstimator(core.FkConfig{K: 2, P: 0.2, Budget: 4096}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

func BenchmarkFkObserveExact(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewFkEstimator(core.FkConfig{K: 2, P: 0.2, Exact: true}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

func BenchmarkF0Observe(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewF0Estimator(core.F0Config{P: 0.2}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

func BenchmarkEntropyObservePlugin(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewEntropyEstimator(core.EntropyConfig{P: 0.2}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

func BenchmarkF1HHObserve(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewF1HeavyHitters(core.F1HHConfig{P: 0.2, Alpha: 0.01}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

func BenchmarkF2HHObserve(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	e := core.NewF2HeavyHitters(core.F2HHConfig{P: 0.2, Alpha: 0.1}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(L[i%len(L)])
	}
}

// BenchmarkBernoulliSamplePipeline measures the end-to-end sampling path
// (generator → Bernoulli filter → estimator), the per-original-item cost
// a monitor would pay.
func BenchmarkBernoulliSamplePipeline(b *testing.B) {
	wl := workload.Zipf(1<<17, 65536, 1.1, 9)
	s := stream.Collect(wl.Stream)
	bern := sample.NewBernoulli(0.1)
	r := rng.New(2)
	e := core.NewFkEstimator(core.FkConfig{K: 2, P: 0.1, Budget: 4096}, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s[i%len(s)]
		if r.Float64() < 0.1 {
			e.Observe(it)
		}
		_ = bern
	}
}

// --- sharded ingestion pipeline (internal/pipeline) ---

// benchmarkPipelineShards measures end-to-end pipeline throughput on the
// Zipf workload: original stream in, in-shard Bernoulli sampling, one
// level-set Fk replica per shard, merge at the end. ns/op is the cost of
// one full pass; speedup across the shard counts is near-linear up to the
// machine's core count (on a single-core machine the shard counts tie,
// since every worker shares the one CPU).
func benchmarkPipelineShards(b *testing.B, shards int) {
	wl := workload.Zipf(1<<17, 65536, 1.1, 7)
	s := stream.Collect(wl.Stream)
	b.SetBytes(int64(8 * len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := pipeline.New(pipeline.Config{
			Shards:    shards,
			BatchSize: 1024,
			SampleP:   0.2,
			Seed:      uint64(i) + 1,
		}, func(shard int) *core.FkEstimator {
			return core.NewFkEstimator(core.FkConfig{K: 2, P: 0.2, Budget: 4096}, rng.New(42))
		})
		pl.FeedSlice(s)
		merged, err := pipeline.MergeAll(pl)
		if err != nil {
			b.Fatal(err)
		}
		if merged.Estimate() <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

func BenchmarkPipelineShards1(b *testing.B) { benchmarkPipelineShards(b, 1) }
func BenchmarkPipelineShards2(b *testing.B) { benchmarkPipelineShards(b, 2) }
func BenchmarkPipelineShards4(b *testing.B) { benchmarkPipelineShards(b, 4) }
func BenchmarkPipelineShards8(b *testing.B) { benchmarkPipelineShards(b, 8) }

// BenchmarkPipelineBatchVsObserve isolates the batched hot path: the same
// sampled stream pushed through one estimator per-item vs in batches.
// The delta is the per-item interface-dispatch and bookkeeping overhead
// UpdateBatch exists to amortize — visible even on one core.
func BenchmarkPipelineBatchVsObserve(b *testing.B) {
	L := sampledZipf(1<<17, 0.2)
	b.Run("observe", func(b *testing.B) {
		e := core.NewFkEstimator(core.FkConfig{K: 2, P: 0.2, Budget: 4096}, rng.New(1))
		b.SetBytes(int64(8 * len(L)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range L {
				e.Observe(it)
			}
		}
	})
	b.Run("batch1024", func(b *testing.B) {
		e := core.NewFkEstimator(core.FkConfig{K: 2, P: 0.2, Budget: 4096}, rng.New(1))
		b.SetBytes(int64(8 * len(L)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(L); off += 1024 {
				end := off + 1024
				if end > len(L) {
					end = len(L)
				}
				e.UpdateBatch(L[off:end])
			}
		}
	})
}

// --- ingest hot path (per-kind ns/item across batch sizes) ---

// BenchmarkHotPath prices one estimator update at the three batch shapes
// that matter: single items (the Observe-equivalent worst case), the
// chunk size a forwarding monitor might use, and the pipeline's default
// batch. It runs over every constructible registry kind so a new
// estimator joins the throughput trajectory automatically, and reports
// ns/item so numbers are comparable across batch sizes.
func BenchmarkHotPath(b *testing.B) {
	wl := workload.Zipf(1<<16, 65536, 1.1, 5)
	items := stream.Collect(wl.Stream)
	for _, stat := range estimator.Stats() {
		for _, size := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/batch%d", stat, size), func(b *testing.B) {
				e, err := estimator.New(estimator.Spec{
					Stat: stat, P: 0.2, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(8 * size))
				b.ReportAllocs()
				b.ResetTimer()
				off := 0
				for i := 0; i < b.N; i++ {
					if off+size > len(items) {
						off = 0
					}
					e.UpdateBatch(items[off : off+size])
					off += size
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(size)), "ns/item")
			})
		}
	}
}

// --- wire format (internal/estimator registry) ---

// wireEstimator builds one estimator of the named kind through the
// registry and feeds it a sampled Zipf stream, so marshal/decode benches
// measure realistically-populated summaries.
func wireEstimator(b *testing.B, stat string) estimator.Estimator {
	b.Helper()
	e, err := estimator.New(estimator.Spec{
		Stat: stat, P: 0.2, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.UpdateBatch(sampledZipf(1<<15, 0.2))
	return e
}

// benchmarkMarshal measures serializing one cumulative summary — the
// per-flush cost an agent pays — and reports the wire size, so
// bytes-per-summary shows up in the perf trajectory alongside
// throughput.
func benchmarkMarshal(b *testing.B, stat string) {
	e := wireEstimator(b, stat)
	payload, err := e.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "bytes/summary")
}

// benchmarkDecode measures the registry's single decode entry point —
// the per-summary cost a collector pays on arrival.
func benchmarkDecode(b *testing.B, stat string) {
	e := wireEstimator(b, stat)
	payload, err := e.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimator.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "bytes/summary")
}

// --- windowed estimation (internal/window) ---

// windowedEstimator builds a W-epoch ring over stat, its traffic spread
// across W epochs on a manual clock.
func windowedEstimator(b *testing.B, stat string, w int) estimator.Estimator {
	b.Helper()
	clock := window.NewManualClock()
	e, err := window.Wrap(window.Config{
		Window: w, EpochLen: time.Second, Clock: clock,
		New: func() (estimator.Estimator, error) {
			return estimator.New(estimator.Spec{
				Stat: stat, P: 0.2, K: 2, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 11,
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	items := sampledZipf(1<<15, 0.2)
	per := len(items) / w
	for ep := 0; ep < w; ep++ {
		clock.Set(uint64(ep))
		e.UpdateBatch(items[ep*per : (ep+1)*per])
	}
	return e
}

// BenchmarkWindowIngestF0 prices the wrapper's ingest tax: every batch
// feeds the current generation AND the cumulative replica, so the floor
// is 2x the raw estimator's batch cost plus a clock check.
func BenchmarkWindowIngestF0(b *testing.B) {
	e := windowedEstimator(b, "f0", 4)
	batch := sampledZipf(4096, 0.2)
	b.SetBytes(8 * int64(len(batch)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.UpdateBatch(batch)
	}
}

// BenchmarkWindowEstimateF0 prices a window query: decode the pristine
// replica, merge W generations, report.
func BenchmarkWindowEstimateF0(b *testing.B) {
	e := windowedEstimator(b, "f0", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est := e.Estimates(); est["window_f0"] <= 0 {
			b.Fatal("degenerate window estimate")
		}
	}
}

// BenchmarkWindowMarshalF0 prices a windowed flush, wire size included
// (W+2 nested payloads vs benchmarkMarshal's one).
func BenchmarkWindowMarshalF0(b *testing.B) {
	e := windowedEstimator(b, "f0", 4)
	payload, err := e.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "bytes/summary")
}

func BenchmarkMarshalFk(b *testing.B)       { benchmarkMarshal(b, "fk") }
func BenchmarkMarshalF0(b *testing.B)       { benchmarkMarshal(b, "f0") }
func BenchmarkMarshalEntropy(b *testing.B)  { benchmarkMarshal(b, "entropy") }
func BenchmarkMarshalHH1(b *testing.B)      { benchmarkMarshal(b, "hh1") }
func BenchmarkMarshalHH2(b *testing.B)      { benchmarkMarshal(b, "hh2") }
func BenchmarkMarshalMonitor(b *testing.B)  { benchmarkMarshal(b, "all") }
func BenchmarkMarshalQuantile(b *testing.B) { benchmarkMarshal(b, "quantile") }

func BenchmarkDecodeFk(b *testing.B)       { benchmarkDecode(b, "fk") }
func BenchmarkDecodeF0(b *testing.B)       { benchmarkDecode(b, "f0") }
func BenchmarkDecodeEntropy(b *testing.B)  { benchmarkDecode(b, "entropy") }
func BenchmarkDecodeHH1(b *testing.B)      { benchmarkDecode(b, "hh1") }
func BenchmarkDecodeHH2(b *testing.B)      { benchmarkDecode(b, "hh2") }
func BenchmarkDecodeMonitor(b *testing.B)  { benchmarkDecode(b, "all") }
func BenchmarkDecodeQuantile(b *testing.B) { benchmarkDecode(b, "quantile") }

// --- fold kernels (the collector's query-time 16-way fold) ---

// fleetSamples returns (building them once) 16 agents' Bernoulli(0.05) samples of disjoint
// 200 000-item slices of one Zipf(1.1) stream over 2^20 items — the
// shape of the retained table in the standing benchmark's
// fleet_ship_query workload (benchmark/workloads.go).
var fleetSamples = sync.OnceValue(func() []stream.Slice {
	const agents, perAgent = 16, 200_000
	all := stream.Collect(workload.Zipf(agents*perAgent, 1<<20, 1.1, 21).Stream)
	out := make([]stream.Slice, agents)
	for i := range out {
		out[i] = sample.NewBernoulli(0.05).Apply(all[i*perAgent:(i+1)*perAgent], rng.New(uint64(100+i)))
	}
	return out
})

// BenchmarkSpaceSavingMerge folds the 16 agents' heavy summaries into a
// fresh accumulator: one op is 16 SpaceSaving.Merge calls. The states are
// fed, not decoded, so every merge also radix-sorts a copy of its
// argument into item order (the agent's fold of its shard replicas);
// CollectorEstimateFk16 folds decoded states, which Merge reads in place.
func BenchmarkSpaceSavingMerge(b *testing.B) {
	var states []*sketch.SpaceSaving
	for _, L := range fleetSamples() {
		ss := sketch.NewSpaceSaving(4096)
		ss.UpdateBatch(L)
		states = append(states, ss)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := sketch.NewSpaceSaving(4096)
		for _, s := range states {
			if err := acc.Merge(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLevelsetMerge folds the 16 agents' Theorem 2 level-set
// counters (heavy summary + 5 universe-sampling repetitions) into a
// fresh accumulator: one op is 16 levelset.Estimator.Merge calls. Like
// SpaceSavingMerge it folds fed states, so it prices both parts' sort
// path: the heavy summary's sorted copy, and each repetition's radix sort
// of the argument's entries at or above the threshold into scratch the
// accumulator keeps. CollectorEstimateFk16 folds decoded states, which
// both parts read in place.
func BenchmarkLevelsetMerge(b *testing.B) {
	cfg := levelset.Config{EpsPrime: 0.05, Budget: 4096}
	var states []*levelset.Estimator
	for _, L := range fleetSamples() {
		e := levelset.New(cfg, rng.New(1))
		e.UpdateBatch(L)
		states = append(states, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := levelset.New(cfg, rng.New(1))
		for _, s := range states {
			if err := acc.Merge(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fk16Collector builds the fleet-shaped table the two CollectorEstimateFk16
// benchmarks query: 16 retained fk states, one per agent of fleetSamples,
// and the summaries they were accepted from.
func fk16Collector(b *testing.B) (*server.Collector, []server.Summary) {
	cfg := server.StreamConfig{Stat: "fk", K: 2, P: 0.05, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 1}
	c := server.NewCollector(server.CollectorConfig{})
	var sums []server.Summary
	for i, L := range fleetSamples() {
		e, err := estimator.New(estimator.Spec{
			Stat: cfg.Stat, P: cfg.P, K: cfg.K, Epsilon: cfg.Epsilon, Alpha: cfg.Alpha, Budget: cfg.Budget, Seed: cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.UpdateBatch(L)
		payload, err := e.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		sum := server.Summary{
			Agent: fmt.Sprintf("a%02d", i), Stream: "fk", Seq: 1, Config: cfg,
			Fed: 200_000, Kept: uint64(len(L)), Payload: payload,
		}
		if err := c.Accept(sum); err != nil {
			b.Fatal(err)
		}
		sums = append(sums, sum)
	}
	return c, sums
}

// BenchmarkCollectorEstimateFk16 prices one dashboard query against a
// fleet-shaped table that changed since the last one: Collector.Estimate
// folds 16 retained fk states into a fresh accumulator and reports. Before
// each op, outside the timer, one agent re-ships its state at a new Seq,
// so the stream's cached report never matches and every op pays the fold.
// The states are decoded, so every slab the fold reads — heavy summary and
// repetitions alike — is in item order and each merge is a join; no index
// is built or probed.
func BenchmarkCollectorEstimateFk16(b *testing.B) {
	c, sums := fk16Collector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sum := &sums[i%len(sums)]
		sum.Seq++
		if err := c.Accept(*sum); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g, err := c.Estimate("fk")
		if err != nil || g.Agents != 16 {
			b.Fatalf("estimate: %+v, %v", g, err)
		}
	}
}

// BenchmarkCollectorEstimateFk16Cached prices the same query against an
// unchanged table — a dashboard polling between shipments: the stream's
// cached report answers, and the op is the selection under the read lock
// plus the copy of the report Estimate hands its caller.
func BenchmarkCollectorEstimateFk16Cached(b *testing.B) {
	c, _ := fk16Collector(b)
	if _, err := c.Estimate("fk"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := c.Estimate("fk")
		if err != nil || g.Agents != 16 {
			b.Fatalf("estimate: %+v, %v", g, err)
		}
	}
}

// BenchmarkCollectEnvelope prices the collector's side of the budget's
// ship layer: one op POSTs one json.Marshal'ed agent envelope through
// Collector.Handler — body read, envelope parse, payload Decode, trial
// fold and accept (every op repeats the first delivery's Seq, so the table
// keeps one row while each op still pays the whole door). fk is the level
// set at p = 0.05 over a Bernoulli(0.05) sample of the standard stream, the
// first 2^20 items of Zipf(1.1) over 2^20 keys; all is the full Monitor
// over the whole stream at p = 1.
func BenchmarkCollectEnvelope(b *testing.B) {
	items := stream.Collect(workload.Zipf(1<<20, 1<<20, 1.1, 21).Stream)
	for _, c := range []struct {
		cfg   server.StreamConfig
		items stream.Slice
	}{
		{server.StreamConfig{Stat: "fk", K: 2, P: 0.05, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 1},
			sample.NewBernoulli(0.05).Apply(items, rng.New(1))},
		{server.StreamConfig{Stat: "all", K: 2, P: 1, Epsilon: 0.2, Alpha: 0.05, Budget: 4096, Seed: 1}, items},
	} {
		b.Run(c.cfg.Stat, func(b *testing.B) {
			e, err := estimator.New(estimator.Spec{
				Stat: c.cfg.Stat, P: c.cfg.P, K: c.cfg.K, Epsilon: c.cfg.Epsilon, Alpha: c.cfg.Alpha, Budget: c.cfg.Budget, Seed: c.cfg.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			e.UpdateBatch(c.items)
			payload, err := e.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(server.Summary{
				Agent: "a00", Stream: c.cfg.Stat, Seq: 1, Config: c.cfg,
				Fed: uint64(len(items)), Kept: uint64(len(c.items)), Payload: payload,
			})
			if err != nil {
				b.Fatal(err)
			}
			h := server.NewCollector(server.CollectorConfig{}).Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/collect", bytes.NewReader(body)))
				if rr.Code != http.StatusAccepted {
					b.Fatalf("status %d: %s", rr.Code, rr.Body)
				}
			}
			b.ReportMetric(float64(len(body)), "bytes/envelope")
		})
	}
}

// BenchmarkExactCounterCycle prices the five passes one flush cycle of
// the standing benchmark's ingest_bin_sampled stream (fk, Exact) makes
// over the exact counting store, on that stream's shape: 4 M draws of
// Zipf(1.1) over 2^20 items — what p = 0.05 keeps of 80 M — fed in
// alternating 8192-item chunks to two shard replicas, ≈ 350 k distinct
// keys in their union. fold-2-replicas is the agent's fold of the two fed
// replicas when nothing ever settled them (a store nobody synced: each
// Merge sorts a copy of every key), marshal and decode the summary's codec,
// trial-fold the collector's admission merge of the decoded state alone,
// query its fold plus the report. The last two rows are the steady state
// of a daemon's flush since replicas settle at the Sync barrier: between
// two flushes a replica takes 200 more draws (a tail cycle's sample) and
// its worker settles it — settle-delta, one replica's share, index rebuild
// included — and fold-2-settled-replicas is the fold the flushing
// goroutine is then left with under the stream lock (timer stopped while
// the two replicas are fed and settled, as the workers do that).
func BenchmarkExactCounterCycle(b *testing.B) {
	const n, chunk = 4_000_000, 8192
	const delta, cycles = 200, 4096 // draws per replica per flush cycle; cycles before the draws repeat
	items := stream.Collect(workload.Zipf(n+2*delta*cycles, 1<<20, 1.1, 21).Stream)
	items, later := items[:n], items[n:]
	fresh := func() estimator.Estimator {
		e, err := estimator.New(estimator.Spec{Stat: "fk", K: 2, P: 0.05, Exact: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	fold := func(states ...estimator.Estimator) estimator.Estimator {
		acc := fresh()
		for _, s := range states {
			if err := acc.Merge(s); err != nil {
				b.Fatal(err)
			}
		}
		return acc
	}
	replicas := []estimator.Estimator{fresh(), fresh()}
	for i := 0; i < n; i += chunk {
		replicas[i/chunk%2].UpdateBatch(items[i:min(i+chunk, n)])
	}
	folded := fold(replicas...)
	payload, err := folded.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	retained, err := estimator.Decode(payload)
	if err != nil {
		b.Fatal(err)
	}
	// A second pair, for the rows that settle: the first stays as fed as
	// it is, Merge never writes its argument.
	settled := []estimator.Estimator{fresh(), fresh()}
	for i := 0; i < n; i += chunk {
		settled[i/chunk%2].UpdateBatch(items[i:min(i+chunk, n)])
	}
	cycle := 0
	feedAndSettle := func(replica int) {
		at := (cycle%cycles*2 + replica) * delta
		settled[replica].UpdateBatch(later[at : at+delta])
		estimator.Unwrap(settled[replica]).(interface{ Settle() }).Settle()
	}
	keys := float64(len(stream.NewFreq(stream.Slice(items))))
	for _, c := range []struct {
		name string
		op   func(b *testing.B)
	}{
		{"fold-2-replicas", func(*testing.B) { fold(replicas...) }},
		{"marshal", func(b *testing.B) {
			if _, err := folded.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}},
		{"decode", func(b *testing.B) {
			if _, err := estimator.Decode(payload); err != nil {
				b.Fatal(err)
			}
		}},
		{"trial-fold", func(*testing.B) { fold(retained) }},
		{"query", func(*testing.B) { estimator.ReportOf(fold(retained)) }},
		{"settle-delta", func(b *testing.B) {
			feedAndSettle(0)
			b.StopTimer()
			feedAndSettle(1)
			cycle++
			b.StartTimer()
		}},
		{"fold-2-settled-replicas", func(b *testing.B) {
			b.StopTimer()
			feedAndSettle(0)
			feedAndSettle(1)
			cycle++
			b.StartTimer()
			fold(settled...)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op(b)
			}
			b.ReportMetric(keys, "keys")
		})
	}
}

// BenchmarkMonitorUpdate prices the `update` layer the way the standing
// benchmark's ingest_bin_presampled workload pays it: one Zipf(1.1)
// stream over 2^20 items, P = 1 (every item reaches the estimator),
// fed in 8192-item batches. One op is one pass over the 2^20-item
// stream into a state already warmed by one pass, so ns/item is the
// steady-state cost; "all" is the full Monitor, the rest its parts.
func BenchmarkMonitorUpdate(b *testing.B) {
	const n, batch = 1 << 20, 8192
	items := stream.Collect(workload.Zipf(n, 1<<20, 1.1, 21).Stream)
	for _, stat := range []string{"all", "fk", "hh1", "hh2"} {
		b.Run(stat, func(b *testing.B) {
			e, err := estimator.New(estimator.Spec{Stat: stat, K: 2, P: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			pass := func() {
				for i := 0; i < n; i += batch {
					e.UpdateBatch(items[i : i+batch])
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
		})
	}
}

// appendWeightedLine appends one "key weight" line of the weighted text
// form, the weight rendered %.<prec>g (-1: shortest round trip).
func appendWeightedLine(dst []byte, key uint64, w float64, prec int) []byte {
	dst = append(strconv.AppendUint(dst, key, 10), ' ')
	return append(strconv.AppendFloat(dst, w, 'g', prec, 64), '\n')
}

// BenchmarkParseLines prices the `decode` layer of the text lanes: one
// op is one pass of a block parser over a 4096-line body, the standing
// benchmark's POST size. "weighted" carries the benchmark's own lines
// (nine- and ten-digit keys, Pareto weights rendered %.6g), all on the
// inline path; "weighted-17digit" renders the same weights the way WriteWeightedText
// does (shortest round trip, ~17 digits), so every weight goes to the
// line parser and the fallback's cost is on record; "crlf" is plain keys
// with CRLF endings, the line parser again; "weighted-perline" is the
// per-line loop the block parser replaced, on "weighted"'s body.
func BenchmarkParseLines(b *testing.B) {
	const n = 4096
	r := rng.New(5)
	var plain, crlf, weighted, weighted17 []byte
	for _, rank := range stream.Collect(workload.Zipf(n, 1<<20, 1.1, 3).Stream) {
		// The benchmark's keys: ranks spread over 10.0.0.0/8 and
		// 172.16.0.0/12, nine and ten decimal digits.
		k, w := 0x0A000000|uint64(rank)>>1, rng.Pareto(r, 1, 1.3)
		if rank&1 == 0 {
			k = 0xAC100000 | uint64(rank)>>1
		}
		plain = append(strconv.AppendUint(plain, k, 10), '\n')
		crlf = append(strconv.AppendUint(crlf, k, 10), '\r', '\n')
		weighted = appendWeightedLine(weighted, k, w, 6)
		weighted17 = appendWeightedLine(weighted17, k, w, -1)
	}
	run := func(name string, body []byte, pass func() (items, used int)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if items, used := pass(); items != n || used != len(body) {
					b.Fatalf("parsed %d items from %d bytes, want %d from %d", items, used, n, len(body))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
		})
	}
	items, witems := make([]stream.Item, 0, n), make([]stream.WItem, 0, n)
	keyLines := func(body []byte) func() (int, int) {
		return func() (int, int) {
			out, used, _, _ := stream.ParseLines(body, items[:0])
			return len(out), used
		}
	}
	weightedLines := func(body []byte) func() (int, int) {
		return func() (int, int) {
			out, used, _, _ := stream.ParseWeightedLines(body, witems[:0])
			return len(out), used
		}
	}
	run("plain", plain, keyLines(plain))
	run("crlf", crlf, keyLines(crlf))
	run("weighted", weighted, weightedLines(weighted))
	run("weighted-17digit", weighted17, weightedLines(weighted17))
	run("weighted-perline", weighted, func() (int, int) {
		out, pos := witems[:0], 0
		for pos < len(weighted) {
			nl := bytes.IndexByte(weighted[pos:], '\n')
			if it, ok, err := stream.ParseWeightedLine(weighted[pos : pos+nl]); ok && err == nil {
				out = append(out, it)
			}
			pos += nl + 1
		}
		return len(out), pos
	})
}

// --- network monitoring daemon (internal/server) ---

// benchmarkServerIngest measures the daemon's end-to-end ingest path:
// HTTP request in, body decode, pipeline dispatch, in-shard Bernoulli
// sampling, estimator update. One op is one 4096-item batch over a real
// (loopback) connection; bytes/sec is raw item payload throughput.
func benchmarkServerIngest(b *testing.B, contentType string, encode func(stream.Slice) []byte) {
	benchmarkServerIngestObs(b, contentType, encode, 0)
}

func benchmarkServerIngestObs(b *testing.B, contentType string, encode func(stream.Slice) []byte, obsSampleEvery int) {
	agent := server.NewAgent(server.AgentConfig{ID: "bench", ObsSampleEvery: obsSampleEvery})
	defer agent.Close()
	if err := agent.CreateStream("traffic", server.StreamConfig{
		Stat: "fk", K: 2, P: 0.05, Seed: 9, Exact: true, Shards: 4, Batch: 1024, SampleSeed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(agent.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/streams/traffic/ingest"

	const batchItems = 4096
	wl := workload.Zipf(batchItems, 65536, 1.1, 3)
	body := encode(stream.Collect(wl.Stream))

	b.SetBytes(8 * batchItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest returned %s", resp.Status)
		}
	}
}

// benchmarkServerIngestWeighted mirrors benchmarkServerIngest for the
// weighted wires: 4096 (key, Pareto weight) pairs per op into a varopt
// stream over the same loopback HTTP round trip, as 16-byte records or,
// with text set, as the "key weight" lines (weights rendered %.6g) the
// benchmark of record's ingest_text_weighted workload POSTs.
func benchmarkServerIngestWeighted(b *testing.B, text bool) {
	agent := server.NewAgent(server.AgentConfig{ID: "bench"})
	defer agent.Close()
	if err := agent.CreateStream("traffic", server.StreamConfig{
		Stat: "varopt", Budget: 1024, P: 0.05, Seed: 9, Shards: 4, Batch: 1024, SampleSeed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(agent.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/streams/traffic/ingest"

	const batchItems = 4096
	wl := workload.Zipf(batchItems, 65536, 1.1, 3)
	r := rng.New(5)
	var body []byte
	contentType := server.ContentTypeBinaryWeighted
	if text {
		contentType = server.ContentTypeTextWeighted
	}
	for _, it := range stream.Collect(wl.Stream) {
		if w := rng.Pareto(r, 1, 1.3); text {
			body = appendWeightedLine(body, uint64(it), w, 6)
		} else {
			body = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(body, uint64(it)), math.Float64bits(w))
		}
	}

	b.SetBytes(16 * batchItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest returned %s", resp.Status)
		}
	}
}

func BenchmarkServerIngest(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		benchmarkServerIngest(b, server.ContentTypeBinary, func(items stream.Slice) []byte {
			buf := make([]byte, 8*len(items))
			for i, it := range items {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(it))
			}
			return buf
		})
	})
	b.Run("text", func(b *testing.B) {
		benchmarkServerIngest(b, server.ContentTypeText, func(items stream.Slice) []byte {
			var sb bytes.Buffer
			for _, it := range items {
				fmt.Fprintln(&sb, uint64(it))
			}
			return sb.Bytes()
		})
	})
	// The weighted lane: same end-to-end path but 16-byte key+weight
	// records into a VarOpt reservoir. Not a like-for-like comparison
	// with "binary" (twice the wire bytes per item, different estimator);
	// it records the weighted path's own throughput trajectory.
	b.Run("binary-weighted", func(b *testing.B) {
		benchmarkServerIngestWeighted(b, false)
	})
	// The same items as "key weight" lines: the lane where the text
	// block parser is most of the server's work.
	b.Run("text-weighted", func(b *testing.B) {
		benchmarkServerIngestWeighted(b, true)
	})
	// The ablation for histogram sampling: identical to binary but with
	// ObsSampleEvery 1, i.e. every request pays the decode/feed clock
	// reads and histogram inserts the default configuration samples
	// 1-in-64. The binary/obs-unsampled delta is the instrumentation tax
	// the sampler removes.
	b.Run("binary-obs-unsampled", func(b *testing.B) {
		benchmarkServerIngestObs(b, server.ContentTypeBinary, func(items stream.Slice) []byte {
			buf := make([]byte, 8*len(items))
			for i, it := range items {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(it))
			}
			return buf
		}, 1)
	})
}

// --- ablation: adaptive sampling probability (paper's open question 2) ---

func BenchmarkAdaptiveVsFixedP(b *testing.B) {
	wl := workload.Zipf(1<<16, 8192, 1.1, 10)
	s := stream.Collect(wl.Stream)
	boundary := len(s) / 2
	adaptive := sample.NewAdaptiveBernoulli([]int{boundary}, []float64{0.2, 0.05})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		tagged := adaptive.Apply(s, r)
		_ = adaptive.EstimateF2(tagged)
	}
}
