// Distributed monitoring: several routers each observe an independently
// Bernoulli-sampled share of the traffic; a central collector merges
// their summaries instead of the raw samples. The related work the paper
// surveys (Cormode et al., Tirthapura–Woodruff, "optimal sampling from
// distributed streams") motivates exactly this deployment, and
// internal/pipeline is its single-machine rendering: one worker per
// router, in-shard Bernoulli sampling, mergeable per-shard summaries.
//
// Each router ships three tiny summaries: a KMV sketch (distinct flows),
// a CountMin sketch (per-flow packet counts), and an exact-collision Fk
// estimator (traffic skew via F₂). Merging is exact for all three, so the
// collector answers as if it had seen every exported packet — and the
// paper's estimators then recover statistics of the ORIGINAL traffic.
//
// This example keeps everything in one process to show the merge
// machinery itself; examples/agentcollector runs the same topology as
// real HTTP daemons shipping serialized summaries (internal/server).
//
// Run: go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"substream/internal/core"
	"substream/internal/pipeline"
	"substream/internal/rng"
	"substream/internal/sketch"
	"substream/internal/stream"
	"substream/internal/workload"
)

const (
	routers   = 4
	packets   = 600000 // total original traffic across all routers
	p         = 0.05   // per-router sampled-NetFlow rate
	sketchKMV = 1024
)

// router is one monitoring point's summary bundle. It rides the pipeline
// via UpdateBatch and merges into the collector via Merge — the two
// interfaces the ingestion layer is built around.
type router struct {
	kmv *sketch.KMV
	cm  *sketch.CountMin
	f2  *core.FkEstimator
	saw int
}

// newRouter builds a router's summaries. Every router constructs from the
// same agreed seed: identical hash functions are what make the summaries
// mergeable at the collector (verified with probe keys at merge time).
func newRouter(int) *router {
	const agreedSeed = 1234
	return &router{
		kmv: sketch.NewKMV(sketchKMV, rng.New(agreedSeed)),
		cm:  sketch.NewCountMin(4096, 5, rng.New(agreedSeed)),
		f2:  core.NewFkEstimator(core.FkConfig{K: 2, P: p, Exact: true}, rng.New(agreedSeed)),
	}
}

// UpdateBatch absorbs one batch of this router's sampled packets.
func (rt *router) UpdateBatch(items []stream.Item) {
	rt.kmv.UpdateBatch(items)
	rt.cm.UpdateBatch(items)
	rt.f2.UpdateBatch(items)
	rt.saw += len(items)
}

// Merge folds another router's summaries into this one.
func (rt *router) Merge(other *router) error {
	if err := rt.kmv.Merge(other.kmv); err != nil {
		return err
	}
	if err := rt.cm.Merge(other.cm); err != nil {
		return err
	}
	if err := rt.f2.Merge(other.f2); err != nil {
		return err
	}
	rt.saw += other.saw
	return nil
}

func main() { run(os.Stdout) }

// run prints the collector's answers to w; the traffic and every
// router's sampling are seeded, so it prints the same every time.
func run(w io.Writer) {
	r := rng.New(5)
	wl, _ := workload.NetFlow(packets, 15000, 1.05, 1.3, 4, r.Uint64())
	traffic := stream.Collect(wl.Stream)
	truth := stream.NewFreq(traffic)

	// Traffic is dealt across routers batch-by-batch (ECMP-style); each
	// worker samples its share at p before touching its summaries.
	pl := pipeline.New(pipeline.Config{
		Shards:    routers,
		BatchSize: 2048,
		SampleP:   p,
		Seed:      r.Uint64(),
	}, newRouter)
	pl.FeedSlice(traffic)

	// Collector: stop the workers and fold all summaries into one,
	// keeping one un-merged router aside to measure a single shipment.
	routerStates := pl.Close()
	collector, lastRouter := routerStates[0], routerStates[len(routerStates)-1]
	for _, rt := range routerStates[1:] {
		if err := collector.Merge(rt); err != nil {
			panic(err)
		}
	}

	fmt.Fprintf(w, "%d routers exported %d of %d packets (p=%.2f each)\n\n",
		routers, collector.saw, packets, p)

	// Distinct flows in the original traffic: Algorithm 2 on the merged
	// sample (X/√p).
	sampledDistinct := collector.kmv.Estimate()
	estF0 := sampledDistinct / math.Sqrt(p) // Algorithm 2: X/√p
	fmt.Fprintf(w, "distinct flows: merged-sample estimate %.0f → original-traffic estimate %.0f (true %d)\n",
		sampledDistinct, estF0, truth.F0())

	// Traffic skew: Algorithm 1's F₂ of the original traffic from the
	// merged collision counts.
	estF2 := collector.f2.Estimate()
	trueF2 := truth.Fk(2)
	fmt.Fprintf(w, "traffic F2 (skew): merged estimate %.3g (true %.3g, %+.1f%%)\n",
		estF2, trueF2, 100*(estF2-trueF2)/trueF2)

	// Top flows: CountMin estimates on the merged sketch, scaled by 1/p.
	fmt.Fprintf(w, "\ntop flows from the merged CountMin (scaled by 1/p):\n")
	fmt.Fprintf(w, "%-8s %-14s %-12s %s\n", "flow", "est packets", "true", "err")
	for _, hh := range truth.TopK(5) {
		est := float64(collector.cm.Estimate(hh.Item)) / p
		fmt.Fprintf(w, "%-8d %-14.0f %-12d %+.1f%%\n",
			hh.Item, est, hh.Freq, 100*(est-float64(hh.Freq))/float64(hh.Freq))
	}

	// The shipping cost is the real wire size of ONE router's serialized
	// summaries (the format internal/server ships) — Merge leaves its
	// source untouched, so lastRouter still holds a single router's state.
	kmvWire, _ := lastRouter.kmv.MarshalBinary()
	cmWire, _ := lastRouter.cm.MarshalBinary()
	f2Wire, _ := lastRouter.f2.MarshalBinary()
	fmt.Fprintf(w, "\nbytes shipped per router: %d (KMV) + %d (CountMin) + %d (F2) vs %d for the raw sampled packets\n",
		len(kmvWire), len(cmWire), len(f2Wire), lastRouter.saw*8)
}
