// NetFlow monitoring: the paper's motivating scenario (§1).
//
// A router exports a Bernoulli-sampled packet stream ("randomly sampled
// NetFlow"); the collector must answer, about the ORIGINAL traffic:
//
//   - how many distinct flows were active? (F₀ — Algorithm 2)
//   - which flows exceeded 2% of traffic?  (F₁ heavy hitters — Theorem 6)
//   - how large was the self-join of the flow-size distribution,
//     a standard skew indicator? (F₂ — Algorithm 1)
//   - how many BYTES came from 10.0.0.0/8? (weighted subset sum over a
//     VarOpt-k reservoir — see bytesFromPrefix)
//
// Run: go run ./examples/netflow
package main

import (
	"fmt"
	"io"
	"os"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

func main() {
	const (
		packets = 800000
		flows   = 20000
		p       = 0.05 // 1-in-20 sampled NetFlow
		alpha   = 0.02 // report flows above 2% of packets
	)
	r := rng.New(7)

	// Synthetic trace: Zipf-popular flows with Pareto sizes, standing in
	// for proprietary traces (see internal/workload).
	wl, _ := workload.NetFlow(packets, flows, 1.05, 1.3, 4, r.Uint64())
	truth := stream.NewFreq(wl.Stream)

	f0 := core.NewF0Estimator(core.F0Config{P: p}, r.Split())
	hh := core.NewF1HeavyHitters(core.F1HHConfig{P: p, Alpha: alpha, Epsilon: 0.2}, r.Split())
	f2 := core.NewFkEstimator(core.FkConfig{K: 2, P: p, Epsilon: 0.2}, r.Split())

	seen := 0
	_ = sample.NewBernoulli(p).Pipe(wl.Stream, r.Split(), func(it stream.Item) error {
		seen++
		f0.Observe(it)
		hh.Observe(it)
		f2.Observe(it)
		return nil
	})

	fmt.Printf("router exported %d of %d packets (p=%.2f)\n\n", seen, packets, p)

	fmt.Printf("active flows: estimated %.0f, true %d (mult bound %.1fx — Lemma 8)\n",
		f0.Estimate(), truth.F0(), f0.ErrorBound())

	fmt.Printf("self-join size F2: estimated %.4g, true %.4g\n\n",
		f2.Estimate(), truth.Fk(2))

	fmt.Printf("flows above %.0f%% of traffic (threshold %d packets):\n",
		alpha*100, int(alpha*packets))
	fmt.Printf("%-10s %-14s %-12s %-8s\n", "flow", "est packets", "true", "err")
	for _, h := range hh.Report() {
		truthC := truth[h.Item]
		fmt.Printf("%-10d %-14.0f %-12d %+.1f%%\n",
			h.Item, h.Freq, truthC, 100*(h.Freq-float64(truthC))/float64(truthC))
	}

	// Verify against ground truth.
	missed := 0
	for _, t := range truth.FkHeavyHitters(1, alpha) {
		found := false
		for _, h := range hh.Report() {
			if h.Item == t.Item {
				found = true
				break
			}
		}
		if !found {
			missed++
		}
	}
	fmt.Printf("\nground-truth heavy flows missed: %d (Theorem 6 predicts 0 when n ≥ %.3g)\n",
		missed, hh.MinStreamLength(packets, 0.05))

	fmt.Println()
	bytesFromPrefix(os.Stdout)
}

// bytesFromPrefix is the weighted twin of the scenario above: each flow
// record carries its byte count as a weight, and the question is a
// subset sum — how many bytes came from inside 10.0.0.0/8? A VarOpt-k
// reservoir (k flows of state, here 1024 out of 30000) answers with the
// Horvitz–Thompson estimator: exact weights for the retained heavy
// flows plus τ per retained light one. The flow key holds the source
// address in its low 32 bits, the daemon's subset-sum convention.
func bytesFromPrefix(w io.Writer) {
	const (
		flowCount = 30000
		k         = 1024
	)
	r := rng.New(11)
	v := sample.NewVarOpt(k, r.Split())

	var totalBytes, insideBytes float64
	for i := 0; i < flowCount; i++ {
		// Roughly a quarter of flows originate inside 10.0.0.0/8; the
		// rest come from a 192.168.0.0/16 pool. Flow sizes are
		// Pareto-tailed bytes, the same shape the workload generator
		// uses for packet counts.
		var addr uint64
		if r.Uint64n(4) == 0 {
			addr = 10<<24 | r.Uint64n(1<<24)
		} else {
			addr = 192<<24 | 168<<16 | r.Uint64n(1<<16)
		}
		size := rng.Pareto(r, 1500, 1.2)
		v.ObserveWeighted(stream.Item(addr), size)
		totalBytes += size
		if addr>>24 == 10 {
			insideBytes += size
		}
	}

	est := v.SubsetSum(func(it stream.Item) bool {
		return (uint64(it)&0xffff_ffff)>>24 == 10
	})
	fmt.Fprintf(w, "bytes from 10.0.0.0/8 (VarOpt k=%d over %d flows):\n", k, flowCount)
	fmt.Fprintf(w, "estimated share %.1f%%, true share %.1f%% of %.3g total bytes\n",
		100*est/v.TotalWeight(), 100*insideBytes/totalBytes, totalBytes)
}
