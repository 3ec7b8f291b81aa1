// Quickstart: the minimal end-to-end use of the library.
//
// A monitor sees only a Bernoulli sample of a high-rate stream (the
// paper's sampled-NetFlow model) and must still report statistics of the
// ORIGINAL stream. This example generates a skewed stream, samples it at
// p = 10%, and estimates F₀, F₂ and entropy from the sample alone.
//
// Run: go run ./examples/quickstart
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

func main() { run(os.Stdout) }

// run prints the comparison to w; the seeds are fixed, so it prints the
// same every time.
func run(w io.Writer) {
	const p = 0.10 // sampling probability, fixed by the router
	r := rng.New(42)

	// The original stream P: 500k items, Zipf-skewed over 8k values.
	wl := workload.Zipf(500000, 8192, 1.1, r.Uint64())
	exact := stream.ComputeExact(wl.Stream)

	// The estimators observe ONLY the sampled stream L.
	f2 := core.NewFkEstimator(core.FkConfig{K: 2, P: p, Epsilon: 0.2}, r.Split())
	f0 := core.NewF0Estimator(core.F0Config{P: p}, r.Split())
	ent := core.NewEntropyEstimator(core.EntropyConfig{P: p}, r.Split())

	sampler := sample.NewBernoulli(p)
	observed := 0
	_ = sampler.Pipe(wl.Stream, r.Split(), func(it stream.Item) error {
		observed++
		f2.Observe(it)
		f0.Observe(it)
		ent.Observe(it)
		return nil
	})

	fmt.Fprintf(w, "original stream: n=%d, distinct=%d — monitor saw only %d items (%.1f%%)\n\n",
		exact.N, exact.F0, observed, 100*float64(observed)/float64(exact.N))

	show := func(name string, est, truth float64) {
		fmt.Fprintf(w, "%-8s estimate %14.4g   exact %14.4g   error %+6.2f%%\n",
			name, est, truth, 100*(est-truth)/truth)
	}
	show("F2", f2.Estimate(), exact.F2)
	show("F0", f0.Estimate(), float64(exact.F0))
	show("entropy", ent.Estimate(), exact.Entropy)

	fmt.Fprintf(w, "\nspace used: F2=%dB  F0=%dB  entropy=%dB  (stream was %d items)\n",
		f2.SpaceBytes(), f0.SpaceBytes(), ent.SpaceBytes(), exact.N)
}
