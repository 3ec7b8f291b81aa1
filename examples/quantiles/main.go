// Streaming quantiles: answer "what is the p99 flow size?" from one
// pass in a few kilobytes — and keep the answer mergeable.
//
// Eight shards each observe a slice of a heavy-tailed stream and build a
// CKMS targeted-quantile summary (internal/quantile). The shards merge
// into one summary whose tail quantiles are guaranteed within 2ε·n
// ranks of the exact sorted data — the property a central collector
// relies on when it folds per-agent summaries (the "quantile" stat in
// substreamd stream configs rides exactly this path, windowed variants
// surfacing window_p99-style keys).
//
// Run: go run ./examples/quantiles
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"substream/internal/quantile"
	"substream/internal/rng"
)

const (
	n      = 2_000_000
	shards = 8
)

func main() { run(os.Stdout) }

// run prints the comparison to w; the stream is seeded, so it prints the
// same every time.
func run(w io.Writer) {
	// A Pareto-distributed value stream: most values tiny, the tail
	// enormous — flow sizes, latencies. Exact quantiles would need the
	// full sorted data; the summary keeps a few hundred samples.
	r := rng.New(7)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Pareto(r, 1, 1.3)
	}

	// Each shard summarizes its slice independently...
	es := make([]*quantile.Estimator, shards)
	for s := range es {
		es[s] = quantile.NewTargeted(quantile.DefaultTargets())
	}
	for i, v := range vals {
		es[i%shards].Insert(v)
	}
	// ...and the collector folds them.
	merged := quantile.NewTargeted(quantile.DefaultTargets())
	for _, e := range es {
		if err := merged.Merge(e); err != nil {
			panic(err)
		}
	}

	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)

	fmt.Fprintf(w, "stream: n=%d values across %d shards\n\n", n, shards)
	for _, tg := range quantile.DefaultTargets() {
		got := merged.Query(tg.Quantile)
		exact := sorted[int(tg.Quantile*float64(n))]
		fmt.Fprintf(w, "%-5s estimate %10.3f   exact %10.3f   guarantee ±%.2g%% of ranks\n",
			quantile.QuantileKey(tg.Quantile), got, exact, 200*tg.Epsilon)
	}
	fmt.Fprintf(w, "\nspace: %d samples, %dB total (raw sorted data: %dMB)\n",
		merged.SampleCount(), merged.SpaceBytes(), 8*n>>20)
}
