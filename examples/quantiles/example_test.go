package main

import "os"

// Example pins the quantiles demo end to end: the Pareto stream is
// seeded and the shards are dealt round-robin, so every merged quantile,
// its exact counterpart and the summary's size are verbatim output.
func Example() {
	run(os.Stdout)
	// Output:
	// stream: n=2000000 values across 8 shards
	//
	// p50   estimate      1.708   exact      1.703   guarantee ±2% of ranks
	// p90   estimate      5.895   exact      5.888   guarantee ±0.2% of ranks
	// p99   estimate     37.266   exact     34.714   guarantee ±0.2% of ranks
	// p999  estimate    208.320   exact    211.379   guarantee ±0.2% of ranks
	//
	// space: 346 samples, 12464B total (raw sorted data: 15MB)
}
