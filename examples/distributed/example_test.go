package main

import "os"

// Example pins the distributed demo end to end: the traffic and the
// pipeline's per-shard sampling are seeded and batches go to routers
// round-robin, so the merged answers and the wire sizes are verbatim
// output.
func Example() {
	run(os.Stdout)
	// Output:
	// 4 routers exported 29980 of 600000 packets (p=0.05 each)
	//
	// distinct flows: merged-sample estimate 4806 → original-traffic estimate 21495 (true 10301)
	// traffic F2 (skew): merged estimate 1.33e+10 (true 1.32e+10, +0.4%)
	//
	// top flows from the merged CountMin (scaled by 1/p):
	// flow     est packets    true         err
	// 1        105400         105293       +0.1%
	// 2        25560          25815        -1.0%
	// 4        19640          19408        +1.2%
	// 3        17860          17476        +2.2%
	// 6        15440          15009        +2.9%
	//
	// bytes shipped per router: 8222 (KMV) + 18145 (CountMin) + 3841 (F2) vs 58592 for the raw sampled packets
}
