package main

import "os"

// Example pins the windowed demo end to end: the traffic is seeded and
// the ManualClock sets every epoch, so the window and cumulative F0 of
// each epoch, the verdicts and the revived ring are verbatim output.
func Example() {
	run(os.Stdout)
	// Output:
	// port-scan detection with a 3-epoch window (scan during epochs 3-4)
	//
	// epoch   flows      window F0      cumulative F0    verdict
	// 0       40000      3124           3124             ok
	// 1       40000      3657           3657             ok
	// 2       40000      3845           3845             ok
	// 3       40000      43947          43976            ALERT: flow explosion in window
	// 4       40000      83145          84014            ALERT: flow explosion in window
	// 5       40000      83196          84014            ALERT: flow explosion in window
	// 6       40000      43876          84014            ALERT: flow explosion in window
	// 7       40000      3867           84014            ok
	//
	// after the scan: window F0 3867 (back to normal) vs cumulative F0 84014 (scarred forever by 80000 scan flows)
	// serialized ring: 33030 bytes, revives at epoch 7 with window F0 3867
}
