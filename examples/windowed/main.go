// Windowed monitoring: why "distinct flows since boot" is the wrong
// answer to an operator's question, and what the epoch ring
// (internal/window) answers instead.
//
// A router watches normal traffic until a port scan floods it with
// never-repeating flows for two epochs, then stops. The cumulative F0
// estimate — all this repository's estimators before internal/window —
// keeps reporting the scan's flows forever. The windowed estimate over
// the last W epochs raises the alarm while the scan runs and RECOVERS
// once it stops, because expired generations rotate out of the ring:
//
//	epoch:   e-2   e-1    e (current)
//	          │     │     │
//	ring:   [gen] [gen] [gen] ── rotate on epoch boundary
//	          └─────┴──┬──┴─ window estimate = merge of retained gens
//
// The demo drives a ManualClock one epoch at a time; the daemon
// (cmd/substreamd) runs the identical machinery on a wall clock — see
// StreamConfig.Window/Epoch and the README's windowed-estimation
// section.
//
// Run: go run ./examples/windowed
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
	"substream/internal/window"
	"substream/internal/workload"

	// Register the standard estimator kinds.
	_ "substream/internal/core"
)

const (
	epochs   = 8
	perEpoch = 40000
	scanFrom = 3 // scan runs during epochs [scanFrom, scanTo)
	scanTo   = 5
	W        = 3 // window span in epochs
)

func main() { run(os.Stdout) }

// run prints the epoch table to w; the traffic is seeded and the clock
// manual, so it prints the same every time.
func run(w io.Writer) {
	spec := estimator.Spec{Stat: "f0", P: 1, Seed: 42}
	clock := window.NewManualClock()
	ring, err := window.New(window.Config{
		Window:   W,
		EpochLen: time.Second, // opaque here: the ManualClock drives rotation
		Clock:    clock,
		New:      func() (estimator.Estimator, error) { return estimator.New(spec) },
	})
	if err != nil {
		panic(err)
	}

	fmt.Fprintf(w, "port-scan detection with a %d-epoch window (scan during epochs %d-%d)\n\n",
		W, scanFrom, scanTo-1)
	fmt.Fprintf(w, "%-7s %-10s %-14s %-16s %s\n", "epoch", "flows", "window F0", "cumulative F0", "verdict")

	scanID := stream.Item(1_000_000)
	for e := 0; e < epochs; e++ {
		clock.Set(uint64(e))

		var traffic stream.Slice
		if e >= scanFrom && e < scanTo {
			// The scan: every packet a brand-new flow.
			traffic = make(stream.Slice, perEpoch)
			for i := range traffic {
				scanID++
				traffic[i] = scanID
			}
		} else {
			// Background traffic: the usual skewed flow mix.
			wl := workload.Zipf(perEpoch, 4000, 1.1, uint64(100+e))
			traffic = stream.Collect(wl.Stream)
		}
		ring.UpdateBatch(traffic)

		est := ring.Estimates()
		verdict := "ok"
		if est["window_f0"] > 3*4000 {
			verdict = "ALERT: flow explosion in window"
		}
		fmt.Fprintf(w, "%-7d %-10d %-14.0f %-16.0f %s\n",
			e, len(traffic), est["window_f0"], est["f0"], verdict)
	}

	est := ring.Estimates()
	fmt.Fprintf(w, "\nafter the scan: window F0 %.0f (back to normal) vs cumulative F0 %.0f"+
		" (scarred forever by %d scan flows)\n",
		est["window_f0"], est["f0"], (scanTo-scanFrom)*perEpoch)

	// The ring ships like any other summary: one payload, revivable
	// through the registry, frozen at its snapshot epoch.
	payload, err := estimator.Adapt(ring).MarshalBinary()
	if err != nil {
		panic(err)
	}
	revived, err := estimator.Decode(payload)
	if err != nil {
		panic(err)
	}
	epoch, _ := window.EpochOf(revived)
	fmt.Fprintf(w, "serialized ring: %d bytes, revives at epoch %d with window F0 %.0f\n",
		len(payload), epoch, revived.Estimates()["window_f0"])
}
