package pipeline

import (
	"runtime"
	"sync/atomic"
	"testing"

	"substream/internal/stream"
)

// settleRecorder is a replica that records what its worker does to it.
// Its counters are plain fields on purpose: only the owning worker may
// write them, the test reads them right after Sync or Close, and -race
// reports any other arrangement. busy catches an overlap without -race
// too: both methods hold it across a yield.
type settleRecorder struct {
	settles   int // Settle calls
	unsettled int // batches applied since the last Settle
	items     int
	busy      atomic.Bool
	overlap   atomic.Bool
}

func (r *settleRecorder) enter() {
	if !r.busy.CompareAndSwap(false, true) {
		r.overlap.Store(true)
	}
	runtime.Gosched()
}

func (r *settleRecorder) UpdateBatch(items []stream.Item) {
	r.enter()
	r.unsettled++
	r.items += len(items)
	r.busy.Store(false)
}

func (r *settleRecorder) Settle() {
	r.enter()
	r.settles++
	r.unsettled = 0
	r.busy.Store(false)
}

// hidden puts the recorder behind an Unwrap chain, the shape the
// estimator registry's adapter gives the pipeline.
type hidden struct{ inner *settleRecorder }

func (h hidden) UpdateBatch(items []stream.Item) { h.inner.UpdateBatch(items) }
func (h hidden) Unwrap() any                     { return h.inner }

// TestWorkersSettleTheirReplicasAtBarriers pins the Settler contract: every
// worker settles its replica once per Sync — before it acknowledges, so
// the caller of Sync finds all of them settled, fed since the last barrier
// or not — and once more as its ring closes, never while a batch is being
// applied, and a second Close settles nothing.
func TestWorkersSettleTheirReplicasAtBarriers(t *testing.T) {
	const shards = 3
	recs := make([]*settleRecorder, shards)
	p := New(Config{Shards: shards, BatchSize: 8, QueueDepth: 2}, func(i int) hidden {
		recs[i] = &settleRecorder{}
		return hidden{inner: recs[i]}
	})
	s := zipfSlice(4000, 3)
	check := func(when string, settles int) {
		t.Helper()
		for i, r := range recs {
			if r.settles != settles || r.unsettled != 0 {
				t.Fatalf("%s: shard %d settled %d times with %d batches applied since, want %d and 0",
					when, i, r.settles, r.unsettled, settles)
			}
		}
	}
	fed := 0
	for round := 1; round <= 4; round++ {
		if round != 3 { // the third barrier finds nothing new
			p.FeedCopy(s[fed : fed+900])
			fed += 900
		}
		p.Sync()
		check("after Sync", round)
	}
	p.FeedCopy(s[fed:])
	p.Close()
	check("after Close", 5)
	p.Close()
	check("after a second Close", 5)
	items := 0
	for i, r := range recs {
		items += r.items
		if r.overlap.Load() {
			t.Errorf("shard %d: Settle ran while a batch was being applied", i)
		}
	}
	if items != len(s) {
		t.Fatalf("replicas saw %d items of %d", items, len(s))
	}
}
