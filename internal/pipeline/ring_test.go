package pipeline

import (
	"sync"
	"testing"

	"substream/internal/stream"
)

// TestSPSCRingOrderedDelivery hammers a minimal-capacity ring from a
// dedicated producer while a consumer drains it, checking that every
// message arrives exactly once, in order, and that pop reports closure
// only after the ring is drained. Capacity 2 forces both parking edges
// (producer-full and consumer-empty) to fire constantly, which is where
// a lost-wakeup bug in the flag/recheck handshake would deadlock; run
// with -race this doubles as the memory-ordering stress for the
// cursor/slot protocol.
func TestSPSCRingOrderedDelivery(t *testing.T) {
	const n = 200_000
	iters := n
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	r := newSPSCRing(2)
	if r.cap() != 2 {
		t.Fatalf("cap = %d, want 2", r.cap())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var got int
	go func() {
		defer wg.Done()
		misordered := false
		for {
			msg, ok := r.pop()
			if !ok {
				return
			}
			// Report the first misorder but keep draining, so the
			// producer can't wedge on a full ring and mask the failure
			// as a timeout.
			if !misordered && int(msg.items[0]) != got {
				misordered = true
				t.Errorf("message %d carries sequence %d", got, msg.items[0])
			}
			got++
		}
	}()

	for i := 0; i < iters; i++ {
		r.push(batchMsg{items: stream.Slice{stream.Item(i)}})
	}
	r.close()
	wg.Wait()
	if got != iters {
		t.Fatalf("consumer saw %d messages, want %d", got, iters)
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop on closed+drained ring reported a message")
	}
}

// TestSPSCRingCapacityRounding pins the power-of-two rounding.
func TestSPSCRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ depth, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {100, 128},
	} {
		if got := newSPSCRing(tc.depth).cap(); got != tc.want {
			t.Errorf("depth %d: cap = %d, want %d", tc.depth, got, tc.want)
		}
	}
}

// TestPipelineStressConcurrentSync drives a small-queue pipeline hard
// from the producer goroutine — interleaving pooled batches, zero-copy
// slices, owned chunks, and Sync barriers — while a monitor goroutine
// concurrently polls the worker-side gauges (Kept reads the shard
// atomics; ring occupancy reads the cursors). Under -race this is the
// end-to-end data-race check for the ring protocol plus the quiesce
// semantics Sync promises: after each Sync the kept count must equal
// everything fed so far.
func TestPipelineStressConcurrentSync(t *testing.T) {
	rounds := 300
	if raceEnabled || testing.Short() {
		rounds = 60
	}
	p := New(Config{Shards: 4, BatchSize: 8, QueueDepth: 2},
		func(int) *batchReplica { return &batchReplica{} })

	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Kept()
			}
		}
	}()

	chunk := make(stream.Slice, 37)
	for i := range chunk {
		chunk[i] = stream.Item(i + 1)
	}
	var want uint64
	released := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < 20; i++ {
			p.FeedCopy(stream.Slice{stream.Item(i + 1)})
			want++
		}
		p.FeedSlice(chunk)
		want += uint64(len(chunk))
		p.FeedCopy(chunk)
		want += uint64(len(chunk))
		p.FeedOwned(chunk, func() { released++ })
		want += uint64(len(chunk))
		p.Sync()
		if kept := p.Kept(); kept != want {
			t.Fatalf("round %d: Kept = %d after Sync, want %d", r, kept, want)
		}
		if q := p.Stats().Queued; q != 0 {
			t.Fatalf("round %d: %d batches queued after Sync", r, q)
		}
	}
	close(stop)
	mon.Wait()
	if released != rounds {
		t.Fatalf("release ran %d times, want %d", released, rounds)
	}
	shards := p.Close()
	var total uint64
	for _, s := range shards {
		total += s.n
	}
	if total != want {
		t.Fatalf("replicas saw %d items, want %d", total, want)
	}
}
