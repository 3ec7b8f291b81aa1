package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"

	"substream/internal/stream"
)

// orderReplica records every item it sees, preserving arrival order, and
// snapshots nothing — it exists to catch a FeedOwned buffer being
// mutated underneath a worker.
type orderReplica struct{ seen []stream.Item }

func (o *orderReplica) UpdateBatch(items []stream.Item) {
	o.seen = append(o.seen, items...)
}

// TestFeedOwnedDeliversAndReleasesOnce pins the ownership contract:
// every item of an owned chunk reaches exactly one replica, a partial
// hand-fed batch is flushed ahead of the chunk (stream order), an empty
// chunk releases immediately without dispatching, and release runs
// exactly once per chunk — after the items were applied, which Sync
// makes observable.
func TestFeedOwnedDeliversAndReleasesOnce(t *testing.T) {
	p := New(Config{Shards: 2, BatchSize: 4}, func(int) *orderReplica { return &orderReplica{} })

	released := 0
	p.FeedOwned(nil, func() { released++ })
	if released != 1 {
		t.Fatalf("empty chunk: release ran %d times, want 1", released)
	}
	if p.Stats().Batches != 0 {
		t.Fatal("empty chunk dispatched a batch")
	}

	p.FeedCopy(stream.Slice{1})
	p.FeedCopy(stream.Slice{2})
	chunk := stream.Slice{10, 11, 12, 13, 14}
	p.FeedOwned(chunk, func() { released++ })
	p.Sync()
	if released != 2 {
		t.Fatalf("release ran %d times after Sync, want 2", released)
	}
	if p.Fed() != 7 || p.Kept() != 7 {
		t.Fatalf("Fed=%d Kept=%d, want 7/7", p.Fed(), p.Kept())
	}

	// The partial batch {1,2} must have been flushed before the chunk:
	// round-robin puts it on shard 0 and the chunk on shard 1, each
	// contiguous and in order.
	shards := p.Close()
	if got := shards[0].seen; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("shard 0 saw %v, want [1 2]", got)
	}
	if got := shards[1].seen; len(got) != 5 || got[0] != 10 || got[4] != 14 {
		t.Fatalf("shard 1 saw %v, want [10..14]", got)
	}
}

// TestFeedOwnedReleaseAfterClose pins that chunks in flight at Close are
// still applied and released: Close drains the rings before returning.
func TestFeedOwnedReleaseAfterClose(t *testing.T) {
	p := New(Config{Shards: 2, BatchSize: 4}, func(int) *batchReplica { return &batchReplica{} })
	var released atomic.Int64 // two shard workers release concurrently
	for i := 0; i < 16; i++ {
		p.FeedOwned(stream.Slice{stream.Item(i + 1)}, func() { released.Add(1) })
	}
	shards := p.Close()
	if n := released.Load(); n != 16 {
		t.Fatalf("release ran %d times after Close, want 16", n)
	}
	var total uint64
	for _, s := range shards {
		total += s.n
	}
	if total != 16 {
		t.Fatalf("replicas saw %d items, want 16", total)
	}
}

// TestFeedOwnedAllocFree is the end-to-end zero-allocation assertion for
// the ownership-transfer path: a steady-state FeedOwned+Sync cycle — ring
// push, worker wake, batch apply, release callback, ack barrier — must
// not allocate. This is the pipeline-side mirror of the server's
// TestDecodeBinaryStreamAllocFree.
func TestFeedOwnedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := New(Config{Shards: 2, BatchSize: 64}, func(int) *batchReplica { return &batchReplica{} })
	defer p.Close()

	chunk := make(stream.Slice, 256)
	for i := range chunk {
		chunk[i] = stream.Item(i + 1)
	}
	release := func() {} // prebuilt, like the server's pooled chunk closure
	// Warm up: first pushes may grow worker scratch and runtime stacks.
	for i := 0; i < 8; i++ {
		p.FeedOwned(chunk, release)
		p.Sync()
	}
	avg := testing.AllocsPerRun(200, func() {
		p.FeedOwned(chunk, release)
		p.Sync()
	})
	if avg != 0 {
		t.Fatalf("FeedOwned+Sync allocates %.1f times per cycle, want 0", avg)
	}
}

// TestFeedOwnedNoAliasing proves a released buffer is never observed by
// a worker mid-apply. Chunks cycle through a deliberately tiny pool; the
// producer poisons every buffer it takes back from the pool before
// refilling it. Each chunk is filled with a single distinctive value, so
// if release ever fired before the worker finished reading — or a worker
// read a slot after hand-back — the replica would observe a mixed or
// poisoned batch.
func TestFeedOwnedNoAliasing(t *testing.T) {
	const (
		chunkLen = 512
		poison   = stream.Item(1<<63 - 1)
	)
	chunks := 5_000
	if raceEnabled || testing.Short() {
		chunks = 1_000
	}

	// mixReplica checks batch purity instead of recording items.
	type counts struct {
		mu  sync.Mutex
		n   map[stream.Item]uint64
		bad int
	}
	c := &counts{n: make(map[stream.Item]uint64)}
	p := New(Config{Shards: 4, BatchSize: 64, QueueDepth: 2}, func(int) *funcReplica {
		return &funcReplica{f: func(items []stream.Item) {
			v := items[0]
			pure := v != poison
			for _, it := range items {
				if it != v {
					pure = false
				}
			}
			c.mu.Lock()
			if pure {
				c.n[v] += uint64(len(items))
			} else {
				c.bad++
			}
			c.mu.Unlock()
		}}
	})

	// Two free buffers against four shards keeps reuse pressure high:
	// the producer is always waiting to recycle a buffer some worker
	// just finished with.
	free := make(chan stream.Slice, 2)
	free <- make(stream.Slice, chunkLen)
	free <- make(stream.Slice, chunkLen)

	for i := 0; i < chunks; i++ {
		buf := <-free
		for j := range buf {
			buf[j] = poison
		}
		v := stream.Item(i%97 + 1)
		for j := range buf {
			buf[j] = v
		}
		p.FeedOwned(buf, func() { free <- buf })
	}
	p.Close()

	if c.bad != 0 {
		t.Fatalf("%d batches observed mixed or poisoned contents — released buffer aliased mid-apply", c.bad)
	}
	var total uint64
	for _, n := range c.n {
		total += n
	}
	if want := uint64(chunks * chunkLen); total != want {
		t.Fatalf("replicas saw %d pure items, want %d", total, want)
	}
}

// funcReplica adapts a closure to BatchObserver for tests.
type funcReplica struct{ f func([]stream.Item) }

func (r *funcReplica) UpdateBatch(items []stream.Item) { r.f(items) }
