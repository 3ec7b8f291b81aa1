package pipeline

import (
	"math"
	"testing"

	"substream/internal/stream"
	"substream/internal/workload"
)

// countReplica counts items per shard through the Observe path.
type countReplica struct{ n uint64 }

func (c *countReplica) Observe(stream.Item) { c.n++ }

// batchReplica counts items through the UpdateBatch path and records the
// batch sizes it saw.
type batchReplica struct {
	n       uint64
	sum     uint64
	batches int
	maxLen  int
}

func (b *batchReplica) UpdateBatch(items []stream.Item) {
	b.n += uint64(len(items))
	b.batches++
	if len(items) > b.maxLen {
		b.maxLen = len(items)
	}
	for _, it := range items {
		b.sum += uint64(it)
	}
}

func zipfSlice(n int, seed uint64) stream.Slice {
	return stream.Collect(workload.Zipf(n, 4096, 1.2, seed).Stream)
}

func TestFeedDeliversEveryItemOnce(t *testing.T) {
	const n = 10_000
	p := New(Config{Shards: 4, BatchSize: 64}, func(int) *countReplica { return &countReplica{} })
	for i := 0; i < n; i++ {
		p.FeedCopy(stream.Slice{stream.Item(i%97 + 1)})
	}
	shards := p.Close()
	var total uint64
	for _, s := range shards {
		total += s.n
	}
	if total != n {
		t.Fatalf("delivered %d items, want %d", total, n)
	}
	if p.Fed() != n || p.Kept() != n {
		t.Fatalf("Fed=%d Kept=%d, want %d", p.Fed(), p.Kept(), n)
	}
}

func TestFeedSliceZeroCopyAndMixedFeeding(t *testing.T) {
	const n = 9_999 // deliberately not a multiple of the batch size
	items := zipfSlice(n, 3)
	p := New(Config{Shards: 3, BatchSize: 128}, func(int) *batchReplica { return &batchReplica{} })
	p.FeedCopy(stream.Slice{items[0]}) // partial hand-fed batch before the bulk path
	p.FeedSlice(items[1:])
	shards := p.Close()
	var total uint64
	for _, s := range shards {
		total += s.n
		if s.maxLen > 128 {
			t.Fatalf("worker saw batch of %d > BatchSize 128", s.maxLen)
		}
	}
	if total != n {
		t.Fatalf("delivered %d items, want %d", total, n)
	}
}

// TestFeedCopyDeliversAndReleasesCallerBuffer drives the copying bulk
// path: every item must arrive exactly once in BatchSize-bounded
// batches, and — the contract the daemon's pooled decode relies on —
// the caller's buffer must be safely reusable immediately after
// FeedCopy returns. Reusing (scribbling over) the chunk buffer between
// calls would corrupt delivered items if the pipeline retained it.
func TestFeedCopyDeliversAndReleasesCallerBuffer(t *testing.T) {
	const chunks, chunkLen = 300, 97 // chunk size deliberately off the batch size
	p := New(Config{Shards: 3, BatchSize: 128}, func(int) *batchReplica { return &batchReplica{} })
	sum := uint64(0)
	buf := make(stream.Slice, chunkLen)
	for c := 0; c < chunks; c++ {
		for i := range buf {
			v := uint64(c*chunkLen+i) + 1
			buf[i] = stream.Item(v)
			sum += v
		}
		p.FeedCopy(buf)
		// Scribble over the buffer immediately: the pipeline must have
		// copied, so delivered values stay intact.
		for i := range buf {
			buf[i] = ^stream.Item(0)
		}
	}
	shards := p.Close()
	var total, delivered uint64
	for _, s := range shards {
		total += s.n
		if s.maxLen > 128 {
			t.Fatalf("worker saw batch of %d > BatchSize 128", s.maxLen)
		}
		delivered += s.sum
	}
	if total != chunks*chunkLen {
		t.Fatalf("delivered %d items, want %d", total, chunks*chunkLen)
	}
	if delivered != sum {
		t.Fatalf("delivered item sum %d, want %d — pipeline retained a caller buffer", delivered, sum)
	}
	if p.Fed() != chunks*chunkLen {
		t.Fatalf("Fed() = %d, want %d", p.Fed(), chunks*chunkLen)
	}
}

// TestFeedCopyMixesWithFeedAndFeedSlice checks the copying path composes
// with the other producers without losing or duplicating the buffered
// partial batch.
func TestFeedCopyMixesWithFeedAndFeedSlice(t *testing.T) {
	items := zipfSlice(5_000, 9)
	p := New(Config{Shards: 2, BatchSize: 64}, func(int) *batchReplica { return &batchReplica{} })
	p.FeedCopy(stream.Slice{items[0]})
	p.FeedCopy(items[1:1500])
	p.FeedSlice(items[1500:4000])
	p.FeedCopy(items[4000:])
	shards := p.Close()
	var total uint64
	for _, s := range shards {
		total += s.n
	}
	if total != uint64(len(items)) {
		t.Fatalf("delivered %d items, want %d", total, len(items))
	}
}

func TestInShardSampling(t *testing.T) {
	const (
		n = 200_000
		q = 0.1
	)
	items := zipfSlice(n, 4)
	p := New(Config{Shards: 4, BatchSize: 512, SampleP: q, Seed: 11},
		func(int) *countReplica { return &countReplica{} })
	p.FeedSlice(items)
	shards := p.Close()
	var kept uint64
	for _, s := range shards {
		kept += s.n
	}
	if kept != p.Kept() {
		t.Fatalf("Kept()=%d disagrees with shard totals %d", p.Kept(), kept)
	}
	mean := float64(n) * q
	sd := math.Sqrt(float64(n) * q * (1 - q))
	if math.Abs(float64(kept)-mean) > 6*sd {
		t.Fatalf("sampled %d items, want %.0f ± %.0f", kept, mean, 6*sd)
	}

	// Same seed → same sample; different seed → (almost surely) different.
	again := New(Config{Shards: 4, BatchSize: 512, SampleP: q, Seed: 11},
		func(int) *countReplica { return &countReplica{} })
	again.FeedSlice(items)
	again.Close()
	if again.Kept() != kept {
		t.Fatalf("same seed kept %d then %d", kept, again.Kept())
	}
	other := New(Config{Shards: 4, BatchSize: 512, SampleP: q, Seed: 12},
		func(int) *countReplica { return &countReplica{} })
	other.FeedSlice(items)
	other.Close()
	if other.Kept() == kept {
		t.Fatalf("independent seeds produced identical sample sizes %d (suspicious)", kept)
	}
}

func TestDefaultsAndCloseIdempotent(t *testing.T) {
	p := New(Config{}, func(int) *countReplica { return &countReplica{} })
	if n := p.Stats().Shards; n < 1 {
		t.Fatalf("default shard count = %d", n)
	}
	p.FeedCopy(stream.Slice{1})
	first := p.Close()
	second := p.Close()
	if &first[0] != &second[0] {
		t.Fatal("Close not idempotent")
	}
}

func TestNewPanicsOnNonObserver(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for replica type without Observe/UpdateBatch")
		}
	}()
	New(Config{Shards: 1}, func(int) int { return 0 })
}

type mergeReplica struct {
	n      uint64
	merged int
}

func (m *mergeReplica) Observe(stream.Item) { m.n++ }
func (m *mergeReplica) Merge(other *mergeReplica) error {
	m.n += other.n
	m.merged++
	return nil
}

func TestMergeAllFoldsEveryShard(t *testing.T) {
	const n = 5_000
	p := New(Config{Shards: 4, BatchSize: 32}, func(int) *mergeReplica { return &mergeReplica{} })
	for i := 0; i < n; i++ {
		p.FeedCopy(stream.Slice{stream.Item(i + 1)})
	}
	merged, err := MergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if merged.n != n {
		t.Fatalf("merged count %d, want %d", merged.n, n)
	}
	if merged.merged != 3 {
		t.Fatalf("merged %d replicas, want 3", merged.merged)
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	const n = 1 << 14
	p := New(Config{Shards: 4, BatchSize: 64}, func(int) *countReplica { return &countReplica{} })
	p.FeedSlice(zipfSlice(n, 5))
	shards := p.Close()
	for i, s := range shards {
		frac := float64(s.n) / float64(n)
		if frac < 0.2 || frac > 0.3 { // perfect split is 0.25
			t.Fatalf("shard %d holds %.0f%% of the stream, want ≈25%%", i, 100*frac)
		}
	}
}

func TestSyncQuiescesWithoutStopping(t *testing.T) {
	const rounds, perRound = 5, 4_000
	p := New(Config{Shards: 4, BatchSize: 64}, func(int) *countReplica { return &countReplica{} })
	for round := 1; round <= rounds; round++ {
		for i := 0; i < perRound; i++ {
			p.FeedCopy(stream.Slice{stream.Item(i%89 + 1)})
		}
		p.Sync()
		// Between Sync and the next Feed the replicas are quiescent: every
		// item fed so far must be visible, and feeding must still work
		// afterwards.
		var total uint64
		for _, s := range p.Replicas() {
			total += s.n
		}
		if want := uint64(round * perRound); total != want {
			t.Fatalf("round %d: replicas saw %d items, want %d", round, total, want)
		}
	}
	shards := p.Close()
	var total uint64
	for _, s := range shards {
		total += s.n
	}
	if total != rounds*perRound {
		t.Fatalf("after close: %d items, want %d", total, rounds*perRound)
	}
}

func TestSyncAfterCloseIsNoop(t *testing.T) {
	p := New(Config{Shards: 2}, func(int) *countReplica { return &countReplica{} })
	p.FeedCopy(stream.Slice{1})
	p.Close()
	p.Sync() // must not panic or deadlock on closed channels
}

func TestStatsSnapshot(t *testing.T) {
	p := New(Config{Shards: 2, BatchSize: 8, QueueDepth: 4},
		func(int) *countReplica { return &countReplica{} })
	for i := 0; i < 100; i++ {
		p.FeedCopy(stream.Slice{stream.Item(i + 1)})
	}
	p.Sync()
	s := p.Stats()
	if s.Shards != 2 || s.BatchSize != 8 || s.QueueCap != 4 {
		t.Fatalf("shape: %+v", s)
	}
	if s.Fed != 100 || s.Kept != 100 {
		t.Fatalf("progress: %+v", s)
	}
	// 100 items in 8-item batches: 12 full dispatches plus the partial
	// batch Sync's Flush dispatched.
	if s.Batches != 13 {
		t.Fatalf("batches = %d, want 13", s.Batches)
	}
	if s.Syncs != 1 || s.SyncWait <= 0 {
		t.Fatalf("sync accounting: %+v", s)
	}
	// After Sync every worker has drained its channel.
	if s.Queued != 0 {
		t.Fatalf("queued = %d after Sync", s.Queued)
	}
	p.Close()
}
