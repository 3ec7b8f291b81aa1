package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/rng"
	"substream/internal/stream"
)

// Observer is the minimal per-item ingestion interface; every estimator
// in internal/core, internal/sketch, and internal/levelset satisfies it,
// as does the interface type of the internal/estimator registry.
type Observer interface {
	Observe(it stream.Item)
}

// BatchObserver is the batched fast path; shard workers prefer it over
// Observer when the replica type provides it.
type BatchObserver interface {
	UpdateBatch(items []stream.Item)
}

// WeightedObserver is the per-item ingestion interface of replicas that
// consume (key, weight) items natively — mirrors estimator.Weighted
// without importing it (pipeline stays estimator-agnostic).
type WeightedObserver interface {
	ObserveWeighted(it stream.Item, weight float64)
}

// WeightedBatchObserver is the batched weighted fast path.
type WeightedBatchObserver interface {
	UpdateWeightedBatch(items []stream.WItem)
}

// Settler is the optional hook of replicas with something to put in order
// before they are read (sketch.ItemCounts sorts the keys that arrived since
// the last barrier): the shard worker that owns the replica, and nobody
// else, calls Settle at a Sync barrier and when its ring closes, before it
// acknowledges — every worker its own, all in parallel.
type Settler interface {
	Settle()
}

// Mergeable is satisfied by estimator types that can fold a structurally
// identical replica into themselves — the contract MergeAll reduces over.
// Concrete estimators satisfy Mergeable[*T] with their typed Merge;
// estimator.Estimator satisfies Mergeable[estimator.Estimator] directly,
// so registry-built replicas flow through MergeAll with no adaptation.
type Mergeable[E any] interface {
	Merge(other E) error
}

// Config shapes a Pipeline.
type Config struct {
	// Shards is the number of workers (and estimator replicas).
	// Default runtime.GOMAXPROCS(0).
	Shards int
	// BatchSize is the number of items the copying and slicing feeds
	// hand to a worker at once (an owned chunk is one batch whatever its
	// length). Larger batches amortize the ring hand-off and dispatch
	// overhead; smaller ones bound merge-time staleness. Default 1024.
	BatchSize int
	// QueueDepth is the number of batches buffered per shard ring
	// before the feeder blocks (backpressure). Rounded up to a power of
	// two. Default 8.
	QueueDepth int
	// SampleP, when positive, makes the pipeline ingest the ORIGINAL
	// stream: each worker Bernoulli-samples its shard at this rate
	// before updating its replica, using an independent generator
	// derived from Seed. When zero, the fed stream is assumed to be the
	// (already sampled) stream the estimators expect.
	SampleP float64
	// Seed derives the per-worker sampling generators. Default 1.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// item is the type set the ingest spine is generic over: a bare key, or
// the same key with a weight column. Every feed and worker mechanism
// below is written once over it.
type item interface {
	stream.Item | stream.WItem
}

// batchMsg is one unit of work: the two-slot union the (non-generic)
// shard rings carry, holding either an unweighted or a weighted batch
// (witems non-nil selects the weighted lane; dispatched batches are never
// empty). Pooled buffers are recycled by the worker after application;
// caller-owned windows (zero-copy FeedSlice path) are not touched; owned
// chunks carry the release callback the worker invokes once the items
// have been applied. A message with a non-nil ack is a synchronization
// barrier: the worker applies nothing, lets its replica settle and
// acknowledges.
type batchMsg struct {
	items   []stream.Item
	witems  []stream.WItem
	pooled  bool
	release func()
	ack     chan<- struct{}
}

// keptCell is one shard's post-sampling item count, padded to a cache
// line so adjacent shard workers' per-batch increments never share (and
// so never invalidate) one line — the false-sharing fix the flat
// []atomic.Uint64 layout was vulnerable to.
type keptCell struct {
	n atomic.Uint64
	_ [56]byte
}

// lane is one item type's path through the pipeline. Its wrap function is
// all that differs between the item types: it puts a batch in its
// batchMsg slot. The pool is shared with the shard workers; buf, the
// partial batch, belongs to the producer and is drawn lazily, so a
// pipeline that never feeds a lane never allocates a buffer for it.
type lane[T item] struct {
	wrap func([]T) batchMsg
	pool sync.Pool
	buf  []T
}

func (l *lane[T]) init(batchSize int, wrap func([]T) batchMsg) {
	l.wrap = wrap
	l.pool.New = func() any { return make([]T, 0, batchSize) }
}

// feeder is the producer side of a pipeline — everything the feeding
// goroutine owns, none of it dependent on the replica type. Feeding one
// lane first flushes the other's partial batch, so interleaved feeding
// never reorders items within a shard's view and at most one lane holds
// a partial batch at any time.
type feeder struct {
	batchSize int
	rings     []*spscRing
	next      int    // round-robin cursor
	fed       uint64 // items fed
	batches   uint64 // batches dispatched
	closed    bool
	plain     lane[stream.Item]
	weighted  lane[stream.WItem]
}

// enter is every feed's prologue: feeding a closed pipeline is a bug in
// the caller.
func (f *feeder) enter(name string) {
	if f.closed {
		panic("pipeline: " + name + " after Close")
	}
}

// dispatch hands one batch to the next shard round-robin.
func (f *feeder) dispatch(msg batchMsg) {
	f.batches++
	f.rings[f.next].push(msg)
	f.next++
	if f.next == len(f.rings) {
		f.next = 0
	}
}

// flush dispatches the buffered partial batch, if any.
func (f *feeder) flush() {
	f.plain.flush(f)
	f.weighted.flush(f)
}

func (l *lane[T]) flush(f *feeder) {
	if len(l.buf) > 0 {
		msg := l.wrap(l.buf)
		msg.pooled = true
		f.dispatch(msg)
		l.buf = nil
	}
}

// copyIn is the first feeding primitive: bulk-copy items into the lane's
// pooled partial batch, dispatching it each time it fills. The caller
// keeps items.
func (l *lane[T]) copyIn(f *feeder, items []T) {
	for len(items) > 0 {
		if l.buf == nil {
			l.buf = l.pool.Get().([]T)
		}
		n := min(f.batchSize-len(l.buf), len(items))
		l.buf = append(l.buf, items[:n]...)
		f.fed += uint64(n)
		items = items[n:]
		if len(l.buf) == f.batchSize {
			l.flush(f)
		}
	}
}

// hand is the second: dispatch items as one batch without copying. The
// slice belongs to the pipeline until its worker has applied it, at
// which point release (if non-nil) runs.
func (l *lane[T]) hand(f *feeder, items []T, release func()) {
	f.fed += uint64(len(items))
	msg := l.wrap(items)
	msg.release = release
	f.dispatch(msg)
}

// slice feeds a materialized stream zero-copy: the head tops up a
// pending partial batch (stream order within each shard's view), whole
// batch-sized windows are handed over as sub-slices, and the tail is
// copied into the next partial batch.
func (l *lane[T]) slice(f *feeder, items []T) {
	if len(l.buf) > 0 {
		n := min(f.batchSize-len(l.buf), len(items))
		l.copyIn(f, items[:n])
		items = items[n:]
	}
	for ; len(items) >= f.batchSize; items = items[f.batchSize:] {
		l.hand(f, items[:f.batchSize], nil)
	}
	l.copyIn(f, items)
}

// owned feeds a whole chunk as a single batch behind any partial batch
// (of either lane). An empty chunk releases immediately and dispatches
// nothing.
func (l *lane[T]) owned(f *feeder, items []T, release func()) {
	if len(items) > 0 {
		f.flush()
		l.hand(f, items, release)
	} else if release != nil {
		release()
	}
}

// Pipeline fans a single feed out to per-shard estimator replicas of type
// E. Feeding is single-producer; Close (or Reduce/MergeAll) must be
// called exactly once to stop the workers and collect the replicas.
type Pipeline[E any] struct {
	feeder // producer-side state, guarded by the single-producer discipline
	cfg    Config
	shards []E
	wg     sync.WaitGroup
	kept   []keptCell
	acks   chan struct{} // reusable Sync barrier (single-producer ⇒ no overlap)

	// Sync rounds and cumulative time the producer spent parked in Sync
	// waiting for shard acks; producer-side like the feeder's counters.
	syncs    uint64
	syncWait time.Duration
}

// New builds a pipeline whose shard replicas are produced by newShard
// (called once per shard with the shard index). The replica type must
// implement BatchObserver or Observer; New panics otherwise. For the
// replicas to be mergeable afterwards, newShard must build every replica
// from identical configuration and generator state.
func New[E any](cfg Config, newShard func(shard int) E) *Pipeline[E] {
	cfg = cfg.withDefaults()
	p := &Pipeline[E]{
		cfg:    cfg,
		shards: make([]E, cfg.Shards),
		kept:   make([]keptCell, cfg.Shards),
		acks:   make(chan struct{}, cfg.Shards),
	}
	p.batchSize = cfg.BatchSize
	p.rings = make([]*spscRing, cfg.Shards)
	p.plain.init(cfg.BatchSize, func(b []stream.Item) batchMsg { return batchMsg{items: b} })
	p.weighted.init(cfg.BatchSize, func(b []stream.WItem) batchMsg { return batchMsg{witems: b} })

	master := rng.New(cfg.Seed)
	for i := 0; i < cfg.Shards; i++ {
		p.shards[i] = newShard(i)
		apply := applyFunc(p.shards[i])
		w := &worker{
			kept:     &p.kept[i],
			settle:   settleFunc(p.shards[i]),
			plain:    sink[stream.Item]{lane: &p.plain, apply: apply},
			weighted: sink[stream.WItem]{lane: &p.weighted, apply: applyWeightedFunc(p.shards[i], apply)},
		}
		if cfg.SampleP > 0 {
			w.sampler.init(cfg.SampleP, master.Split())
		}
		p.rings[i] = newSPSCRing(cfg.QueueDepth)
		p.wg.Add(1)
		go w.run(p.rings[i], &p.wg)
	}
	return p
}

// applyFunc resolves the per-batch application path for a replica.
func applyFunc(e any) func([]stream.Item) {
	switch x := e.(type) {
	case BatchObserver:
		return x.UpdateBatch
	case Observer:
		return func(items []stream.Item) {
			for _, it := range items {
				x.Observe(it)
			}
		}
	default:
		panic(fmt.Sprintf("pipeline: replica type %T implements neither BatchObserver nor Observer", e))
	}
}

// applyWeightedFunc resolves the weighted application path for a
// replica: its native weighted interface when it (or the concrete value
// behind an Unwrap chain, e.g. an estimator-registry adapter) has one,
// otherwise the degenerate projection — every weighted item is observed
// once as its bare key through the unweighted path, which is exactly the
// weight-1 semantics and loses only the extra mass of heavier items.
func applyWeightedFunc(e any, plain func([]stream.Item)) func([]stream.WItem) {
	if x, ok := behind[WeightedBatchObserver](e); ok {
		return x.UpdateWeightedBatch
	}
	if x, ok := behind[WeightedObserver](e); ok {
		return func(items []stream.WItem) {
			for _, it := range items {
				x.ObserveWeighted(it.Key, it.Weight)
			}
		}
	}
	var keys []stream.Item
	return func(items []stream.WItem) {
		keys = keys[:0]
		for _, it := range items {
			keys = append(keys, it.Key)
		}
		plain(keys)
	}
}

// settleFunc resolves the replica's Settle, a no-op for most kinds.
func settleFunc(e any) func() {
	if s, ok := behind[Settler](e); ok {
		return s.Settle
	}
	return func() {}
}

// behind returns the first value on e's Unwrap chain — e itself, then the
// concrete value behind each adapter — that implements T.
func behind[T any](e any) (T, bool) {
	for {
		if x, ok := e.(T); ok {
			return x, true
		}
		u, ok := e.(interface{ Unwrap() any })
		if !ok {
			var none T
			return none, false
		}
		e = u.Unwrap()
	}
}

// worker is one shard worker: it owns its replica exclusively until
// Close returns, so no locking is needed around estimator state. Both
// lanes' batches pass through the one sampler, so weighted and
// unweighted batches interleave under a single coin sequence.
type worker struct {
	sampler  bernoulliSampler // zero value: no sampling
	kept     *keptCell
	settle   func()
	plain    sink[stream.Item]
	weighted sink[stream.WItem]
}

func (w *worker) run(r *spscRing, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		msg, ok := r.pop()
		switch {
		case !ok:
			w.settle()
			return
		case msg.ack != nil:
			w.settle()
			msg.ack <- struct{}{}
		case msg.witems != nil:
			w.weighted.consume(w, msg.witems, msg)
		default:
			w.plain.consume(w, msg.items, msg)
		}
	}
}

// sink is the worker side of one lane: the replica's application path
// for the lane's item type and the sampling scratch buffer, grown on the
// first sampled batch.
type sink[T item] struct {
	lane    *lane[T]
	apply   func([]T)
	scratch []T
}

// consume runs one batch through the worker: sample, count, apply, then
// give the buffer back — to the lane's pool, or to its owner, who gets
// it only after the batch is fully applied, never before.
func (s *sink[T]) consume(w *worker, batch []T, msg batchMsg) {
	kept := batch
	if w.sampler.coins != nil {
		s.scratch = filter(&w.sampler, s.scratch[:0], batch)
		kept = s.scratch
	}
	w.kept.n.Add(uint64(len(kept)))
	if len(kept) > 0 {
		s.apply(kept)
	}
	if msg.pooled {
		s.lane.pool.Put(batch[:0])
	} else if msg.release != nil {
		msg.release()
	}
}

// bernoulliSampler filters a stream down to a Bernoulli(p) sample by
// drawing geometric inter-arrival gaps instead of flipping one coin per
// item: the number of rejections before the next acceptance is
// Geometric(p), sampled by inversion as floor(ln U / ln(1−p)). The
// sampled processes are identically distributed, but the generator is
// consulted O(p·n) times instead of O(n) — at the daemon's default
// p = 0.05 that removes 95% of the per-item sampling work, which
// profiles as the largest single cost of the ingest hot path.
type bernoulliSampler struct {
	coins     *rng.Xoshiro256
	invLog1mP float64 // 1 / ln(1−p), negative
	skip      uint64  // items still to reject before the next acceptance
	all       bool    // p >= 1: keep everything
}

func (s *bernoulliSampler) init(p float64, coins *rng.Xoshiro256) {
	s.coins = coins
	if p >= 1 {
		s.all = true
		return
	}
	s.invLog1mP = 1 / math.Log1p(-p)
	s.skip = s.gap()
}

// gap draws one geometric rejection run length.
func (s *bernoulliSampler) gap() uint64 {
	// Float64Open is in (0, 1], so the log is finite and ≤ 0; the cast
	// floors. Clamp astronomically long runs to keep the uint64 sane.
	g := math.Log(s.coins.Float64Open()) * s.invLog1mP
	if g >= 1<<62 {
		return 1 << 62
	}
	return uint64(g)
}

// filter appends the sampled subsequence of items to dst, carrying the
// current rejection run across batch boundaries. The Bernoulli process
// runs on ITEMS whatever their type: weights ride along untouched (the
// sampled substream keeps each survivor's true weight) and never steer
// the coins.
func filter[T item](s *bernoulliSampler, dst, items []T) []T {
	if s.all {
		return append(dst, items...)
	}
	n := uint64(len(items))
	for s.skip < n {
		dst = append(dst, items[s.skip])
		s.skip += 1 + s.gap()
	}
	s.skip -= n
	return dst
}

// FeedSlice ingests a materialized stream zero-copy: full batch-sized
// windows of items are dispatched as sub-slices without copying, so the
// caller must not mutate items until Close returns. The head (topping up
// a pending partial batch) and the trailing partial window are copied.
func (p *Pipeline[E]) FeedSlice(items stream.Slice) {
	p.enter("FeedSlice")
	p.weighted.flush(&p.feeder)
	p.plain.slice(&p.feeder, items)
}

// FeedCopy ingests a chunk of items by bulk-copying them into the
// pipeline's pooled batch buffers (dispatching each buffer as it
// fills). Unlike FeedSlice, the caller keeps ownership of items and may
// reuse the backing array as soon as FeedCopy returns — the contract
// the daemon's pooled, streaming request decode relies on. Steady-state
// cost is one memcpy per item: batch buffers come from (and return to)
// the pipeline's pool.
func (p *Pipeline[E]) FeedCopy(items []stream.Item) {
	p.enter("FeedCopy")
	p.weighted.flush(&p.feeder)
	p.plain.copyIn(&p.feeder, items)
}

// FeedOwned transfers ownership of items to the pipeline: the whole
// chunk is dispatched as a single batch (no copy, no re-slicing), and
// release — if non-nil — is invoked by the consuming shard worker
// exactly once, after the last item has been applied. Until then the
// caller must not touch the backing array; afterwards it may recycle it
// freely. This is the zero-copy hand-off the daemon's pooled request
// decode uses: chunks flow from the decoder into a shard with neither
// the FeedCopy memcpy nor a per-chunk allocation.
//
// The chunk lands on one shard, advancing the same round-robin cursor
// as batch dispatch; Bernoulli sampling commutes with any partitioning
// of the stream, so chunk-granular placement preserves the sampling
// semantics (callers control balance by their chunk size — the daemon
// decodes in chunks a few batches long). A pending partial batch is
// flushed first; an empty chunk releases immediately and dispatches
// nothing.
func (p *Pipeline[E]) FeedOwned(items stream.Slice, release func()) {
	p.enter("FeedOwned")
	p.plain.owned(&p.feeder, items, release)
}

// FeedWeightedSlice, FeedWeightedCopy and FeedWeightedOwned are FeedSlice,
// FeedCopy and FeedOwned for (key, weight) items — the same mechanisms
// instantiated at the other item type, with the same ownership and
// ordering contracts. Chunk-granular FeedWeightedOwned placement is safe
// for VarOpt replicas for the merge-based reason in doc.go (not the
// commutation argument Bernoulli sampling enjoys): each shard holds a
// valid sample of whatever sub-stream it received, and the merge path
// folds shard samples into a sample of the union.
func (p *Pipeline[E]) FeedWeightedSlice(items stream.WSlice) {
	p.enter("FeedWeightedSlice")
	p.plain.flush(&p.feeder)
	p.weighted.slice(&p.feeder, items)
}

func (p *Pipeline[E]) FeedWeightedCopy(items []stream.WItem) {
	p.enter("FeedWeightedCopy")
	p.plain.flush(&p.feeder)
	p.weighted.copyIn(&p.feeder, items)
}

func (p *Pipeline[E]) FeedWeightedOwned(items stream.WSlice, release func()) {
	p.enter("FeedWeightedOwned")
	p.weighted.owned(&p.feeder, items, release)
}

// Sync flushes the buffered partial batch and blocks until every batch
// dispatched so far has been applied by its shard worker and every worker
// has let its replica settle (Settler). Between Sync returning and the
// next feeding call the replicas are quiescent and settled — each
// worker is parked on its empty ring — so Replicas may be read (or
// merged into a fresh accumulator) without a data race. Read is all a
// caller may do: only the owning worker ever writes a replica.
// Unlike Close, the pipeline keeps accepting work afterwards; this is
// the snapshot point a long-running daemon ships summaries from.
func (p *Pipeline[E]) Sync() {
	if p.closed {
		return
	}
	p.flush()
	start := time.Now()
	// The ack channel is allocated once at construction and reused:
	// Sync runs on the single producer goroutine, so barriers never
	// overlap and the channel is always drained on return.
	for _, r := range p.rings {
		r.push(batchMsg{ack: p.acks})
	}
	for range p.rings {
		<-p.acks
	}
	p.syncs++
	p.syncWait += time.Since(start)
}

// Replicas returns the shard replicas without stopping the workers. It
// is only safe to read (or merge from) the replicas between a Sync and
// the next feeding call, or after Close; the ack handshake in Sync
// orders every prior estimator write — the settling included — before
// the caller's reads.
func (p *Pipeline[E]) Replicas() []E { return p.shards }

// Close flushes, stops all workers, waits for every queued batch to be
// applied and every replica to settle, and returns the shard replicas.
// After Close the replicas are exclusively owned by the caller (workers
// have exited), so reading or merging them is race-free. Close is
// idempotent.
func (p *Pipeline[E]) Close() []E {
	if !p.closed {
		p.flush()
		for _, r := range p.rings {
			r.close()
		}
		p.wg.Wait()
		p.closed = true
	}
	return p.shards
}

// Reduce closes the pipeline and folds all shard replicas into the first
// one with merge, returning the merged replica.
func (p *Pipeline[E]) Reduce(merge func(dst, src E) error) (E, error) {
	shards := p.Close()
	dst := shards[0]
	for _, src := range shards[1:] {
		if err := merge(dst, src); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Fed returns the number of items ingested by the producer so far.
func (p *Pipeline[E]) Fed() uint64 { return p.fed }

// Kept returns the number of items that reached the estimators: equal to
// Fed when SampleP is zero, the post-sampling count otherwise. It is safe
// to call while feeding (for progress reporting), in which case the value
// trails the workers; after Close it is exact.
func (p *Pipeline[E]) Kept() uint64 {
	var total uint64
	for i := range p.kept {
		total += p.kept[i].n.Load()
	}
	return total
}

// Stats is a point-in-time instrumentation snapshot of a pipeline: the
// shape (shards, batch size, queue capacity), the producer's progress
// (items fed, batches dispatched, Sync rounds and cumulative Sync
// stall), the workers' progress (items kept post-sampling), and the
// current ring occupancy — the numbers the daemon's /metricsz gauges
// surface per stream. Fed and Kept count items whatever their weight.
type Stats struct {
	Shards    int
	BatchSize int
	QueueCap  int // per-shard ring capacity, in batches

	Fed     uint64
	Kept    uint64
	Batches uint64

	Syncs    uint64
	SyncWait time.Duration

	// Queued is the number of batches currently buffered across all
	// shard rings — pipeline depth; QueueCap*Shards is the ceiling
	// at which the producer blocks.
	Queued int
}

// Stats reads the snapshot. Like the feeds and Fed it participates in the
// single-producer discipline: call it from the feeding goroutine or
// under whatever lock serializes feeding (the daemon holds its runner
// mutex). Queued and Kept are always safe; they read ring cursors
// and atomics.
func (p *Pipeline[E]) Stats() Stats {
	s := Stats{
		Shards:    len(p.rings),
		BatchSize: p.cfg.BatchSize,
		QueueCap:  p.rings[0].cap(),
		Fed:       p.fed,
		Kept:      p.Kept(),
		Batches:   p.batches,
		Syncs:     p.syncs,
		SyncWait:  p.syncWait,
	}
	for _, r := range p.rings {
		s.Queued += r.len()
	}
	return s
}

// MergeAll closes the pipeline and folds every shard replica into the
// first via the type's own Merge method.
func MergeAll[E Mergeable[E]](p *Pipeline[E]) (E, error) {
	return p.Reduce(func(dst, src E) error { return dst.Merge(src) })
}
