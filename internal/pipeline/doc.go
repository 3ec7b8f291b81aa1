// Package pipeline is the sharded, concurrent ingestion layer: it fans a
// stream of items out to N shard workers over bounded rings of batches,
// runs an independent estimator replica per shard, and merges the
// per-shard states into a single estimate on demand.
//
// # Why sharding is sound here
//
// Every estimator in this library observes a Bernoulli-sampled stream L
// and estimates a statistic of the original stream P. Bernoulli sampling
// commutes with partitioning: splitting P into substreams P₁ … P_N and
// sampling each at rate p yields substreams L₁ … L_N whose union is
// distributed exactly like a single sample L of P, because each element's
// coin flip is independent of every other element's. The paper's
// statistics (frequency moments, F₀, entropy, heavy hitters) are
// functions of the frequency vector alone, so any partitioning — the
// pipeline uses round-robin batches — preserves them. Per-shard summaries
// therefore merge into the summary a single monitor would have built:
// exactly for the linear and order-insensitive backends (CountMin,
// CountSketch, KMV, exact collision counters, plugin entropy), and with
// the standard bounded error for the counter-based one (SpaceSaving). This is the same pattern distributed
// stream-monitoring systems exploit ("Boosting the Basic Counting on
// Distributed Streams"; Cohen et al.'s per-flow aggregation).
//
// WEIGHTED items (the FeedWeighted* feeds) need a different argument. VarOpt reservoir sampling does NOT commute with
// partitioning: which items survive a full reservoir depends on the
// weights of the items competing for the same k slots, so shard-local
// reservoirs are not jointly distributed like one reservoir over the
// union. Sharding is sound anyway because soundness here rests on the
// MERGE, not on commutation: each shard's reservoir is a valid VarOpt
// sample of exactly the sub-stream that shard received (any split of
// the stream is fine — VarOpt makes no distributional assumption about
// its input), and the CDKLT merge procedure folds two VarOpt samples
// into a VarOpt-quality sample of the concatenated stream, preserving
// subset-sum unbiasedness. MergeAll applies that fold across shards, so
// the merged reservoir estimates the union stream with the merged
// variance bounds — slightly wider than a single sequential reservoir's
// (merging k-of-shard samples discards information a sequential pass
// keeps), which is the price of parallel ingest, and bounded by the
// merge theorem rather than growing with the shard count. Estimators
// without a weighted path degrade explicitly: the worker strips weights
// and feeds bare keys, i.e. the weight-1 projection of the stream.
//
// # Topology
//
//	            ┌─ SPSC ring ─ worker 0 ─ replica E₀ ─┐
//	feeder ──┼─ SPSC ring ─ worker 1 ─ replica E₁ ─┼── Merge → estimate
//	            └─ SPSC ring ─ worker N ─ replica E_N ┘
//
// The feeder accumulates items into batches of Config.BatchSize and
// deals complete batches round-robin to per-shard queues; workers
// apply each batch through the estimator's UpdateBatch fast path (or
// per-item Observe when the type has no batch path). With
// Config.SampleP > 0 the pipeline ingests the ORIGINAL stream and each
// worker Bernoulli-samples its shard locally with an independent,
// deterministically seeded generator — the deployment of the paper's
// sampled-NetFlow monitor, with the sampling cost spread across cores.
//
// Each shard queue is a bounded single-producer single-consumer ring
// (see ring.go) rather than a channel: the feeding goroutine and the
// shard worker exchange batches through padded atomic cursors, falling
// back to a sync.Cond park only when the ring is actually empty or
// full. On the uncontended fast path a hand-off is two atomic
// operations and no lock, and push/pop allocate nothing.
//
// # One lane, two primitives
//
// An item is a bare key (stream.Item) or a key with a weight column
// (stream.WItem); weight 1 is the paper's model. Everything an item
// passes through is written once, generically over that type: the
// producer-side lane (the partial batch and its buffer pool), the
// worker-side consume step (sample, count, apply, give the buffer back)
// and the Bernoulli filter. One entry per item type is all that
// differs — which slot of the ring message a batch travels in — so a
// weighted batch runs exactly the code an unweighted one does, and the
// pipeline counts items, never weight. The exported feeds are thin
// instantiations, three per item type, built from two primitives:
//
//   - copy in: FeedCopy / FeedWeightedCopy bulk-copy the caller's items
//     into the pooled partial batch and dispatch it each time it reaches
//     Config.BatchSize. The caller keeps its slice.
//   - hand over: FeedOwned / FeedWeightedOwned dispatch the caller's
//     slice itself, whole, as one batch. Ownership transfers to the
//     pipeline: the caller must not read or write the slice afterwards,
//     and the pipeline calls release() exactly once when the batch has
//     been fully applied (or immediately, for an empty slice). A pooled
//     decoder can therefore hand chunks straight into the shard queues
//     and recycle each buffer when its release fires, with no memcpy
//     anywhere between the wire and the estimator. The chunk lands on
//     one shard — sound for the same reason sharding itself is.
//
// FeedSlice / FeedWeightedSlice are both at once: the head of the slice
// is copied in to top up a pending partial batch, whole batch-sized
// windows are handed over zero-copy (no release: the caller must leave
// the slice alone until Close), and the tail is copied in.
//
// Order within a shard's view is the feeding order. A hand-over first
// flushes the pending partial batch, and feeding one item type first
// flushes the other's, so feeds of every shape and type interleave
// without reordering and at most one partial batch exists at a time.
// The sampler's rejection-run state is shared too: batches of both
// types consume one coin sequence per shard, and the coins fall on
// ITEMS — never steered by weights. Buffers are drawn on first use, so
// a pipeline that only ever sees one item type never allocates for the
// other, and behaves bit-identically to one built before weights
// existed (same batches, same coin consumption, same replica states).
//
// # Mergeability contract
//
// Merging requires structurally identical replicas: the factory passed to
// New must construct every replica with the same configuration and a
// generator seeded identically (e.g. rng.New(fixedSeed) per call, as in
// examples/distributed). The estimators verify this at merge time and
// return sketch.ErrIncompatible when violated.
//
// Feeding is single-producer: every Feed* method (and Sync, Close)
// must be called from one goroutine (the SPSC rings rely on it). Shard
// workers never share state; all synchronization is ring hand-off, so
// the package is race-clean under `go test -race`.
//
// # Single writer, settled replicas
//
// A replica has one writer for as long as its worker lives: the worker.
// Sync and Close hand the replicas out to be READ (merged into a fresh
// accumulator, serialized), and "quiescent" includes "settled": a replica
// that keeps something unordered between reads (Settler — the exact
// counting stores keep new keys unsorted behind an ordered prefix) is put
// in order by its own worker at the barrier, before the acknowledgement.
// The workers settle side by side, so the reader's fold sorts nothing under
// the lock that serializes it with the feeds, and a barrier costs the sort
// of what arrived since the previous one.
//
// # Windowed replicas
//
// Epoch-ring replicas (internal/window) ride the pipeline unchanged:
// build every shard replica around ONE shared window.Clock and they
// rotate in lockstep, with MergeAll's fold realigning whatever epoch
// skew remains. One caveat follows from the asynchronous workers: a
// batch dispatched just before an epoch boundary may be applied just
// after it. Wall-clock deployments absorb that as ordinary boundary
// skew (bounded by queue latency); deterministic replays that drive a
// ManualClock must quiesce with Sync before advancing the clock, so
// every in-flight batch lands in the epoch that fed it.
package pipeline
