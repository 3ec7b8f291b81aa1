// Package server implements the paper's deployment topology as a real
// service: a sampled-NetFlow-style monitoring daemon (cmd/substreamd)
// that runs in one of two roles.
//
// An AGENT owns a registry of named streams, each backed by a sharded
// ingestion pipeline (internal/pipeline) of mergeable estimator replicas.
// It ingests item batches over HTTP, answers local estimate queries, and
// periodically — or on demand — ships its serialized cumulative estimator
// state upstream.
//
// A COLLECTOR accepts shipped summaries, keeps the latest summary per
// (stream, agent) pair, and answers global estimate queries by folding
// the retained summaries with the estimators' Merge paths (see "How an
// answer is produced" below). Because each agent ships its full
// cumulative state ("latest wins": within one Boot incarnation summaries
// are ordered by Seq, and any Boot change is adopted as a new
// incarnation), shipping is idempotent: a lost or repeated shipment is
// repaired by the next one, and no state is ever counted twice. A restarted agent begins a new incarnation whose state
// replaces the dead one's; observations the old process had not shipped
// die with it, the inherent cost of in-memory cumulative shipping. K agent
// processes each observing an independently sub-sampled substream
// therefore reproduce the single-monitor estimate of the union stream —
// the scenario the paper's Section 1 opens with.
//
// # How an answer is produced
//
// Every answer either role serves — both estimate routes and both
// subset-sum routes — is one operation, written once in answer.go:
// fold → scope → ask.
//
//   - fold merges a set of states into a fresh accumulator built from
//     the stream's constructor, never mutating the states — a contract
//     every kind's Merge keeps, the exact counting store included
//     (sketch.ItemCounts: a state in key order — a decoded one, or a
//     shard replica its worker has settled — is joined in place, two
//     fingers, linear; a store with unsorted arrivals is read too, the
//     arrivals sorted in a copy), which is why one retained state can
//     serve concurrent queries, admission and the snapshot writer at
//     once. Asking writes nothing either: an exact kind's answer is a
//     sum over the profile of its counts (ItemCounts.Sum) in whatever
//     layout the store is in, and only Merge, Encode and Settle order
//     a store. An agent folds its shard replicas after quiescing the
//     pipeline, and a quiesced pipeline's replicas are settled: each
//     shard worker orders its own exact counting store before it
//     acknowledges the Sync barrier (pipeline.Settler), all workers at
//     once and none but the owner ever writing a replica, so under the
//     stream lock the flushing goroutine waits for that and joins —
//     it sorts nothing. The lock covers the quiesce, the fold and the
//     fed/kept counts, read under the same hold so they describe exactly
//     the items the answer covers (runner.answer, runner.snapshot); the
//     question, like the marshal, is put to the private accumulator after
//     the lock is released, and stalls no ingest handler. A
//     collector folds the retained states of the stream's fresh agents
//     in sorted agent order (Collector.query: selection under the
//     table's read lock, stale agents counted and skipped, the fold
//     itself outside the lock). For a windowed stream the fresh
//     accumulator sits at the current epoch, so folding realigns every
//     state to now.
//   - scope applies to windowed streams: window.Estimator.Scope hands
//     out the estimator of the cumulative or the last-W-epochs scope.
//     An unwindowed stream has only the former; asking it for the
//     window is a 400, not a silently widened answer.
//   - ask puts the query to that estimator: the full report (no
//     predicate), or the subset sum of the keys matching one. A stat
//     without the capability is a 400, never a zero.
//
// query.run is that path, and the one place a query is counted and timed
// (estimate_queries, query_seconds: fold + ask; the agent's quiesce wait,
// settling included, is agent_pipeline_sync_wait_seconds and a ship span's
// sync_ns). At the collector one description of
// the fold — agents, skipped_stale, fed, kept — backs both result types
// and the one error mapping: unknown stream 404, every retained agent
// stale 503, a fold that failed anyway 500.
//
// The collector folds a stream's full report (the estimate route, no
// predicate) once per table change, not once per query: a dashboard
// polls far more often than summaries arrive. The report is a function of
// three things, which together key the stream's one cached answer:
//
//   - the stream's generation, bumped under the write lock where accept
//     replaces an agent's state — the table's only change in place; a
//     stale or duplicate delivery leaves it, and a snapshot restore or a
//     DELETE builds or drops the whole stream, cache included;
//   - the fresh agents selected under the read lock, so an agent aging
//     past MaxSummaryAge changes the key;
//   - for a windowed stream, the epoch of the clock its accumulators are
//     built around, read before the fold and after the ask: a report
//     folded across a rotation is served but not kept.
//
// A query whose key matches is answered from the cache, counted and timed
// like any other and also in estimate_cache_hits; a miss runs fold → ask
// unchanged and publishes {key, report} with one atomic store, so no query
// takes the write lock and accept pays only the increment. The cache
// holds the report and nothing else: never the accumulator (an `all`
// accumulator is megabytes) and never an estimator or the slice of folded
// states, which would keep a superseded state alive after accept dropped
// it. The report is shared between queries and only read: the route
// encodes it, and Collector.Estimate hands out a copy. The subset-sum
// routes, the agent's routes and the admission door's trial fold always
// fold.
//
// Summaries enter the retained table through one admission door,
// Collector.admit: identity check, config defaults and validation,
// registry decode, then a trial fold of the summary alone that is merge
// only — Merge is where kind, config and hash-seed agreement are checked,
// so no report is computed at the door — and finally the payload bytes
// are dropped: the decoded estimator is the retained form. The first
// summary admitted for a stream pins its config (admission.adopt); later
// ones must match it. The door's two callers add only their ordering
// rule: a live shipment (accept) is latest-wins by (Boot, Seq), a
// snapshot row (RestoreSnapshot) must be the only one for its (stream,
// agent) — a duplicate is corruption and abandons the restore whole.
//
// # Fault tolerance
//
// Because summaries are cumulative and folding is latest-wins, the ship
// path recovers from any loss without queues or replay: a failed ship
// marks the stream dirty and the next flush ships the NEWEST snapshot,
// which supersedes everything that was lost. The hardening around that
// loop:
//
//   - Agents retry transient ship failures (connection errors, 5xx)
//     inside the flush with capped exponential backoff and equal jitter
//     (AgentConfig.ShipRetries, default 2; AgentConfig.ShipBackoff,
//     default 100ms base, doubled per attempt, capped at 16x; the
//     daemon flags are -ship-retries/-ship-backoff). 4xx responses are
//     never retried — the collector answered; repeating the question
//     will not change its mind.
//
//   - A flush ships its streams concurrently, on min(GOMAXPROCS,
//     streams) workers, so one stream's snapshot, marshal and POST overlap
//     another's; the response and the joined error keep stream order.
//
//   - A per-upstream circuit breaker (AgentConfig.BreakerThreshold,
//     default 5 consecutive failures; -breaker-threshold) fails flushes
//     fast while open — before the pipeline is even quiesced for a
//     snapshot — then admits a single probe per flush interval (the
//     next tick) whose outcome closes or re-opens it. While the breaker
//     is not closed a flush ships its first stream alone, as the probe,
//     and fans the rest out after its outcome, so a revived collector
//     sees one request and that same flush ships every stream. Ship
//     attempts are accounted by cause in ship_errors (retry,
//     breaker_open, gave_up alongside the transport causes), and the
//     gauges agent_breaker_state, agent_ship_success_age_seconds, and
//     agent_stream_dirty expose the loop's health; POST /v1/flush
//     attempts every stream and reports {"shipped": n, "failed": m}.
//
//   - Collectors configured with CollectorConfig.SnapshotDir
//     (-snapshot-dir) checkpoint the retained summary table atomically
//     (write-temp, fsync, rename) every SnapshotInterval
//     (-snapshot-interval, default 30s) plus once on shutdown, and
//     restore it on startup. The snapshot wire format:
//
//     'C' 'S'            magic
//     u8  version        currently 1
//     i64 savedAt        unix-nanos of the checkpoint (diagnostic)
//     u32 count          number of (stream, agent) entries
//     count times:
//     nested summaryJSON   the retained Summary with its Payload
//     re-encoded in the estimator wire format below
//     i64 lastSeen         unix-nanos of the entry's acceptance
//     u32 crc            IEEE CRC-32 of every preceding byte, little-endian
//
// The CRC trailer is verified before any parsing and every entry passes
// the same admission door as a live shipment, so a torn, truncated, or
// bit-flipped snapshot fails whole into "start empty + warn" — never
// a panic, never a partial table. Restored entries count as sightings
// for -max-summary-age staleness, letting a long-dead collector answer
// from the checkpoint while the fleet re-converges. internal/faults
// provides the deterministic fault-injecting RoundTripper/proxy that
// drives the race-gated chaos e2e suite over all of this.
//
// # Wire format
//
// Summaries travel as a JSON envelope (Summary) whose Payload field is
// the binary serialization of one estimator, built from the primitives
// in internal/wire (little-endian fields, length-prefixed nesting).
// Agents write the envelope with json.Marshal. The collector reads it,
// at the live door and out of a snapshot alike, with encoding/json's
// semantics exactly: members in any order, unknown and case-folded keys,
// escapes, duplicate keys (the last wins) and the refusal of trailing
// data are json.Unmarshal's. Only the payload string is read apart, once:
// its base64 is found by a memchr walk and decoded directly, so it never
// passes through json's scanner (an escaped or otherwise unusual payload
// is left to json whole). POST /v1/collect refuses an envelope over the
// 64 MiB limit with 413 (summaries_rejected cause too_large), before the
// first byte when Content-Length declares it, as ingest does. The
// payload's rules:
//
//   - Every payload starts with a one-byte TYPE TAG and a one-byte
//     FORMAT VERSION (wire.WireVersion, currently 3). Version 2 kept
//     version 1's bytes and changed their meaning (the table sketches
//     moved to divide-free fastrange bucket mapping, so the same counts
//     sit in other columns); version 3 is the first change of layout:
//     the compact form described by the next four rules, which takes a
//     summary to a fifth to a twentieth of its version-2 size.
//   - VARINTS. A count is a uvarint (LEB128: seven bits a byte, low
//     group first, at most ten bytes), a signed counter a zigzag varint.
//     Each value has one accepted byte form: a decoder refuses a varint
//     cut short, one that runs past ten bytes or overflows 64 bits, and
//     an over-long one (a trailing zero group).
//   - SORTED ITEM RUNS. Every item → count map (the exact counter, the
//     entropy and GEE frequency profiles, the level-set repetitions) is a
//     uint32 entry count, then the entries in
//     increasing key order: the key as a uvarint delta to the key before
//     it (the first is absolute), the count as a uvarint, and for a
//     level-set repetition one fixed byte, the item's level. A decoder
//     refuses a zero delta, keys that wrap past 2⁶⁴, a count of 0 or
//     above the payload's n, and counts that overflow 64 bits in sum.
//     There is one codec for this, wire.Writer.Run / Reader.Run.
//   - COUNTER TABLES. The cells of a CountMin (uvarint) or CountSketch
//     (zigzag) follow the payload's dimensions with no count of their
//     own. A zero byte is an escape: the uvarint after it, plus one, is
//     the length of a run of zero cells, so the untouched table of a
//     pristine replica or an idle generation of a windowed sketch costs
//     a few bytes whatever its geometry. A decoder refuses input that
//     cannot fill the table or whose zero run reaches past its end, and
//     walks the cells of a table of 1 MiB or more once before allocating
//     it, so hostile dimensions fail without the allocation. One codec:
//     wire.Writer.Cells / Reader.Cells.
//   - IN-PLACE NESTING, both directions. A composite (fk, f0, hh1, hh2,
//     all, the level-set estimator, the window ring) hands its own
//     writer to each child, which writes straight into the one buffer
//     behind a uint32 length patched afterwards (wire.Writer.Nest); no
//     child is marshalled apart and copied. Decoding is the mirror image:
//     the composite hands its own reader to the child's decode function
//     (wire.Nest), bounded to the child's length for as long as the child
//     reads — a child that leaves bytes unread fails the payload — and no
//     child is cut out and decoded apart. Every kind has exactly one
//     encoder, Encode(*wire.Writer), and one decoder, a function of the
//     *wire.Reader it is handed; MarshalBinary is wire.Marshal around the
//     first (a sizing pass, on which the writer only counts, then the
//     payload written into one buffer of that size) and estimator.Decode
//     is wire.Decode around the second: one Reader per top-level payload,
//     the registered decoder of its tag, and the check that nothing
//     trails it.
//   - ONE DECODE BUDGET per top-level payload. A counter table is NOT
//     bounded by the bytes that describe it (see above), so decoding has
//     a budget of its own, 256 MiB (wire.MaxDecodedBytes) — what a
//     version-2 body, at 8 bytes a cell under its 256 MiB cap, could make
//     a collector allocate. The payload's one Reader carries it, and
//     Reader.Cells charges each table to it where the table is allocated
//     — the only place a few wire bytes can stand for many decoded ones —
//     whatever the nesting: the five parts of an "all" summary and the
//     replicas of a window ring share one budget, so neither a count read off the wire nor the shape of a
//     composite multiplies it. A payload past it is refused before the
//     table that crosses the line is allocated; at a collector that is a
//     400 with "payload's counter tables decode to more than the decode
//     budget" and one more summaries_rejected{cause="payload"}, like any
//     other undecodable body. The bound on what a collector retains
//     across streams and agents is still the memory budget planned at
//     Collector.admit.
//   - What stays FIXED-WIDTH, and why: a field is a varint only where
//     that is smaller for uniformly hashed 64-bit keys as well as for
//     small or clustered ones. Keys written in heap order — SpaceSaving,
//     TopK, the level-set heavy summary, VarOpt — have no neighbour to
//     be a delta to, and a hashed 64-bit key is ten bytes as a varint,
//     so they stay eight (SpaceSaving's counts and error bounds are
//     varints; the quantile summary's rank widths g and Δ too). KMV
//     hash values, hash coefficients and every float
//     (VarOpt weights, CKMS sample values, TopK scores, p, ε) are
//     incompressible and stay as they were. Dimensions, entry counts and
//     nested lengths stay uint32 and n stays uint64: a handful of bytes
//     per payload, not worth a second form.
//   - Tag assignments are owned by the internal/estimator registry: each
//     kind Registers its tag, name, decoder, and constructor from its own
//     package, and estimator.Kinds() (surfaced as `substreamd
//     -list-estimators`) is the authoritative list. It holds the ten
//     kinds that answer a question about the original stream P — the
//     only tags a top-level payload, and so a Summary, may carry. The
//     list below mirrors the registry for operator reference and is
//     pinned to it by TestRegistryMatchesWireTable: internal/core owns
//     0x20–0x2f (fk 0x20, f0 0x21, entropy 0x22, hh1 0x23, hh2 0x24,
//     all 0x25, gee 0x26), internal/window 0x30–0x3f (window 0x30, the
//     epoch ring around one of the other kinds, nesting one pristine,
//     one cumulative and W generation payloads of it), internal/quantile
//     0x40–0x4f (quantile 0x40, CKMS targeted streaming quantiles) and
//     internal/sample 0x50–0x5f (varopt 0x50, the VarOpt-k reservoir
//     behind subset-sum queries). The nine other than window are the
//     stats a stream declares; a window is declared with the window and
//     epoch fields around one.
//   - COMPONENT tags ride only nested in a registered kind's payload, and
//     only the parent that holds the component decodes it; the registry
//     never sees them, so a bare component payload is refused as an
//     unknown tag. internal/sketch owns 0x01–0x0f (countmin 0x01 in hh1,
//     countsketch 0x02 in hh2, kmv 0x03 in f0, spacesaving 0x05 in the
//     level set, topk 0x07 in hh1 and hh2) and internal/levelset
//     0x10–0x1f (exactcounter 0x10 and levelset 0x11, fk's two collision
//     counters). RETIRED tags are never reused: 0x04 (HyperLogLog), 0x06
//     (Misra–Gries) and 0x12 (the Indyk–Woodruff estimator) were kinds of
//     their own with no served path, and are unknown tags now. A
//     collector snapshot that holds a summary of a retired or component
//     kind restores under the all-or-nothing rule above: "start empty +
//     warn".
//   - Decoders reject unknown tags, unknown versions, truncated input,
//     trailing bytes, and any length field larger than the remaining
//     buffer could hold — corrupt input must fail cleanly, never panic
//     or over-allocate. A composite decodes only the children it may
//     hold — fk with a closed switch over its two collision counters;
//     f0, hh1, hh2 and the level set with the decoder of the one
//     component each holds, whose header check refuses any other tag;
//     the window ring through the registry, behind a gate on its own
//     range — so crafted input cannot recurse the decoder.
//   - Hash functions serialize as their polynomial coefficients, so a
//     decoded summary is bit-identical to its source and remains
//     mergeable with summaries from identically-seeded replicas; merge
//     compatibility is verified with probe keys, not trusted.
//   - Any incompatible change to a payload layout must bump
//     wire.WireVersion; agents and collectors on different versions
//     refuse each other's payloads rather than misinterpreting them.
//     There is no dual decoding: a version is one byte layout.
//
// Upgrading across a version bump (2 → 3): upgrade the collector and its
// agents together. While they differ every ship is refused with
// summaries_rejected{cause="payload"} ("unsupported version"), which the
// agent treats like any failed ship — the stream stays dirty and is
// retried. Nothing is lost: summaries are cumulative, so the first flush
// after both sides run the same version carries everything the agent has
// seen. A collector.snap written by the old version is discarded whole
// at startup — "start empty + warn", snapshot_errors{cause=
// "snapshot_restore"} — and left on disk until the next checkpoint
// overwrites it; the table refills from the agents' next ships.
//
// Mergeability across processes requires all agents of a stream to build
// their estimators from identical configuration, including the Seed
// field of StreamConfig — the daemon-level rendering of the library rule
// that replicas must be constructed from generators at identical state.
// Windowed streams (StreamConfig.Window > 0) additionally share Window
// and Epoch: epoch boundaries derive from Unix time, so identically
// configured agents on synchronized clocks rotate together, Summary
// carries the ring's epoch index, and the collector's fold realigns
// whatever flush-schedule skew remains (see internal/window).
//
// # Ingest path
//
// POST /v1/streams/{name}/ingest accepts four body formats (codec.go):
// text/plain, one decimal item per line; application/octet-stream,
// fixed 8-byte little-endian items; and their weighted counterparts —
// text/vnd.substream.weighted, "key weight" per line with the weight
// column optional (default 1), and application/vnd.substream.witem,
// fixed 16-byte records of an 8-byte little-endian key followed by the
// weight's float64 bits. Weights must be positive and finite; a bad
// weight is its own error cause (bad_weight), distinct from garbled
// framing. The formats themselves — line grammar and record layout —
// belong to internal/stream, which has exactly one parser for each;
// codec.go holds the two loops that drive them over a request body,
// both generic over the item type: decodeRecords for the binary formats
// and decodeLines for the text ones. The text parsers are block parsers
// (stream.ParseLines, stream.ParseWeightedLines): one forward pass over
// a read buffer, converting inline every canonical line — 1–19 key
// digits, then the newline, or one space and a plain decimal weight of
// at most 15 digits ("12", "1.5", ".5"), which float64(mantissa)/10^frac
// renders exactly as strconv would — and handing every other line (CR,
// blank, empty weight, sign, exponent, hex, inf/nan, longer digit runs,
// a zero, garbage) to stream.ParseLine / ParseWeightedLine, the
// specification and the only source of error text. decodeLines drives
// them through stream.ScanLines, the one read / carry / line-limit /
// flush loop the file readers (stream.ReadText, ReadWeightedText) run
// too, so daemon and tools accept the same bodies, number lines the
// same way and refuse the same over-long line (one that does not fit
// the 64 KiB read buffer). Both loops decode incrementally through
// pooled 64 KiB buffers — a request body is never materialized, so
// per-request memory is bounded by one chunk regardless of body size,
// and steady-state decoding allocates nothing. Each item type has its
// own chunk pool (one chunkPool[T] type, two instances), so unweighted
// requests never pay for the weight column.
//
// decodeRecords goes further and never copies: each decoded chunk is a
// pooled buffer handed to the stream's pipeline via pipeline.FeedOwned
// (FeedWeightedOwned for weighted records) together with a release
// closure, and the shard worker returns the buffer to the pool after
// applying it. Chunks in flight never alias — a buffer leaves the pool
// when the decoder fills it and re-enters only when its consumer
// releases it. decodeLines' chunks go through the copying feed,
// FeedCopy / FeedWeightedCopy (their bytes must be parsed anyway, so
// the copy is free relative to parsing). All four feeds reach the
// pipeline through runner.feed, which takes the stream's lock, drops
// the items of a stream deleted mid-request (still releasing the chunk)
// and accounts the sampled feed time.
//
// On a mid-body error (zero item, malformed line, truncated record,
// unusable weight) chunks already fed stay consumed — HTTP cannot roll
// them back — and the 400 response reports how many items were applied
// before the fault. A body over the 64 MiB limit is refused with 413
// (cause too_large): before the first byte when Content-Length declares
// it, after the consumed prefix the response reports when only the
// byte count reveals it.
//
// Weighted streams are queried through the subset-sum endpoints
// (subsetsum.go): GET /v1/streams/{name}/subsetsum on an agent and
// GET /v1/subsetsum?stream=... on a collector, both taking an IPv4
// CIDR prefix (the address in the key's low 32 bits) and an optional
// scope=window parameter. The answer is the Horvitz–Thompson subset
// sum of the stream's VarOpt reservoir — or, at the collector, of the
// CDKLT merge of every fresh agent's reservoir.
//
// Ingest instrumentation is sampled: the decode/feed latency
// histograms observe one request in AgentConfig.ObsSampleEvery
// (default 64) so the hot path skips its clock reads on unsampled
// requests; request/item/byte/error counters stay exact.
//
// # Ops endpoints
//
// Both roles expose the same operational surface alongside their data
// APIs (all instrumentation lives in internal/obs; see the README's
// Observability section for the metric catalog):
//
//	GET /healthz                 liveness: {"status": "ok", "role": ...}
//	GET /metricsz                metrics as flat JSON (expvar-style);
//	                             labeled families also emit a bare-name
//	                             sum for dashboard compatibility
//	GET /metricsz?format=prom    Prometheus text format 0.0.4: counters,
//	                             gauges, and CKMS-quantile histogram
//	                             summaries (p50/p99/p999 + _sum/_count)
//	GET /debug/tracez            newest-first ring of flush→fold spans:
//	                             agents record "ship" spans (snapshot,
//	                             marshal, POST timings per summary),
//	                             collectors record "fold" spans (decode,
//	                             trial-fold, end-to-end latency) joined
//	                             by the TraceID stamped on each Summary
//	GET /debug/pprof/...         standard net/http/pprof profiles
//
// Every response carries an X-Request-Id header echoing the process-wide
// request sequence number; at -log-level debug each request is also
// logged with that id, method, path, status, and duration.
//
// Data-plane routes, for completeness — agent: PUT/DELETE
// /v1/streams/{name}, GET /v1/streams, POST /v1/streams/{name}/ingest,
// GET /v1/streams/{name}/estimate, GET /v1/streams/{name}/subsetsum,
// POST /v1/streams/{name}/flush, POST /v1/flush (alias /flush);
// collector: POST /v1/collect, GET /v1/streams,
// GET /v1/streams/{name}/estimate, GET /v1/subsetsum, DELETE
// /v1/streams/{name}. A stream declaration (the PUT body, a -streams
// document) is decoded by DecodeConfig: an unknown key or trailing bytes
// are refused, so a misspelt field cannot silently leave its default.
package server

// The daemon speaks whatever the estimator registry holds; linking
// internal/core, internal/quantile and internal/sample is what populates
// it with the standard kinds (internal/window registers the ring through
// config.go's import).
// Embedders adding their own kinds just import the registering package
// before starting the daemon.
import (
	_ "substream/internal/core"
	_ "substream/internal/quantile"
	_ "substream/internal/sample"
)
