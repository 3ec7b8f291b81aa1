package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	rand "math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"substream/internal/obs"
	"substream/internal/pipeline"
	"substream/internal/stream"
)

// AgentConfig configures an agent daemon.
type AgentConfig struct {
	// ID identifies this agent to the collector; summaries are keyed by
	// (stream, agent), so every agent process must use a distinct ID.
	ID string
	// Upstream is the collector's base URL. Empty disables shipping.
	Upstream string
	// FlushInterval is the period of Run's background shipping.
	// Default 10s.
	FlushInterval time.Duration
	// ShutdownFlushTimeout bounds the final flush Run performs on
	// graceful shutdown: a slow or hung collector cannot delay process
	// exit past it. Default 5s.
	ShutdownFlushTimeout time.Duration
	// Client performs upstream requests. Default: 10s-timeout client.
	Client *http.Client
	// ShipRetries is how many times a failed ship POST is re-attempted
	// within one shipStream call before giving up (the summary is
	// cumulative, so the same snapshot is simply re-sent). Only
	// transient failures are retried: connection errors and 5xx
	// responses; a 4xx is a deterministic rejection that retrying
	// cannot fix. 0 means the default of 2; negative disables retries.
	ShipRetries int
	// ShipBackoff is the base delay of the capped exponential backoff
	// between retry attempts (base, 2x, 4x, ... capped at 16x, each
	// equal-jittered to [d/2, d)). Default 100ms.
	ShipBackoff time.Duration
	// BreakerThreshold is the number of CONSECUTIVE failed ships (each
	// counted after its retries) that trips the upstream circuit
	// breaker from closed to open. While open, ships fail fast with
	// the breaker_open cause instead of burning their retry schedule
	// against a dead collector. After one FlushInterval open — the
	// next tick — the breaker admits a single half-open probe ship;
	// the probe's success closes it, its failure re-opens it. 0 means
	// the default of 5; negative disables the breaker.
	BreakerThreshold int
	// Logger receives structured operational logs (stream lifecycle at
	// Info, flush failures at Warn, per-request lines at Debug). Nil
	// discards them.
	Logger *slog.Logger
	// ObsSampleEvery samples the per-request ingest timing histograms
	// (ingest_decode, shard_feed) one request in N: unsampled requests
	// skip the clock reads and the histogram inserts entirely, keeping
	// the mutex-plus-quantile cost off the hot path. Uniform sampling
	// leaves the quantiles unbiased; the exact counters
	// (requests, items, bytes, errors) are never sampled. 1 observes
	// every request; 0 means the default of 64.
	ObsSampleEvery int
}

// Agent is the monitoring daemon's ingest role: a registry of named
// streams, each a sharded pipeline of mergeable estimator replicas, plus
// the shipping path that exports cumulative summaries upstream.
type Agent struct {
	cfg      AgentConfig
	logger   *slog.Logger
	boot     uint64 // process-incarnation marker carried by every Summary
	metrics  *Metrics
	breaker  *breaker      // per-upstream circuit breaker on the shipping path
	traceSeq atomic.Uint64 // per-process flush counter feeding trace IDs
	obsTick  atomic.Uint64 // ingest-request counter driving timing-sample selection

	mu      sync.RWMutex
	streams map[string]*agentStream
	// sorted caches the name-sorted registry for snapshotStreams;
	// invalidated (nil) by create/delete so the periodic FlushAll tick
	// stops re-sorting an unchanged fleet. Guarded by mu; the published
	// slice is never mutated, only replaced.
	sorted []*agentStream
}

// agentStream is one registered stream. shipMu binds the snapshot to its
// sequence number: without it, two concurrent flushes could assign a
// newer Seq to an older snapshot and the collector would keep the wrong
// one.
type agentStream struct {
	name   string
	cfg    StreamConfig
	run    *runner
	shipMu sync.Mutex
	seq    uint64
	// items and bytes are this stream's children of the ingest_items /
	// ingest_bytes families, resolved once at registration: the ingest
	// hot path must be a plain atomic add, not a per-request label
	// lookup.
	items *obs.Counter
	bytes *obs.Counter
	// lastShipOK is the unix-nano time of this stream's last successful
	// ship (0 = never) — the ship-success-age gauge's source, and the
	// operator's per-stream answer to "how stale is the collector's
	// view of me".
	lastShipOK atomic.Int64
	// dirty is set when a ship fails and cleared by the next success.
	// Nothing is queued while dirty: summaries are cumulative and the
	// collector folds latest-wins, so the next tick (or breaker probe)
	// reships the newest snapshot and recovery converges by
	// construction.
	dirty atomic.Bool
}

// NewAgent builds an agent.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.ID == "" {
		cfg.ID = "agent"
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 10 * time.Second
	}
	if cfg.ShutdownFlushTimeout <= 0 {
		cfg.ShutdownFlushTimeout = 5 * time.Second
	}
	if cfg.ObsSampleEvery <= 0 {
		cfg.ObsSampleEvery = 64
	}
	switch {
	case cfg.ShipRetries == 0:
		cfg.ShipRetries = 2
	case cfg.ShipRetries < 0:
		cfg.ShipRetries = 0
	}
	if cfg.ShipBackoff <= 0 {
		cfg.ShipBackoff = 100 * time.Millisecond
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 5
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled (breaker treats <= 0 as off)
	}
	if cfg.Client == nil {
		// The default client's timeout must not silently cap an
		// explicitly longer shutdown-flush bound; callers supplying
		// their own Client own that reconciliation.
		timeout := 10 * time.Second
		if cfg.ShutdownFlushTimeout > timeout {
			timeout = cfg.ShutdownFlushTimeout
		}
		cfg.Client = &http.Client{Timeout: timeout}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = discardLogger()
	}
	a := &Agent{
		cfg:     cfg,
		logger:  logger.With("role", "agent", "agent", cfg.ID),
		boot:    uint64(time.Now().UnixNano()),
		metrics: newMetrics(),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.FlushInterval, nil),
		streams: make(map[string]*agentStream),
	}
	a.registerPipelineMetrics()
	a.registerShipMetrics()
	return a
}

// registerPipelineMetrics surfaces every stream's pipeline state as
// dynamic gauge/counter families: series appear and disappear with the
// stream registry, values are read at scrape time from each runner's
// Stats snapshot. Occupancy (queue_len against queue_cap) is pipeline
// depth; sync_wait is the cumulative time snapshots stalled waiting for
// shard workers; kept/fed is the sampler acceptance rate.
func (a *Agent) registerPipelineMetrics() {
	reg := a.metrics.reg
	families := []struct {
		name string
		help string
		kind string
		read func(s pipeline.Stats) float64
	}{
		{"agent_pipeline_queue_len", "batches currently buffered in shard channels, by stream", obs.KindGauge,
			func(s pipeline.Stats) float64 { return float64(s.Queued) }},
		{"agent_pipeline_queue_cap", "total shard channel capacity in batches, by stream", obs.KindGauge,
			func(s pipeline.Stats) float64 { return float64(s.QueueCap * s.Shards) }},
		{"agent_pipeline_batches", "batches dispatched to shard workers, by stream", obs.KindCounter,
			func(s pipeline.Stats) float64 { return float64(s.Batches) }},
		{"agent_pipeline_syncs", "pipeline quiesce (Sync) rounds, by stream", obs.KindCounter,
			func(s pipeline.Stats) float64 { return float64(s.Syncs) }},
		{"agent_pipeline_sync_wait_seconds", "cumulative time snapshots and queries waited for shard workers to drain their queues and settle their replicas, by stream", obs.KindCounter,
			func(s pipeline.Stats) float64 { return s.SyncWait.Seconds() }},
		{"agent_stream_fed", "items fed to the pipeline, by stream", obs.KindCounter,
			func(s pipeline.Stats) float64 { return float64(s.Fed) }},
		{"agent_stream_kept", "items kept after in-shard sampling, by stream", obs.KindCounter,
			func(s pipeline.Stats) float64 { return float64(s.Kept) }},
	}
	for _, fam := range families {
		read := fam.read
		reg.SetFunc(fam.name, fam.help, fam.kind, func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range a.snapshotStreams() {
				emit(read(st.run.stats()), obs.Label{Key: "stream", Value: st.name})
			}
		})
	}
}

// registerShipMetrics surfaces the resilient-shipping state: the
// upstream breaker's position, each stream's time-since-last-successful
// ship (the operator's per-stream answer to "how stale is the
// collector's view of me"), and the dirty flag marking streams whose
// newest summary has not landed upstream. All are read at scrape time;
// the shipping path only touches atomics.
func (a *Agent) registerShipMetrics() {
	reg := a.metrics.reg
	reg.SetFunc("agent_breaker_state", "upstream circuit breaker state (0 closed, 1 half-open, 2 open)", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) { emit(float64(a.breaker.snapshot())) })
	reg.SetFunc("agent_ship_success_age_seconds", "seconds since the last successful ship (-1 before the first), by stream", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			now := time.Now()
			for _, st := range a.snapshotStreams() {
				age := -1.0
				if last := st.lastShipOK.Load(); last != 0 {
					age = now.Sub(time.Unix(0, last)).Seconds()
				}
				emit(age, obs.Label{Key: "stream", Value: st.name})
			}
		})
	reg.SetFunc("agent_stream_dirty", "1 when the stream's newest summary has not been shipped, by stream", obs.KindGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range a.snapshotStreams() {
				v := 0.0
				if st.dirty.Load() {
					v = 1.0
				}
				emit(v, obs.Label{Key: "stream", Value: st.name})
			}
		})
}

// Metrics exposes the agent's instrument panel (for tests and embedding).
func (a *Agent) Metrics() *Metrics { return a.metrics }

// Handler returns the agent's HTTP API.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/streams/{name}", a.handleCreate)
	mux.HandleFunc("GET /v1/streams", a.handleList)
	mux.HandleFunc("DELETE /v1/streams/{name}", a.handleDelete)
	mux.HandleFunc("POST /v1/streams/{name}/ingest", a.handleIngest)
	mux.HandleFunc("GET /v1/streams/{name}/estimate", a.handleEstimate)
	mux.HandleFunc("GET /v1/streams/{name}/subsetsum", a.handleSubsetSum)
	mux.HandleFunc("POST /v1/streams/{name}/flush", a.handleFlushOne)
	mux.HandleFunc("POST /v1/flush", a.handleFlushAll)
	mux.HandleFunc("POST /flush", a.handleFlushAll)
	addOps(mux, "agent", a.metrics)
	return withRequestLog(a.logger, mux)
}

// errStreamExists marks a re-registration with a conflicting
// configuration, distinguishing it from plain validation failures.
var errStreamExists = errors.New("stream already exists with a different configuration")

// CreateStream registers a named stream. Re-registering with an
// identical shared configuration is idempotent; a conflicting one
// returns an error wrapping errStreamExists.
func (a *Agent) CreateStream(name string, cfg StreamConfig) error {
	if name == "" {
		return fmt.Errorf("stream name must be non-empty")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.SampleSeed == 0 && !cfg.Presampled {
		// Sampling coins should differ across agents and restarts; the
		// estimator Seed, by contrast, must be shared (see StreamConfig).
		h := fnv.New64a()
		io.WriteString(h, a.cfg.ID)
		io.WriteString(h, name)
		cfg.SampleSeed = h.Sum64() ^ uint64(time.Now().UnixNano())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if existing, ok := a.streams[name]; ok {
		if existing.cfg.sharedEquals(cfg) {
			return nil
		}
		return fmt.Errorf("stream %q: %w", name, errStreamExists)
	}
	run, err := buildRunner(cfg)
	if err != nil {
		return err
	}
	a.streams[name] = &agentStream{
		name:  name,
		cfg:   cfg,
		run:   run,
		items: a.metrics.IngestItems.With(name),
		bytes: a.metrics.IngestBytes.With(name),
	}
	a.sorted = nil
	a.logger.Info("stream registered",
		"stream", name, "stat", cfg.Stat, "p", cfg.P, "shards", cfg.Shards)
	return nil
}

// lookup returns a registered stream.
func (a *Agent) lookup(name string) (*agentStream, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st, ok := a.streams[name]
	return st, ok
}

// snapshotStreams returns the current registry, sorted by name. The
// sorted slice is cached between create/delete events, so the periodic
// FlushAll tick and every list/estimate query share one sort instead of
// re-sorting an unchanged registry each time.
func (a *Agent) snapshotStreams() []*agentStream {
	a.mu.RLock()
	out := a.sorted
	a.mu.RUnlock()
	if out != nil {
		return out
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sorted == nil {
		out = make([]*agentStream, 0, len(a.streams))
		for _, st := range a.streams {
			out = append(out, st)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
		a.sorted = out
	}
	return a.sorted
}

func (a *Agent) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var cfg StreamConfig
	if err := DecodeConfig(io.LimitReader(r.Body, 1<<20), &cfg); err != nil {
		writeError(w, http.StatusBadRequest, "bad stream config: %v", err)
		return
	}
	if err := a.CreateStream(name, cfg); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errStreamExists) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"stream": name, "status": "registered"})
}

// streamInfo is one row of the list response.
type streamInfo struct {
	Name   string       `json:"name"`
	Config StreamConfig `json:"config"`
	Fed    uint64       `json:"fed"`
	Kept   uint64       `json:"kept"`
}

func (a *Agent) handleList(w http.ResponseWriter, _ *http.Request) {
	out := []streamInfo{}
	for _, st := range a.snapshotStreams() {
		fed, kept := st.run.counts()
		out = append(out, streamInfo{Name: st.name, Config: st.cfg, Fed: fed, Kept: kept})
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": out})
}

func (a *Agent) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	a.mu.Lock()
	st, ok := a.streams[name]
	delete(a.streams, name)
	a.sorted = nil
	a.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	st.run.close()
	a.logger.Info("stream deleted", "stream", name)
	writeJSON(w, http.StatusOK, map[string]string{"stream": name, "status": "deleted"})
}

func (a *Agent) handleIngest(w http.ResponseWriter, r *http.Request) {
	a.metrics.IngestRequests.Inc()
	st, ok := a.lookup(r.PathValue("name"))
	if !ok {
		a.metrics.IngestErrors.With(causeUnknownStream).Inc()
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	format, err := parseIngestType(r.Header.Get("Content-Type"))
	if err != nil {
		a.metrics.IngestErrors.With(causeContentType).Inc()
		writeError(w, http.StatusBadRequest, "bad ingest body: %v", err)
		return
	}
	// A declared length over the limit is doomed before the first byte:
	// reject it here so the streaming binary path never ingests a
	// prefix of a request MaxBytesReader would kill partway through.
	if r.ContentLength > maxIngestBytes {
		a.metrics.IngestErrors.With(causeTooLarge).Inc()
		writeError(w, http.StatusRequestEntityTooLarge,
			"ingest body %d bytes exceeds the %d-byte limit", r.ContentLength, int64(maxIngestBytes))
		return
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, maxIngestBytes)}
	// One timing coin per request covers both histograms: unsampled
	// requests skip every clock read as well as the mutex-guarded
	// quantile inserts. The exact counters below are never sampled.
	sampled := (a.obsTick.Add(1)-1)%uint64(a.cfg.ObsSampleEvery) == 0
	var start time.Time
	var feed time.Duration
	if sampled {
		start = time.Now()
	}
	// Bodies stream through pooled chunk buffers — no per-request
	// allocation, no materialized request. Record bodies hand each chunk
	// to the pipeline with ownership, so nothing is copied between the
	// decoder and the shard queues and the buffer returns to the decode
	// pool when its shard worker has applied it; text chunks are copied
	// into the pipeline's batch buffers. A mid-body error cannot un-ingest
	// earlier chunks, so the error reports how many items were already
	// consumed. Feed time is accumulated inside runner.feed so the decode
	// histogram isolates parsing from pipeline backpressure.
	var wait *time.Duration
	if sampled {
		wait = &feed
	}
	var n int
	switch format {
	case formatBinary:
		n, err = decodeRecords(body, plainWire, func(c []stream.Item, release func()) {
			st.run.feed(wait, release, func(pl *pipe) { pl.FeedOwned(c, release) })
		})
	case formatBinaryWeighted:
		n, err = decodeRecords(body, weightedWire, func(c []stream.WItem, release func()) {
			st.run.feed(wait, release, func(pl *pipe) { pl.FeedWeightedOwned(c, release) })
		})
	case formatTextWeighted:
		n, err = decodeLines(body, weightedWire, func(c []stream.WItem) {
			st.run.feed(wait, nil, func(pl *pipe) { pl.FeedWeightedCopy(c) })
		})
	default:
		n, err = decodeLines(body, plainWire, func(c []stream.Item) {
			st.run.feed(wait, nil, func(pl *pipe) { pl.FeedCopy(c) })
		})
	}
	if sampled {
		a.metrics.IngestDecode.Observe((time.Since(start) - feed).Seconds())
		a.metrics.ShardFeed.Observe(feed.Seconds())
	}
	st.items.Add(uint64(n))
	st.bytes.Add(uint64(body.n))
	if err != nil {
		status, cause := http.StatusBadRequest, causeDecode
		var tooLarge *http.MaxBytesError
		switch {
		case errors.Is(err, stream.ErrBadWeight):
			cause = causeBadWeight
		case errors.As(err, &tooLarge):
			// A body with no declared length that MaxBytesReader cut off
			// mid-stream: the same refusal as the up-front gate, except
			// that a prefix is already consumed.
			status, cause = http.StatusRequestEntityTooLarge, causeTooLarge
		}
		a.metrics.IngestErrors.With(cause).Inc()
		writeError(w, status, "bad ingest body after %d items: %v", n, err)
		return
	}
	writeIngested(w, n)
}

// countingReader counts bytes consumed from the wrapped reader — the
// ingest_bytes / summary_bytes_received accounting tap.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// writeIngested renders the ingest success envelope without the generic
// JSON encoder: the one response on the daemon's hottest endpoint is
// worth formatting into a stack buffer.
func writeIngested(w http.ResponseWriter, n int) {
	var buf [40]byte
	b := append(buf[:0], `{"ingested":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func (a *Agent) handleEstimate(w http.ResponseWriter, r *http.Request) {
	st, ok := a.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	ans, fed, kept, err := st.run.answer(a.metrics, query{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "estimate failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stream": st.name, "fed": fed, "kept": kept, "estimates": ans.report,
	})
}

func (a *Agent) handleFlushOne(w http.ResponseWriter, r *http.Request) {
	st, ok := a.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("name"))
		return
	}
	if err := a.shipStream(r.Context(), st); err != nil {
		writeError(w, http.StatusBadGateway, "ship failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shipped": 1})
}

func (a *Agent) handleFlushAll(w http.ResponseWriter, r *http.Request) {
	shipped, failed, err := a.flushAll(r.Context())
	if err != nil {
		// A partial flush is still useful information: the response
		// carries both counts so an operator (or test) can tell "the
		// collector is down" from "one stream's snapshot failed".
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"shipped": shipped, "failed": failed, "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shipped": shipped, "failed": 0})
}

// FlushAll ships every stream's cumulative summary upstream, returning
// how many shipped.
func (a *Agent) FlushAll(ctx context.Context) (int, error) {
	shipped, _, err := a.flushAll(ctx)
	return shipped, err
}

// flushAll ships every stream, continuing past failures so one dead
// stream (or an open breaker) never starves the rest, and reports both
// counts. The streams ship concurrently, on min(GOMAXPROCS, streams)
// workers — the caller and goroutines beside it — pulling from the
// name-sorted list; each outcome lands at its stream's index, so the
// joined error keeps every per-stream failure in stream order. When the
// breaker is not closed the first stream ships alone, as the probe, and
// the rest fan out after its outcome: a revived collector sees one
// request, and that same flush ships every stream.
func (a *Agent) flushAll(ctx context.Context) (shipped, failed int, err error) {
	streams := a.snapshotStreams()
	errs := make([]error, len(streams))
	ship := func(i int) {
		if err := a.shipStream(ctx, streams[i]); err != nil {
			errs[i] = fmt.Errorf("stream %q: %w", streams[i].name, err)
		}
	}
	var next atomic.Int64
	if len(streams) > 0 && a.breaker.snapshot() != breakerClosed {
		ship(0)
		next.Store(1)
	}
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(streams); i = int(next.Add(1)) - 1 {
			ship(i)
		}
	}
	// The caller is one of the workers, so a one-stream flush starts no
	// goroutine.
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(streams)-int(next.Load())) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	return len(streams) - failed, failed, errors.Join(errs...)
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// turns (boot, flush counter) into well-spread trace IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// errBreakerOpen marks a ship refused fast because the upstream circuit
// breaker is open; the next allowed ship (a half-open probe after the
// cooldown) carries the newest snapshot, so nothing is queued behind it.
var errBreakerOpen = errors.New("upstream circuit breaker open")

// shipStream serializes one stream's cumulative state and POSTs it to
// the collector, retrying transient failures with capped, jittered
// exponential backoff behind the agent's per-upstream circuit breaker.
// Because the payload is cumulative and ordered by Seq, a lost or
// duplicated shipment is harmless — the collector keeps the newest state
// per agent — so a ship that exhausts its retries just marks the stream
// dirty; the next flush tick (or breaker probe) ships a NEWER snapshot
// that supersedes everything that was lost. Every shipment carries a
// trace ID and the flush wall time, and lands in the agent's
// /debug/tracez ring as a "ship" span; the collector records the
// matching "fold" span.
func (a *Agent) shipStream(ctx context.Context, st *agentStream) error {
	if a.cfg.Upstream == "" {
		a.metrics.ShipErrors.With(causeNoUpstream).Inc()
		return fmt.Errorf("no upstream configured")
	}
	if !a.breaker.allow() {
		// Fast-fail before the snapshot: an open breaker skips the
		// pipeline quiesce as well as the doomed retry schedule.
		a.metrics.ShipErrors.With(causeBreakerOpen).Inc()
		st.dirty.Store(true)
		return errBreakerOpen
	}
	start := time.Now()
	// Snapshot and sequence number are taken under one lock so Seq order
	// equals snapshot order; sends may still arrive out of order, which
	// the collector's (Boot, Seq) check absorbs.
	st.shipMu.Lock()
	snap, err := st.run.snapshot()
	if err != nil {
		st.shipMu.Unlock()
		a.metrics.ShipErrors.With(causeSnapshot).Inc()
		// A local snapshot failure says nothing about upstream health:
		// release the (possible) half-open probe slot unjudged.
		a.breaker.release()
		st.dirty.Store(true)
		return err
	}
	st.seq++
	sum := Summary{
		Agent:     a.cfg.ID,
		Stream:    st.name,
		Boot:      a.boot,
		Seq:       st.seq,
		Config:    st.cfg,
		Fed:       snap.fed,
		Kept:      snap.kept,
		Epoch:     snap.epoch,
		TraceID:   mix64(a.boot ^ (a.traceSeq.Add(1) * 0x9E3779B97F4A7C15)),
		FlushedAt: start,
		Payload:   snap.payload,
	}
	st.shipMu.Unlock()
	span := obs.Span{
		TraceID: sum.TraceID, Stage: "ship", Stream: st.name, Agent: a.cfg.ID, Start: start,
		SyncNs: snap.sync.Nanoseconds(), FoldNs: snap.fold.Nanoseconds(),
	}
	fail := func(cause string, err error) error {
		a.metrics.ShipErrors.With(cause).Inc()
		span.Err = err.Error()
		a.metrics.Trace.Record(span)
		st.dirty.Store(true)
		return err
	}
	body, err := json.Marshal(sum)
	if err != nil {
		a.breaker.release()
		return fail(causeMarshal, err)
	}
	span.SnapshotNs = time.Since(start).Nanoseconds()
	span.Bytes = len(body)

	// The POST attempt loop: the first attempt plus up to ShipRetries
	// re-sends of the SAME marshaled snapshot (it is cumulative; there is
	// nothing fresher to fetch mid-ship). Each attempt's failure bumps
	// its own cause (network/status) and each scheduled re-attempt bumps
	// retry, so the audit counters read: attempts = network + status,
	// backoff pressure = retry, logical ship failures = gave_up. Only
	// transient failures — connection errors and 5xx responses — are
	// retried; a 4xx is a deterministic rejection that retrying cannot
	// fix, and it proves the collector is alive, so it settles the
	// breaker as a success.
	var lastErr error
	for attempt := 0; ; attempt++ {
		cause, transient, err := a.postSummary(ctx, &span, body)
		if err == nil {
			a.breaker.onSuccess()
			st.dirty.Store(false)
			st.lastShipOK.Store(time.Now().UnixNano())
			a.metrics.SummariesOut.Inc()
			a.metrics.SummaryBytesOut.Add(uint64(len(body)))
			a.metrics.AgentFlush.Since(start)
			a.metrics.Trace.Record(span)
			return nil
		}
		lastErr = err
		if !transient {
			if cause == causeRequest {
				// Building the request failed locally; upstream health
				// was never tested. Leave the breaker unjudged.
				a.breaker.release()
			} else {
				a.breaker.onSuccess()
			}
			return fail(cause, err)
		}
		a.metrics.ShipErrors.With(cause).Inc()
		if attempt >= a.cfg.ShipRetries || ctx.Err() != nil {
			break
		}
		a.metrics.ShipErrors.With(causeRetry).Inc()
		if !sleepCtx(ctx, shipBackoff(a.cfg.ShipBackoff, attempt)) {
			break
		}
	}
	if ctx.Err() != nil {
		// The caller gave up on the ship, which says nothing about the
		// upstream: release the (possible) probe slot unjudged.
		a.breaker.release()
	} else {
		a.breaker.onFailure()
	}
	return fail(causeGaveUp, lastErr)
}

// postSummary performs one upstream POST attempt, classifying a failure
// by cause and by whether it is transient (worth retrying: connection
// errors and 5xx). It updates the span's post timing so the recorded
// span reflects the final attempt.
func (a *Agent) postSummary(ctx context.Context, span *obs.Span, body []byte) (cause string, transient bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.Upstream+"/v1/collect", bytes.NewReader(body))
	if err != nil {
		return causeRequest, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	postStart := time.Now()
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		span.PostNs = time.Since(postStart).Nanoseconds()
		return causeNetwork, true, err
	}
	defer resp.Body.Close()
	span.PostNs = time.Since(postStart).Nanoseconds()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("collector returned %s: %s", resp.Status, bytes.TrimSpace(msg))
		return causeStatus, resp.StatusCode >= 500, err
	}
	return "", false, nil
}

// shipBackoff returns the delay before retry `attempt` (0-based): the
// base doubling per attempt, capped at 16x base, equal-jittered into
// [d/2, d) so a fleet of agents tripped by the same outage does not
// reconverge on the collector in lockstep.
func shipBackoff(base time.Duration, attempt int) time.Duration {
	d := base << min(attempt, 4)
	if d < 2 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)))
}

// sleepCtx waits for d or the context, reporting whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// Run drives periodic shipping until ctx is canceled, then performs a
// final flush and closes every stream — the agent's graceful-shutdown
// path. It returns the final flush's error, if any.
func (a *Agent) Run(ctx context.Context) error {
	ticker := time.NewTicker(a.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// A tick that select takes after the cancel would ship on a
			// dead context; the next pass takes ctx.Done() instead.
			if a.cfg.Upstream == "" || ctx.Err() != nil {
				continue
			}
			if _, err := a.FlushAll(ctx); err != nil {
				a.logger.Warn("periodic flush failed", "err", err)
			}
		case <-ctx.Done():
			var err error
			if a.cfg.Upstream != "" {
				// Final flush with a fresh deadline: ctx is already dead.
				flushCtx, cancel := context.WithTimeout(context.Background(), a.cfg.ShutdownFlushTimeout)
				_, err = a.FlushAll(flushCtx)
				cancel()
			}
			a.Close()
			return err
		}
	}
}

// Close stops every stream pipeline. It does not flush; use Run or
// FlushAll for that.
func (a *Agent) Close() {
	for _, st := range a.snapshotStreams() {
		st.run.close()
	}
}
