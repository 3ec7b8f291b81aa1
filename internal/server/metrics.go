package server

import (
	"net/http"
	"net/http/pprof"
	"time"

	"substream/internal/obs"
)

// Error/reject causes. Every early return of the ingest, ship, and
// collect paths bumps exactly one cause-labeled counter — the audit
// table test pins the mapping — while the family sums keep the old flat
// panel keys (ingest_errors, ship_errors, summaries_rejected) alive.
const (
	// ingest_errors causes
	causeUnknownStream = "unknown_stream"
	causeContentType   = "content_type"
	causeTooLarge      = "too_large"
	causeDecode        = "decode"
	// bad_weight splits weighted-record weight failures (zero, negative,
	// NaN, infinite) out of the generic decode cause: a misconfigured
	// exporter emitting unusable weights is a different operational
	// problem than garbled framing.
	causeBadWeight = "bad_weight"

	// ship_errors causes
	causeNoUpstream = "no_upstream"
	causeSnapshot   = "snapshot"
	causeMarshal    = "marshal"
	causeRequest    = "request"
	causeNetwork    = "network"
	causeStatus     = "status"
	// The resilient-shipping causes: retry counts every scheduled
	// re-attempt (the per-attempt network/status causes still fire, so
	// retry measures backoff pressure, not a new failure class),
	// breaker_open counts ships refused fast while the upstream's
	// circuit breaker is open, and gave_up counts ships that exhausted
	// their retry budget — the number a converging fleet drives to zero.
	causeRetry       = "retry"
	causeBreakerOpen = "breaker_open"
	causeGaveUp      = "gave_up"

	// summaries_rejected causes, besides too_large for an envelope over
	// the size limit
	causeEnvelope = "envelope"
	causeConfig   = "config"
	causePayload  = "payload"
	causeConflict = "config_conflict"

	// snapshot_errors causes (collector durability): a failed periodic
	// checkpoint write, and a startup restore abandoned because the
	// snapshot file was missing its integrity or failed validation.
	causeSnapshotWrite   = "snapshot_write"
	causeSnapshotRestore = "snapshot_restore"
)

// Metrics is the daemon's instrument panel, rebuilt on internal/obs:
// sharded-cell counters for the hot paths, cause-labeled error
// families, per-stream ingest accounting, and CKMS-quantile-backed
// latency histograms. The registry is per-instance (an agent fleet in
// one test binary never collides), served by /metricsz as the flat JSON
// panel the daemon has always exposed or, with ?format=prom, in the
// Prometheus text format.
type Metrics struct {
	reg *obs.Registry

	IngestRequests  *obs.Counter
	IngestItems     *obs.CounterVec // by stream
	IngestBytes     *obs.CounterVec // by stream
	IngestErrors    *obs.CounterVec // by cause
	EstimateQueries *obs.Counter

	SummariesOut    *obs.Counter
	SummaryBytesOut *obs.Counter
	ShipErrors      *obs.CounterVec // by cause

	SummariesIn    *obs.Counter
	SummaryBytesIn *obs.Counter
	CollectRejects *obs.CounterVec // by cause
	SnapshotErrors *obs.CounterVec // by cause

	// Latency histograms (seconds), one per instrumented path.
	IngestDecode    *obs.Histogram
	ShardFeed       *obs.Histogram
	AgentFlush      *obs.Histogram
	CollectDecode   *obs.Histogram
	CollectFold     *obs.Histogram
	Query           *obs.Histogram
	SnapshotWrite   *obs.Histogram
	SnapshotRestore *obs.Histogram

	// SnapshotBytes is the size of the collector's last written
	// durability checkpoint (0 until the first write).
	SnapshotBytes *obs.Gauge

	// Trace is the flush→fold span ring served at /debug/tracez.
	Trace *obs.TraceRing
}

// newMetrics builds an instrument panel.
func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg: reg,

		IngestRequests:  reg.Counter("ingest_requests", "ingest HTTP requests accepted for processing"),
		IngestItems:     reg.CounterVec("ingest_items", "items ingested, by stream", "stream"),
		IngestBytes:     reg.CounterVec("ingest_bytes", "ingest request body bytes consumed, by stream", "stream"),
		IngestErrors:    reg.CounterVec("ingest_errors", "ingest requests rejected, by cause", "cause"),
		EstimateQueries: reg.Counter("estimate_queries", "estimate queries served"),

		SummariesOut:    reg.Counter("summaries_shipped", "summaries shipped upstream"),
		SummaryBytesOut: reg.Counter("summary_bytes_shipped", "serialized summary bytes shipped upstream"),
		ShipErrors:      reg.CounterVec("ship_errors", "summary shipments failed, by cause", "cause"),

		SummariesIn:    reg.Counter("summaries_received", "summaries accepted from agents"),
		SummaryBytesIn: reg.Counter("summary_bytes_received", "summary envelope bytes received from agents"),
		CollectRejects: reg.CounterVec("summaries_rejected", "summaries rejected, by cause", "cause"),
		SnapshotErrors: reg.CounterVec("snapshot_errors", "collector durability snapshot failures, by cause", "cause"),

		IngestDecode:    reg.Histogram("ingest_decode_seconds", "per-request ingest body decode latency (excludes pipeline feed)"),
		ShardFeed:       reg.Histogram("shard_feed_seconds", "per-request pipeline feed latency (includes backpressure stalls)"),
		AgentFlush:      reg.Histogram("agent_flush_seconds", "per-summary flush latency: snapshot, marshal, upstream POST"),
		CollectDecode:   reg.Histogram("collect_decode_seconds", "per-summary payload decode latency at the collector"),
		CollectFold:     reg.Histogram("collect_fold_seconds", "per-summary trial-fold latency at the collector"),
		Query:           reg.Histogram("query_seconds", "per-query fold + ask latency of the estimate and subset-sum routes"),
		SnapshotWrite:   reg.Histogram("snapshot_write_seconds", "per-checkpoint collector snapshot encode+write+rename latency"),
		SnapshotRestore: reg.Histogram("snapshot_restore_seconds", "collector snapshot restore latency at startup"),

		SnapshotBytes: reg.Gauge("collector_snapshot_bytes", "size of the collector's last written durability snapshot"),

		Trace: obs.NewTraceRing(obs.DefaultTraceCap),
	}
	return m
}

// Registry exposes the underlying metric registry (for embedders that
// want to add their own instruments to the same /metricsz panel).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// handler serves the panel: the flat JSON view by default (expvar-style
// compatibility), the Prometheus text exposition with ?format=prom.
func (m *Metrics) handler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = m.reg.WriteJSON(w)
}

// addOps registers the operational endpoints shared by both roles:
// health, metrics, the flush→fold trace ring, and the pprof suite.
func addOps(mux *http.ServeMux, role string, m *Metrics) {
	start := time.Now()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"role":   role,
			"uptime": time.Since(start).Round(time.Millisecond).String(),
		})
	})
	mux.HandleFunc("GET /metricsz", m.handler)
	mux.Handle("GET /debug/tracez", m.Trace)
	// The standard pprof suite, on the daemon's own mux rather than
	// http.DefaultServeMux: profiles never leak onto a mux the daemon
	// does not serve, and every daemon instance (agent and collector
	// alike) gets /debug/pprof/{profile,heap,goroutine,trace,...}.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
