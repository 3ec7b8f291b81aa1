package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/levelset"
	"substream/internal/obs"
	"substream/internal/rng"
	"substream/internal/stream"
	"substream/internal/wire"
)

// ingestCauses and collectCauses enumerate every cause label the audit
// tests below sweep, so a counter bumped under an unexpected cause fails
// the "all others unchanged" check instead of hiding.
var ingestCauses = []string{causeUnknownStream, causeContentType, causeTooLarge, causeDecode, causeBadWeight}
var collectCauses = []string{causeTooLarge, causeEnvelope, causeConfig, causePayload, causeConflict}

// causeValues captures every cause child of a vec.
func causeValues(v *obs.CounterVec, causes []string) map[string]uint64 {
	out := make(map[string]uint64, len(causes))
	for _, c := range causes {
		out[c] = v.With(c).Value()
	}
	return out
}

// assertCauseDelta checks exactly one cause moved, by exactly one.
func assertCauseDelta(t *testing.T, before, after map[string]uint64, want string) {
	t.Helper()
	deltas := map[string]uint64{}
	if want != "" {
		deltas[want] = 1
	}
	assertCauseDeltas(t, before, after, deltas)
}

// assertCauseDeltas checks every cause moved by exactly its expected
// delta (0 if absent from want) — the retry-aware form: one logical ship
// failure under a retry budget legitimately bumps several causes
// (per-attempt network/status, per-reattempt retry, one gave_up).
func assertCauseDeltas(t *testing.T, before, after map[string]uint64, want map[string]uint64) {
	t.Helper()
	for cause, b := range before {
		if got := after[cause] - b; got != want[cause] {
			t.Errorf("cause %q: delta %d, want %d", cause, got, want[cause])
		}
	}
}

// TestIngestErrorCausesAudit drives every early return of handleIngest
// and asserts each bumps exactly its own ingest_errors cause — the audit
// that no failure path is silently uncounted or double-counted.
func TestIngestErrorCausesAudit(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "audit"})
	defer agent.Close()
	if err := agent.CreateStream("s", StreamConfig{Stat: "f0", P: 0.5, Presampled: true}); err != nil {
		t.Fatal(err)
	}
	h := agent.Handler()
	errs := agent.Metrics().IngestErrors

	cases := []struct {
		name        string
		path        string
		contentType string
		body        []byte
		contentLen  int64 // > 0 overrides the request's declared length; < 0 streams an endless undeclared body
		status      int
		cause       string
	}{
		{"unknown stream", "/v1/streams/nope/ingest", "text/plain", []byte("1\n"), 0,
			http.StatusNotFound, causeUnknownStream},
		{"bad content type", "/v1/streams/s/ingest", "application/json", []byte("[1]"), 0,
			http.StatusBadRequest, causeContentType},
		{"declared oversize", "/v1/streams/s/ingest", ContentTypeBinary, []byte{1}, maxIngestBytes + 1,
			http.StatusRequestEntityTooLarge, causeTooLarge},
		// No declared length to refuse up front: MaxBytesReader cuts the
		// body off mid-stream, after a prefix was consumed.
		{"undeclared oversize", "/v1/streams/s/ingest", ContentTypeBinary, nil, -1,
			http.StatusRequestEntityTooLarge, causeTooLarge},
		{"binary decode", "/v1/streams/s/ingest", ContentTypeBinary, []byte{1, 2, 3}, 0,
			http.StatusBadRequest, causeDecode},
		{"text decode", "/v1/streams/s/ingest", "text/plain", []byte("not-a-number\n"), 0,
			http.StatusBadRequest, causeDecode},
		{"weighted binary truncated", "/v1/streams/s/ingest", ContentTypeBinaryWeighted, []byte{1, 2, 3}, 0,
			http.StatusBadRequest, causeDecode},
		{"weighted binary bad weight", "/v1/streams/s/ingest", ContentTypeBinaryWeighted,
			wbinBody(stream.WSlice{{Key: 7, Weight: -2}}), 0,
			http.StatusBadRequest, causeBadWeight},
		{"weighted text bad weight", "/v1/streams/s/ingest", ContentTypeTextWeighted, []byte("5 0\n"), 0,
			http.StatusBadRequest, causeBadWeight},
		{"weighted text unparseable weight", "/v1/streams/s/ingest", ContentTypeTextWeighted, []byte("5 heavy\n"), 0,
			http.StatusBadRequest, causeBadWeight},
		{"weighted text key decode", "/v1/streams/s/ingest", ContentTypeTextWeighted, []byte("x 2\n"), 0,
			http.StatusBadRequest, causeDecode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := causeValues(errs, ingestCauses)
			var body io.Reader = strings.NewReader(string(tc.body))
			if tc.contentLen < 0 {
				body = onesReader{}
			}
			req := httptest.NewRequest(http.MethodPost, tc.path, body)
			req.Header.Set("Content-Type", tc.contentType)
			if tc.contentLen != 0 {
				req.ContentLength = tc.contentLen
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rr.Code, tc.status, rr.Body.String())
			}
			assertCauseDelta(t, before, causeValues(errs, ingestCauses), tc.cause)
		})
	}

	// A successful ingest moves no error cause and counts per stream.
	before := causeValues(errs, ingestCauses)
	itemsBefore := agent.Metrics().IngestItems.With("s").Value()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/ingest", strings.NewReader("1\n2\n3\n"))
	req.Header.Set("Content-Type", "text/plain")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest status %d", rr.Code)
	}
	assertCauseDelta(t, before, causeValues(errs, ingestCauses), "")
	if got := agent.Metrics().IngestItems.With("s").Value() - itemsBefore; got != 3 {
		t.Fatalf("ingest_items{stream=s} delta %d, want 3", got)
	}
}

// onesReader is a body that never ends, every byte 1 — valid binary items
// for as long as anyone reads.
type onesReader struct{}

func (onesReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 1
	}
	return len(p), nil
}

// shipCauses enumerates every ship_errors cause, including the
// resilient-shipping additions.
var shipCauses = []string{causeNoUpstream, causeSnapshot, causeMarshal, causeRequest,
	causeNetwork, causeStatus, causeRetry, causeBreakerOpen, causeGaveUp}

// TestShipErrorCausesAudit drives the shipping failure modes an agent
// can hit without a cooperating collector: no upstream, connection
// refused (with and without a retry budget), a deterministic 4xx, a
// retried 5xx, and a tripped breaker — pinning the exact cause deltas
// each produces.
func TestShipErrorCausesAudit(t *testing.T) {
	newShipper := func(cfg AgentConfig) *Agent {
		cfg.ID = "shipper"
		if cfg.ShipBackoff == 0 {
			cfg.ShipBackoff = time.Millisecond
		}
		a := NewAgent(cfg)
		t.Cleanup(a.Close)
		if err := a.CreateStream("s", StreamConfig{Stat: "f0", P: 0.5, Presampled: true}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	deadUpstream := func() string {
		// A listener that is immediately closed: connection refused.
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close()
		return deadURL
	}

	t.Run("no upstream", func(t *testing.T) {
		a := newShipper(AgentConfig{})
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush without upstream succeeded")
		}
		assertCauseDelta(t, before, causeValues(a.Metrics().ShipErrors, shipCauses), causeNoUpstream)
	})

	t.Run("network no retries", func(t *testing.T) {
		a := newShipper(AgentConfig{Upstream: deadUpstream(), ShipRetries: -1})
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush to dead upstream succeeded")
		}
		assertCauseDeltas(t, before, causeValues(a.Metrics().ShipErrors, shipCauses),
			map[string]uint64{causeNetwork: 1, causeGaveUp: 1})
	})

	t.Run("network with retries", func(t *testing.T) {
		a := newShipper(AgentConfig{Upstream: deadUpstream(), ShipRetries: 2})
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush to dead upstream succeeded")
		}
		// 3 attempts, 2 scheduled re-attempts, 1 exhausted budget.
		assertCauseDeltas(t, before, causeValues(a.Metrics().ShipErrors, shipCauses),
			map[string]uint64{causeNetwork: 3, causeRetry: 2, causeGaveUp: 1})
		if !a.streamDirty("s") {
			t.Fatal("failed ship did not mark the stream dirty")
		}
	})

	t.Run("status 4xx is not retried", func(t *testing.T) {
		var hits atomic.Uint64
		up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits.Add(1)
			http.Error(w, "teapot", http.StatusTeapot)
		}))
		t.Cleanup(up.Close)
		a := newShipper(AgentConfig{Upstream: up.URL, ShipRetries: 2})
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush to erroring upstream succeeded")
		}
		after := causeValues(a.Metrics().ShipErrors, shipCauses)
		// A deterministic rejection: one attempt, no retry, no gave_up.
		assertCauseDeltas(t, before, after, map[string]uint64{causeStatus: 1})
		if got := hits.Load(); got != 1 {
			t.Fatalf("4xx upstream hit %d times, want 1", got)
		}
		// The failed shipment still left a ship span, with the error.
		spans := a.Metrics().Trace.Snapshot()
		if len(spans) == 0 || spans[0].Err == "" || spans[0].Stage != "ship" {
			t.Fatalf("failed ship left no errored span: %+v", spans)
		}
	})

	t.Run("status 5xx is retried", func(t *testing.T) {
		var hits atomic.Uint64
		up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits.Add(1)
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		}))
		t.Cleanup(up.Close)
		a := newShipper(AgentConfig{Upstream: up.URL, ShipRetries: 1})
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush to erroring upstream succeeded")
		}
		assertCauseDeltas(t, before, causeValues(a.Metrics().ShipErrors, shipCauses),
			map[string]uint64{causeStatus: 2, causeRetry: 1, causeGaveUp: 1})
		if got := hits.Load(); got != 2 {
			t.Fatalf("5xx upstream hit %d times, want 2", got)
		}
	})

	t.Run("breaker open fails fast", func(t *testing.T) {
		a := newShipper(AgentConfig{Upstream: deadUpstream(), ShipRetries: -1,
			BreakerThreshold: 1, FlushInterval: time.Hour})
		// First flush trips the one-failure breaker...
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush to dead upstream succeeded")
		}
		before := causeValues(a.Metrics().ShipErrors, shipCauses)
		// ...so the second fails fast without touching the network.
		if _, err := a.FlushAll(context.Background()); err == nil {
			t.Fatal("flush with open breaker succeeded")
		}
		assertCauseDeltas(t, before, causeValues(a.Metrics().ShipErrors, shipCauses),
			map[string]uint64{causeBreakerOpen: 1})
	})
}

// streamDirty reports stream name's dirty flag (test helper).
func (a *Agent) streamDirty(name string) bool {
	st, ok := a.lookup(name)
	return ok && st.dirty.Load()
}

// f0Summary builds a self-consistent shippable summary for tests.
func f0Summary(agentID, stream string, cfg StreamConfig, seq uint64) Summary {
	e := core.NewF0Estimator(core.F0Config{P: cfg.P}, rng.New(cfg.Seed))
	e.Observe(1)
	payload, _ := e.MarshalBinary()
	return Summary{Agent: agentID, Stream: stream, Seq: seq, Config: cfg, Fed: 1, Kept: 1, Payload: payload}
}

// overBudgetFkSummary builds an fk summary whose level set holds
// repetitions of 100 items under a budget of 8 at threshold 0, a state
// no update or merge leaves. It splices the repetitions of a budget-128
// estimator, which tracks all 100 distinct items it was fed, behind the
// head of a budget-8 one built from the same seed, so the heavy summary,
// band offset and universe hashes all agree with the declared config and
// the collector's trial fold alone would pass it (the layouts are
// internal/core's and internal/levelset's marshal.go).
func overBudgetFkSummary(t *testing.T) Summary {
	t.Helper()
	cfg := StreamConfig{Stat: "fk", K: 2, P: 0.5, Budget: 8, Seed: 3}
	items := make(stream.Slice, 100)
	for i := range items {
		items[i] = stream.Item(i + 1)
	}
	// encode returns the payload at the given budget, where its level
	// set's length prefix sits and where its repetitions start.
	encode := func(budget int) (payload []byte, lenAt, repsAt int) {
		c := cfg
		c.Budget = budget
		e, err := estimator.New(c.withDefaults().spec())
		if err != nil {
			t.Fatal(err)
		}
		e.UpdateBatch(items)
		if payload, err = e.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(payload)
		r.Header(core.TagFkEstimator)
		r.U32()
		r.F64()
		r.U64()
		for n := r.U32(); n > 0; n-- {
			r.F64()
		}
		lenAt = len(payload) - r.Remaining()
		r.U32()
		r.Header(levelset.TagEstimator)
		r.F64()
		r.F64()
		r.U32()
		r.Nested()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		return payload, lenAt, len(payload) - r.Remaining()
	}
	small, lenAt, smallReps := encode(8)
	big, _, bigReps := encode(128)
	forged := append(small[:smallReps:smallReps], big[bigReps:]...)
	binary.LittleEndian.PutUint32(forged[lenAt:], uint32(len(forged)-lenAt-4))
	return Summary{Agent: "a", Stream: "fk", Seq: 1, Config: cfg, Fed: 100, Kept: 100, Payload: forged}
}

// TestCollectErrorCausesAudit drives every reject path of handleCollect
// and asserts the matching summaries_rejected cause.
func TestCollectErrorCausesAudit(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	rejects := collector.Metrics().CollectRejects
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 1}

	post := func(body []byte) int {
		resp, err := http.Post(cts.URL+"/v1/collect", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Pin the stream's config with one good summary first.
	if post(mustJSON(f0Summary("a", "s", cfg, 1))) != http.StatusAccepted {
		t.Fatal("seed summary rejected")
	}

	otherCfg := cfg
	otherCfg.Seed = 2
	cases := []struct {
		name  string
		body  []byte
		cause string
	}{
		{"garbage JSON", []byte("{nope"), causeEnvelope},
		{"missing identity", mustJSON(Summary{Config: cfg, Payload: []byte{1}}), causeConfig},
		{"invalid config", mustJSON(Summary{Agent: "a", Stream: "s2", Seq: 1,
			Config: StreamConfig{Stat: "f0", P: 42}, Payload: []byte{1}}), causeConfig},
		{"corrupt payload", mustJSON(Summary{Agent: "a", Stream: "s2", Seq: 1,
			Config: cfg, Payload: []byte{0xff, 0x01}}), causePayload},
		{"level-set repetition over its budget", mustJSON(overBudgetFkSummary(t)), causePayload},
		// Self-consistent under its own config, but the stream is pinned
		// to a different seed.
		{"config conflict", mustJSON(f0Summary("b", "s", otherCfg, 1)), causeConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := causeValues(rejects, collectCauses)
			if code := post(tc.body); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			assertCauseDelta(t, before, causeValues(rejects, collectCauses), tc.cause)
		})
	}

	// Oversized bodies go straight to the handler, as in the ingest
	// audit: a client cannot send a declared length its body does not
	// have, and an endless body needs no socket to be cut off.
	for _, tc := range []struct {
		name       string
		body       io.Reader
		contentLen int64
	}{
		{"declared oversize", strings.NewReader("{}"), 65 << 20},
		// No declared length to refuse up front: MaxBytesReader cuts the
		// body off once it passes the limit.
		{"undeclared oversize", onesReader{}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := causeValues(rejects, collectCauses)
			req := httptest.NewRequest(http.MethodPost, "/v1/collect", tc.body)
			req.ContentLength = tc.contentLen
			rr := httptest.NewRecorder()
			collector.Handler().ServeHTTP(rr, req)
			if rr.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413 (%s)", rr.Code, rr.Body)
			}
			assertCauseDelta(t, before, causeValues(rejects, collectCauses), causeTooLarge)
		})
	}
}

// TestMetricszPromFormat checks the Prometheus exposition endpoint over
// live agent HTTP: content type, HELP/TYPE metadata, per-stream labeled
// series, quantile-backed summaries, and the dynamic pipeline gauges —
// while the default JSON view keeps its flat panel keys.
func TestMetricszPromFormat(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "prom"})
	defer agent.Close()
	if err := agent.CreateStream("flows", StreamConfig{Stat: "f0", P: 0.5, Presampled: true, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agent.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/streams/flows/ingest", "text/plain", strings.NewReader("1\n2\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metricsz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# HELP ingest_items items ingested, by stream\n",
		"# TYPE ingest_items counter\n",
		`ingest_items{stream="flows"} 3` + "\n",
		"# TYPE ingest_decode_seconds summary\n",
		`ingest_decode_seconds{quantile="0.99"}`,
		"ingest_decode_seconds_count 1\n",
		`agent_pipeline_queue_cap{stream="flows"}`,
		`agent_stream_fed{stream="flows"} 3` + "\n",
		"# TYPE agent_pipeline_queue_len gauge\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, body)
		}
	}

	// The default JSON view keeps the flat expvar-era keys.
	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var panel map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&panel); err != nil {
		t.Fatal(err)
	}
	if panel["ingest_items"] != 3.0 || panel["ingest_requests"] != 1.0 {
		t.Fatalf("flat JSON keys missing: ingest_items=%v ingest_requests=%v",
			panel["ingest_items"], panel["ingest_requests"])
	}

	// The pprof suite is mounted on the daemon's own mux.
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// TestMetricszSurvivesHugeWeights feeds two valid weights whose sum
// overflows a float64: ingest accepts them, and the panel must still
// answer with a JSON object, not an empty body.
func TestMetricszSurvivesHugeWeights(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "huge"})
	defer agent.Close()
	if err := agent.CreateStream("bytes", StreamConfig{Stat: "varopt", P: 1, Presampled: true}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agent.Handler())
	defer ts.Close()
	if resp := do(t, http.MethodPost, ts.URL+"/v1/streams/bytes/ingest", ContentTypeTextWeighted, []byte("1 1e308\n2 1e308\n"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted ingest: status %d", resp.StatusCode)
	}
	var panel map[string]any
	if resp := do(t, http.MethodGet, ts.URL+"/metricsz", "", nil, &panel); resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: status %d", resp.StatusCode)
	}
	if panel["ingest_items"] != 2.0 {
		t.Fatalf("ingest_items = %v, want 2", panel["ingest_items"])
	}
}

// TestCollectorStalenessGauges drives the fake clock past the max age
// for one of two agents and checks the per-agent and per-stream gauges.
func TestCollectorStalenessGauges(t *testing.T) {
	now := time.Unix(1000, 0)
	collector := NewCollector(CollectorConfig{
		MaxSummaryAge: 40 * time.Second,
		Now:           func() time.Time { return now },
	})
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 1}
	if err := collector.Accept(f0Summary("a", "flows", cfg, 1)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if err := collector.Accept(f0Summary("b", "flows", cfg, 1)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(20 * time.Second) // a: 50s old (stale), b: 20s old (fresh)

	ts := httptest.NewServer(collector.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var panel map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&panel); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`collector_agent_last_seen_age_seconds{agent="a",stream="flows"}`: 50,
		`collector_agent_last_seen_age_seconds{agent="b",stream="flows"}`: 20,
		`collector_agent_stale{agent="a",stream="flows"}`:                 1,
		`collector_agent_stale{agent="b",stream="flows"}`:                 0,
		`collector_agents{stream="flows"}`:                                2,
		`collector_stale_agents{stream="flows"}`:                          1,
	}
	for key, v := range want {
		if got := panel[key]; got != v {
			t.Errorf("%s = %v, want %v", key, got, v)
		}
	}
}

// TestFlushFoldTrace is the tentpole's end-to-end check: two agents
// flush to one collector, and the shipment appears as a "ship" span in
// each agent's tracez ring — saying where the snapshot went: sync_ns and
// fold_ns within snapshot_ns — and a matching "fold" span (same trace ID)
// in the collector's, carrying the decode/fold timings and a non-negative
// end-to-end latency.
func TestFlushFoldTrace(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()

	cfg := StreamConfig{Stat: "f0", P: 0.5, Presampled: true, Shards: 2}
	shipped := make(map[uint64]string) // trace id -> agent
	for _, id := range []string{"a1", "a2"} {
		agent := NewAgent(AgentConfig{ID: id, Upstream: cts.URL})
		defer agent.Close()
		if err := agent.CreateStream("flows", cfg); err != nil {
			t.Fatal(err)
		}
		ats := httptest.NewServer(agent.Handler())
		defer ats.Close()
		resp, err := http.Post(ats.URL+"/v1/streams/flows/ingest", "text/plain", strings.NewReader("1\n2\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if _, err := agent.FlushAll(context.Background()); err != nil {
			t.Fatal(err)
		}

		// The agent's own ring has the ship leg.
		resp, err = http.Get(ats.URL + "/debug/tracez")
		if err != nil {
			t.Fatal(err)
		}
		var ring struct {
			Total int        `json:"total"`
			Spans []obs.Span `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(ring.Spans) != 1 {
			t.Fatalf("agent %s: %d ship spans, want 1", id, len(ring.Spans))
		}
		s := ring.Spans[0]
		if s.Stage != "ship" || s.Agent != id || s.Stream != "flows" || s.TraceID == 0 ||
			s.Err != "" || s.Bytes <= 0 || s.SnapshotNs < 0 || s.PostNs <= 0 {
			t.Fatalf("agent %s ship span: %+v", id, s)
		}
		// The quiesce and the replica fold are parts of the snapshot.
		if s.SyncNs <= 0 || s.FoldNs <= 0 || s.SyncNs+s.FoldNs > s.SnapshotNs {
			t.Fatalf("agent %s ship span: sync %d + fold %d ns of a %d ns snapshot", id, s.SyncNs, s.FoldNs, s.SnapshotNs)
		}
		if _, dup := shipped[s.TraceID]; dup {
			t.Fatalf("trace id %d reused across agents", s.TraceID)
		}
		shipped[s.TraceID] = id
	}

	// The collector's ring has a matching fold leg per shipment.
	resp, err := http.Get(cts.URL + "/debug/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Total int        `json:"total"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Spans) != 2 {
		t.Fatalf("collector: %d fold spans, want 2: %+v", len(ring.Spans), ring.Spans)
	}
	for _, s := range ring.Spans {
		agentID, ok := shipped[s.TraceID]
		if !ok {
			t.Fatalf("fold span with unknown trace id: %+v", s)
		}
		if s.Stage != "fold" || s.Agent != agentID || s.Stream != "flows" ||
			s.Err != "" || s.Bytes <= 0 || s.DecodeNs < 0 || s.FoldNs < 0 || s.E2ENs < 0 {
			t.Fatalf("fold span: %+v", s)
		}
	}
	if collector.Metrics().CollectFold.Count() != 2 || collector.Metrics().CollectDecode.Count() != 2 {
		t.Fatalf("fold/decode histograms: %d/%d observations, want 2/2",
			collector.Metrics().CollectFold.Count(), collector.Metrics().CollectDecode.Count())
	}
}
