package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"substream/internal/core"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

// binBody encodes items in the binary ingest format.
func binBody(items stream.Slice) []byte {
	buf := make([]byte, 8*len(items))
	for i, it := range items {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(it))
	}
	return buf
}

// do issues a request and decodes the JSON response into out (if
// non-nil), failing the test on transport errors.
func do(t *testing.T, method, url, contentType string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// estimateResp mirrors the estimate endpoints' JSON shape.
type estimateResp struct {
	Stream    string    `json:"stream"`
	Agents    int       `json:"agents"`
	Fed       uint64    `json:"fed"`
	Kept      uint64    `json:"kept"`
	Estimates Estimates `json:"estimates"`
}

// sampledZipf returns a Bernoulli-p sample of a Zipf original stream.
func sampledZipf(n int, p float64, seed uint64) stream.Slice {
	wl := workload.Zipf(n, 8192, 1.15, seed)
	return sample.NewBernoulli(p).Apply(wl.Stream, rng.New(seed+100))
}

// agentFleet spins up a collector and nAgents agents registered for one
// stream, ingests each agent's chunk, and flushes everything to the
// collector. It returns the collector's base URL and a cleanup-managed
// list of test servers.
func agentFleet(t *testing.T, cfg StreamConfig, name string, chunks []stream.Slice) string {
	t.Helper()
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	t.Cleanup(cts.Close)

	cfgBody, _ := json.Marshal(cfg)
	for i, chunk := range chunks {
		agent := NewAgent(AgentConfig{ID: fmt.Sprintf("agent-%d", i), Upstream: cts.URL})
		ats := httptest.NewServer(agent.Handler())
		t.Cleanup(ats.Close)
		t.Cleanup(agent.Close)

		if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/"+name, "application/json", cfgBody, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create stream: status %d", resp.StatusCode)
		}
		if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/"+name+"/ingest", ContentTypeBinary, binBody(chunk), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flush: status %d", resp.StatusCode)
		}
	}
	return cts.URL
}

// splitChunks cuts s into n contiguous chunks.
func splitChunks(s stream.Slice, n int) []stream.Slice {
	out := make([]stream.Slice, n)
	per := len(s) / n
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(s)
		}
		out[i] = s[lo:hi]
	}
	return out
}

// TestAgentCollectorMatchesSequential is the topology-equivalence
// acceptance test: N agent processes ingesting disjoint pre-sampled
// substreams, shipped over HTTP to a collector, must reproduce the
// estimate of one sequential estimator that observed the concatenated
// stream — exactly, the entropy estimate included: its plug-in sum runs
// over the profile of the counts whatever path the frequencies took.
func TestAgentCollectorMatchesSequential(t *testing.T) {
	const agents = 3
	const p = 0.25
	L := sampledZipf(60000, p, 7)
	chunks := splitChunks(L, agents)

	t.Run("f0", func(t *testing.T) {
		cfg := StreamConfig{Stat: "f0", P: p, Seed: 42, Shards: 2, Batch: 256, Presampled: true}
		url := agentFleet(t, cfg, "flows", chunks)

		seq := core.NewF0Estimator(core.F0Config{P: p}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/flows/estimate", "", nil, &got)
		if got.Agents != agents {
			t.Fatalf("collector folded %d agents, want %d", got.Agents, agents)
		}
		if got.Kept != uint64(len(L)) {
			t.Fatalf("collector kept %d items, want %d", got.Kept, len(L))
		}
		if got.Estimates.Values["f0"] != seq.Estimate() {
			t.Fatalf("merged F0 %v, sequential %v", got.Estimates.Values["f0"], seq.Estimate())
		}
	})

	t.Run("fk-exact", func(t *testing.T) {
		cfg := StreamConfig{Stat: "fk", K: 3, P: p, Seed: 42, Shards: 2, Batch: 256, Presampled: true, Exact: true}
		url := agentFleet(t, cfg, "skew", chunks)

		seq := core.NewFkEstimator(core.FkConfig{K: 3, P: p, Exact: true}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/skew/estimate", "", nil, &got)
		if got.Estimates.Values["fk"] != seq.Estimate() {
			t.Fatalf("merged F3 %v, sequential %v", got.Estimates.Values["fk"], seq.Estimate())
		}
		moments := seq.Moments()
		for l := 2; l <= 3; l++ {
			if got.Estimates.Values[fmt.Sprintf("f%d", l)] != moments[l] {
				t.Fatalf("merged F%d differs from sequential", l)
			}
		}
	})

	t.Run("fk-levelset", func(t *testing.T) {
		cfg := StreamConfig{Stat: "fk", K: 2, P: p, Seed: 42, Budget: 512, Shards: 2, Batch: 256, Presampled: true}
		url := agentFleet(t, cfg, "skew-ls", chunks)

		// The level-set backend merges with bounded (not zero) error:
		// check agreement within a 15 % tolerance rather than
		// exact equality, and against the true moment for sanity.
		seq := core.NewFkEstimator(core.FkConfig{K: 2, P: p, Budget: 512}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/skew-ls/estimate", "", nil, &got)
		merged, sequential := got.Estimates.Values["fk"], seq.Estimate()
		if rel := math.Abs(merged-sequential) / sequential; rel > 0.15 {
			t.Fatalf("merged level-set F2 %v vs sequential %v (rel %.3f)", merged, sequential, rel)
		}
	})

	t.Run("entropy", func(t *testing.T) {
		cfg := StreamConfig{Stat: "entropy", P: p, Seed: 42, Shards: 2, Batch: 256, Presampled: true}
		url := agentFleet(t, cfg, "ent", chunks)

		seq := core.NewEntropyEstimator(core.EntropyConfig{P: p}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/ent/estimate", "", nil, &got)
		if got.Estimates.Values["entropy"] != seq.Estimate() {
			t.Fatalf("merged entropy %v, sequential %v", got.Estimates.Values["entropy"], seq.Estimate())
		}
	})

	t.Run("hh1", func(t *testing.T) {
		cfg := StreamConfig{Stat: "hh1", P: p, Alpha: 0.05, Seed: 42, Shards: 2, Batch: 256, Presampled: true}
		url := agentFleet(t, cfg, "hitters", chunks)

		seq := core.NewF1HeavyHitters(core.F1HHConfig{P: p, Alpha: 0.05}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/hitters/estimate", "", nil, &got)
		want := seq.Report()
		if len(got.Estimates.F1Hitters) == 0 {
			t.Fatal("no heavy hitters from the fleet")
		}
		// The CountMin merges exactly, so every sequentially-reported
		// hitter must appear with an identical frequency estimate.
		merged := make(map[stream.Item]float64, len(got.Estimates.F1Hitters))
		for _, h := range got.Estimates.F1Hitters {
			merged[h.Item] = h.Freq
		}
		for _, h := range want {
			if f, ok := merged[h.Item]; !ok || f != h.Freq {
				t.Fatalf("hitter %d: merged %v, sequential %v", h.Item, f, h.Freq)
			}
		}
	})

	t.Run("all", func(t *testing.T) {
		cfg := StreamConfig{Stat: "all", P: p, Alpha: 0.05, Seed: 42, Shards: 2, Batch: 256, Presampled: true}
		url := agentFleet(t, cfg, "everything", chunks)

		seq := core.NewMonitor(core.MonitorConfig{P: p, HHAlpha: 0.05}, rng.New(42))
		for _, it := range L {
			seq.Observe(it)
		}
		rep := seq.Report()
		var got estimateResp
		do(t, http.MethodGet, url+"/v1/streams/everything/estimate", "", nil, &got)
		if got.Estimates.Values["f0"] != rep.F0 {
			t.Fatalf("merged monitor F0 %v, sequential %v", got.Estimates.Values["f0"], rep.F0)
		}
		if got.Estimates.Values["n"] != rep.EstimatedLength {
			t.Fatalf("merged monitor n %v, sequential %v", got.Estimates.Values["n"], rep.EstimatedLength)
		}
		if got.Estimates.Values["entropy"] != rep.Entropy {
			t.Fatalf("merged monitor entropy %v, sequential %v", got.Estimates.Values["entropy"], rep.Entropy)
		}
	})
}

// TestAgentSamplesInProcess exercises the sampled-NetFlow mode: agents
// receive ORIGINAL traffic and Bernoulli-sample it in their pipeline
// workers before the estimators see it.
func TestAgentSamplesInProcess(t *testing.T) {
	const n = 80000
	wl := workload.Zipf(n, 4096, 1.1, 21)
	original := stream.Collect(wl.Stream)
	truth := stream.NewFreq(original)
	chunks := splitChunks(original, 2)

	// SampleSeed fixed for determinism (0 would derive time-based coins).
	cfg := StreamConfig{Stat: "f0", P: 0.2, Seed: 5, Shards: 2, Batch: 512, SampleSeed: 77}
	url := agentFleet(t, cfg, "raw", chunks)

	var got estimateResp
	do(t, http.MethodGet, url+"/v1/streams/raw/estimate", "", nil, &got)
	if got.Fed != n {
		t.Fatalf("fleet fed %d items, want %d", got.Fed, n)
	}
	keptFrac := float64(got.Kept) / float64(n)
	if keptFrac < 0.15 || keptFrac > 0.25 {
		t.Fatalf("kept fraction %.3f far from p=0.2", keptFrac)
	}
	// Lemma 8 guarantees only a 4/√p multiplicative factor; the band
	// here is a sanity check on the plumbing, not the analysis.
	est := got.Estimates.Values["f0"]
	trueF0 := float64(truth.F0())
	if est < trueF0/4 || est > trueF0*4 {
		t.Fatalf("F0 estimate %v vs true %v outside the 4x sanity band", est, trueF0)
	}
}

// TestShippingIsIdempotent re-ships cumulative state and checks the
// collector never double-counts: the estimate after three flushes equals
// the estimate after one.
func TestShippingIsIdempotent(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()

	agent := NewAgent(AgentConfig{ID: "solo", Upstream: cts.URL})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 3, Presampled: true, Shards: 1}
	cfgBody, _ := json.Marshal(cfg)
	do(t, http.MethodPut, ats.URL+"/v1/streams/s", "application/json", cfgBody, nil)
	do(t, http.MethodPost, ats.URL+"/v1/streams/s/ingest", ContentTypeBinary, binBody(sampledZipf(5000, 0.5, 31)), nil)

	var first estimateResp
	do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil)
	do(t, http.MethodGet, cts.URL+"/v1/streams/s/estimate", "", nil, &first)

	do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil)
	do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil)
	var after estimateResp
	do(t, http.MethodGet, cts.URL+"/v1/streams/s/estimate", "", nil, &after)

	if after.Agents != 1 {
		t.Fatalf("collector tracks %d agents, want 1", after.Agents)
	}
	if after.Estimates.Values["f0"] != first.Estimates.Values["f0"] || after.Kept != first.Kept {
		t.Fatal("re-shipping cumulative state changed the global estimate")
	}
}

// TestAgentRestartReplacesState simulates an agent crash/restart: the
// new incarnation's Seq restarts at 1, and its (fresh, smaller) state
// must REPLACE the old incarnation's at the collector instead of being
// discarded as a stale replay.
func TestAgentRestartReplacesState(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()

	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 3, Presampled: true, Shards: 1}
	cfgBody, _ := json.Marshal(cfg)

	runIncarnation := func(items stream.Slice, flushes int) {
		agent := NewAgent(AgentConfig{ID: "phoenix", Upstream: cts.URL})
		defer agent.Close()
		ats := httptest.NewServer(agent.Handler())
		defer ats.Close()
		do(t, http.MethodPut, ats.URL+"/v1/streams/s", "application/json", cfgBody, nil)
		do(t, http.MethodPost, ats.URL+"/v1/streams/s/ingest", ContentTypeBinary, binBody(items), nil)
		for i := 0; i < flushes; i++ {
			if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("flush: status %d", resp.StatusCode)
			}
		}
	}

	// First incarnation ships several times (Seq climbs), then "dies".
	runIncarnation(stream.Slice{1, 2, 3, 4, 5}, 4)
	var before estimateResp
	do(t, http.MethodGet, cts.URL+"/v1/streams/s/estimate", "", nil, &before)
	if before.Estimates.Values["f0_sampled"] != 5 {
		t.Fatalf("first incarnation: f0_sampled %v, want 5", before.Estimates.Values["f0_sampled"])
	}

	// Restarted process, same ID, Seq back at 1, different (smaller) data.
	runIncarnation(stream.Slice{7, 8}, 1)
	var after estimateResp
	do(t, http.MethodGet, cts.URL+"/v1/streams/s/estimate", "", nil, &after)
	if after.Agents != 1 {
		t.Fatalf("collector tracks %d agents after restart, want 1", after.Agents)
	}
	if after.Estimates.Values["f0_sampled"] != 2 {
		t.Fatalf("restarted agent's state not adopted: f0_sampled %v, want 2",
			after.Estimates.Values["f0_sampled"])
	}
}

// TestIngestRacingDelete hammers ingest while the stream is deleted;
// the race must drop requests cleanly, never panic a closed pipeline.
func TestIngestRacingDelete(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "racer"})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfgBody, _ := json.Marshal(StreamConfig{Stat: "f0", P: 0.5, Seed: 1, Presampled: true, Shards: 2})
	do(t, http.MethodPut, ats.URL+"/v1/streams/doomed", "application/json", cfgBody, nil)

	var wg sync.WaitGroup
	body := binBody(sampledZipf(2000, 0.5, 1))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ats.URL+"/v1/streams/doomed/ingest", ContentTypeBinary, bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	req, _ := http.NewRequest(http.MethodDelete, ats.URL+"/v1/streams/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
}

// TestCollectorRejections covers the collector's input validation.
func TestCollectorRejections(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()

	post := func(body []byte) int {
		resp := do(t, http.MethodPost, cts.URL+"/v1/collect", "application/json", body, nil)
		return resp.StatusCode
	}

	if post([]byte("not json")) != http.StatusBadRequest {
		t.Fatal("garbage JSON accepted")
	}
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 1}
	bad, _ := json.Marshal(Summary{Agent: "a", Stream: "s", Seq: 1, Config: cfg, Payload: []byte{0xff, 0x01}})
	if post(bad) != http.StatusBadRequest {
		t.Fatal("corrupt payload accepted")
	}

	// A valid summary, then a config-mismatched one for the same stream.
	e := core.NewF0Estimator(core.F0Config{P: 0.5}, rng.New(1))
	e.Observe(1)
	payload, _ := e.MarshalBinary()
	good, _ := json.Marshal(Summary{Agent: "a", Stream: "s", Seq: 1, Config: cfg, Fed: 1, Kept: 1, Payload: payload})
	if post(good) != http.StatusAccepted {
		t.Fatal("valid summary rejected")
	}
	otherCfg := cfg
	otherCfg.Seed = 2
	e2 := core.NewF0Estimator(core.F0Config{P: 0.5}, rng.New(2))
	e2.Observe(1)
	payload2, _ := e2.MarshalBinary()
	clash, _ := json.Marshal(Summary{Agent: "b", Stream: "s", Seq: 1, Config: otherCfg, Payload: payload2})
	if post(clash) != http.StatusBadRequest {
		t.Fatal("config-mismatched summary accepted")
	}

	// A payload whose estimator disagrees with its own declared config
	// (here: different p than the config claims) must be rejected at
	// Accept time, not poison later estimate queries.
	eBad := core.NewF0Estimator(core.F0Config{P: 0.9}, rng.New(1))
	eBad.Observe(1)
	payloadBad, _ := eBad.MarshalBinary()
	inconsistent, _ := json.Marshal(Summary{Agent: "c", Stream: "s2", Seq: 1, Config: cfg, Payload: payloadBad})
	if post(inconsistent) != http.StatusBadRequest {
		t.Fatal("payload inconsistent with its declared config accepted")
	}

	// Unknown stream estimates are 404.
	resp := do(t, http.MethodGet, cts.URL+"/v1/streams/nope/estimate", "", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream estimate: status %d", resp.StatusCode)
	}

	// DELETE is the recovery path after a coordinated config change: drop
	// the stream, and a shipment under a NEW config is then adopted.
	if resp := do(t, http.MethodDelete, cts.URL+"/v1/streams/s", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("collector delete: status %d", resp.StatusCode)
	}
	// clash's payload is self-consistent with otherCfg (it was built from
	// it); it was only rejected against the stream's pinned config, so
	// after deletion it must be adopted as the stream's new config.
	if post(clash) != http.StatusAccepted {
		t.Fatal("self-consistent summary rejected after stream deletion")
	}
}

// TestAgentAPIValidation covers the agent's handler edge cases.
func TestAgentAPIValidation(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "a1"})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	// Bad config: p out of range.
	bad, _ := json.Marshal(StreamConfig{Stat: "f0", P: 1.5})
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config: status %d", resp.StatusCode)
	}
	// Unknown stat.
	bad2, _ := json.Marshal(StreamConfig{Stat: "median", P: 0.5})
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", bad2, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown stat: status %d", resp.StatusCode)
	}

	good, _ := json.Marshal(StreamConfig{Stat: "f0", P: 0.5, Seed: 9, Presampled: true})
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", good, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	// Idempotent re-create with identical config.
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", good, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("idempotent re-create: status %d", resp.StatusCode)
	}
	// Conflicting re-create.
	clash, _ := json.Marshal(StreamConfig{Stat: "f0", P: 0.25, Seed: 9, Presampled: true})
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", clash, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-create: status %d", resp.StatusCode)
	}
	// A validation error on an existing name is still a 400, not a 409.
	invalid, _ := json.Marshal(StreamConfig{Stat: "f0", P: 1.5})
	if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/x", "application/json", invalid, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config on existing name: status %d, want 400", resp.StatusCode)
	}

	// Text ingest.
	if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/x/ingest", ContentTypeText, []byte("1\n2\n3\n"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("text ingest: status %d", resp.StatusCode)
	}
	// Item 0 rejected.
	if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/x/ingest", ContentTypeText, []byte("0\n"), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("item 0 accepted")
	}
	// Truncated binary rejected.
	if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/x/ingest", ContentTypeBinary, []byte{1, 2, 3}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("truncated binary accepted")
	}
	// Unknown stream.
	if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/nope/ingest", ContentTypeText, []byte("1\n"), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatal("unknown stream ingest accepted")
	}
	// Flush without an upstream is a bad-gateway error.
	if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatal("flush without upstream succeeded")
	}

	// Local estimate works and reflects the three ingested items.
	var est estimateResp
	do(t, http.MethodGet, ats.URL+"/v1/streams/x/estimate", "", nil, &est)
	if est.Fed != 3 || est.Estimates.Values["f0_sampled"] != 3 {
		t.Fatalf("local estimate: fed=%d f0_sampled=%v", est.Fed, est.Estimates.Values["f0_sampled"])
	}

	// Ops endpoints.
	var health map[string]any
	do(t, http.MethodGet, ats.URL+"/healthz", "", nil, &health)
	if health["status"] != "ok" || health["role"] != "agent" {
		t.Fatalf("healthz: %v", health)
	}
	var metrics map[string]any
	do(t, http.MethodGet, ats.URL+"/metricsz", "", nil, &metrics)
	if _, ok := metrics["ingest_items"]; !ok {
		t.Fatalf("metricsz missing ingest_items: %v", metrics)
	}

	// Delete, then the stream is gone.
	if resp := do(t, http.MethodDelete, ats.URL+"/v1/streams/x", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("delete failed")
	}
	if resp := do(t, http.MethodGet, ats.URL+"/v1/streams/x/estimate", "", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatal("deleted stream still answers")
	}
}

// TestConcurrentIngestEstimateFlush hammers one agent stream from many
// goroutines — ingests racing local estimates racing flushes — and is
// the test the race detector patrols (Sync-based snapshots must never
// tear).
func TestConcurrentIngestEstimateFlush(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	agent := NewAgent(AgentConfig{ID: "busy", Upstream: cts.URL})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfg, _ := json.Marshal(StreamConfig{Stat: "all", P: 0.5, Seed: 11, Presampled: true, Shards: 2, Batch: 64, Alpha: 0.1})
	do(t, http.MethodPut, ats.URL+"/v1/streams/hot", "application/json", cfg, nil)

	const workers, perWorker = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				chunk := sampledZipf(500, 0.5, uint64(w*1000+i))
				resp, err := http.Post(ats.URL+"/v1/streams/hot/ingest", ContentTypeBinary, bytes.NewReader(binBody(chunk)))
				if err == nil {
					resp.Body.Close()
				}
				switch i % 5 {
				case 0:
					if resp, err := http.Get(ats.URL + "/v1/streams/hot/estimate"); err == nil {
						resp.Body.Close()
					}
				case 1:
					if resp, err := http.Post(ats.URL+"/flush", "", nil); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil)
	var got estimateResp
	do(t, http.MethodGet, cts.URL+"/v1/streams/hot/estimate", "", nil, &got)
	if got.Estimates.Values["f0"] <= 0 {
		t.Fatal("degenerate estimate after concurrent load")
	}
}

// TestServerLifecycle exercises the Start/Shutdown skeleton end to end.
func TestServerLifecycle(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "lc"})
	defer agent.Close()
	srv, err := Start("127.0.0.1:0", agent.Handler())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(srv.URL(), "127.0.0.1") {
		t.Fatalf("unexpected URL %s", srv.URL())
	}
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5e9)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(srv.URL() + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
