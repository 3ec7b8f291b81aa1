package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"substream/internal/stream"
)

// TestEveryMetricFamilyIsAsserted drives one agent and one collector
// through every instrumented path — binary and weighted ingest, a flush,
// local and global estimate and subset-sum queries, a checkpoint and its
// restore — and then checks every series of both JSON panels against
// what the test did. A panel key missing from its role's table fails the
// test, so a new family cannot ship without an assertion here (and a row
// in README's metric table).
func TestEveryMetricFamilyIsAsserted(t *testing.T) {
	dir := t.TempDir()
	collector := NewCollector(CollectorConfig{SnapshotDir: dir})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	agent := NewAgent(AgentConfig{ID: "edge", Upstream: cts.URL, ObsSampleEvery: 1})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()
	if err := agent.CreateStream("bytes", StreamConfig{Stat: "varopt", P: 1, Budget: 64, Presampled: true, Shards: 2}); err != nil {
		t.Fatal(err)
	}

	bin := binBody(stream.Slice{1, 2, 3, 4, 5})
	weighted := []byte("167772161 500\n167772162 250\n184549377 7\n")
	for _, post := range []struct {
		contentType string
		body        []byte
	}{{ContentTypeBinary, bin}, {ContentTypeTextWeighted, weighted}} {
		if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/bytes/ingest", post.contentType, post.body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", post.contentType, resp.StatusCode)
		}
	}
	const items = 8
	if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	}
	var local, global estimateResp
	do(t, http.MethodGet, ats.URL+"/v1/streams/bytes/estimate", "", nil, &local)
	do(t, http.MethodGet, cts.URL+"/v1/streams/bytes/estimate", "", nil, &global)
	for _, url := range []string{
		ats.URL + "/v1/streams/bytes/subsetsum?prefix=0.0.0.0/0",
		cts.URL + "/v1/subsetsum?stream=bytes&prefix=0.0.0.0/0",
	} {
		if resp := do(t, http.MethodGet, url, "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
	}
	if local.Kept != items || global.Agents != 1 {
		t.Fatalf("local kept %d (want %d), global agents %d (want 1)", local.Kept, items, global.Agents)
	}
	if err := collector.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := collector.RestoreSnapshot(); err != nil || n != 1 {
		t.Fatalf("restore: %d entries, %v", n, err)
	}

	var agentPanel, collectorPanel map[string]any
	do(t, http.MethodGet, ats.URL+"/metricsz", "", nil, &agentPanel)
	do(t, http.MethodGet, cts.URL+"/metricsz", "", nil, &collectorPanel)
	shipped, ok := agentPanel["summary_bytes_shipped"].(float64)
	if !ok || shipped <= 0 {
		t.Fatalf("summary_bytes_shipped = %v", agentPanel["summary_bytes_shipped"])
	}

	eq := func(want float64) func(any) bool { return func(v any) bool { return v == want } }
	atLeast := func(low float64) func(any) bool {
		return func(v any) bool { f, ok := v.(float64); return ok && f >= low }
	}
	positive := func(v any) bool { f, ok := v.(float64); return ok && f > 0 }
	count := func(ok func(any) bool) func(any) bool {
		return func(v any) bool { h, isHist := v.(map[string]any); return isHist && ok(h["count"]) }
	}
	// Both roles register newMetrics' families; the role that does the
	// work sees each one move, the other reads zero.
	agentTable := map[string]func(any) bool{
		`ingest_items{stream="bytes"}`:                     eq(items),
		`ingest_bytes{stream="bytes"}`:                     eq(float64(len(bin) + len(weighted))),
		`agent_pipeline_queue_len{stream="bytes"}`:         eq(0),
		`agent_pipeline_queue_cap{stream="bytes"}`:         eq(16), // 2 shards × the default depth of 8
		`agent_pipeline_batches{stream="bytes"}`:           atLeast(2),
		`agent_pipeline_syncs{stream="bytes"}`:             atLeast(1),
		`agent_pipeline_sync_wait_seconds{stream="bytes"}`: positive,
		`agent_stream_fed{stream="bytes"}`:                 eq(items),
		`agent_stream_kept{stream="bytes"}`:                eq(float64(local.Kept)),
		"agent_breaker_state":                              eq(0),
		`agent_ship_success_age_seconds{stream="bytes"}`:   atLeast(0),
		`agent_stream_dirty{stream="bytes"}`:               eq(0),
	}
	collectorTable := map[string]func(any) bool{
		"estimate_cache_hits": eq(0), // one nil-predicate query: a miss
		`collector_agent_last_seen_age_seconds{agent="edge",stream="bytes"}`: atLeast(0),
		`collector_agent_stale{agent="edge",stream="bytes"}`:                 eq(0),
		`collector_agents{stream="bytes"}`:                                   eq(1),
		`collector_stale_agents{stream="bytes"}`:                             eq(0),
	}
	for _, fam := range []struct {
		key              string
		agent, collector func(any) bool
	}{
		{"ingest_requests", eq(2), eq(0)},
		{"ingest_items", eq(items), eq(0)},
		{"ingest_bytes", eq(float64(len(bin) + len(weighted))), eq(0)},
		{"ingest_errors", eq(0), eq(0)},
		{"estimate_queries", eq(2), eq(2)},
		{"summaries_shipped", eq(1), eq(0)},
		{"summary_bytes_shipped", eq(shipped), eq(0)},
		{"ship_errors", eq(0), eq(0)},
		{"summaries_received", eq(0), eq(1)},
		{"summary_bytes_received", eq(0), eq(shipped)},
		{"summaries_rejected", eq(0), eq(0)},
		{"snapshot_errors", eq(0), eq(0)},
		{"ingest_decode_seconds", count(eq(2)), count(eq(0))},
		{"shard_feed_seconds", count(eq(2)), count(eq(0))},
		{"agent_flush_seconds", count(eq(1)), count(eq(0))},
		// The shipment passes the live door once; its restored row is
		// timed by snapshot_restore_seconds alone.
		{"collect_decode_seconds", count(eq(0)), count(eq(1))},
		{"collect_fold_seconds", count(eq(0)), count(eq(1))},
		{"query_seconds", count(eq(2)), count(eq(2))},
		{"snapshot_write_seconds", count(eq(0)), count(eq(1))},
		{"snapshot_restore_seconds", count(eq(0)), count(eq(1))},
		{"collector_snapshot_bytes", eq(0), eq(float64(info.Size()))},
	} {
		agentTable[fam.key], collectorTable[fam.key] = fam.agent, fam.collector
	}

	for role, c := range map[string]struct {
		panel map[string]any
		table map[string]func(any) bool
	}{"agent": {agentPanel, agentTable}, "collector": {collectorPanel, collectorTable}} {
		for _, key := range sortedKeys(c.panel) {
			ok, listed := c.table[key]
			switch {
			case !listed:
				t.Errorf("%s panel exposes %s = %v, which no assertion covers", role, key, c.panel[key])
			case !ok(c.panel[key]):
				t.Errorf("%s panel: %s = %v", role, key, c.panel[key])
			}
		}
		for _, key := range sortedKeys(c.table) {
			if _, ok := c.panel[key]; !ok {
				t.Errorf("%s panel lacks %s", role, key)
			}
		}
	}
}

// TestRestoreLeavesLiveLatencyHistograms pins collect_decode_seconds and
// collect_fold_seconds to live summaries: a snapshot's rows pass the same
// admission door, but restoring them — at startup or on request — adds no
// observation to either.
func TestRestoreLeavesLiveLatencyHistograms(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCollector(CollectorConfig{SnapshotDir: dir})
	acceptWorkload(t, c1)
	const rows = 4
	if err := c1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n, err := c1.RestoreSnapshot(); err != nil || n != rows {
		t.Fatalf("restore: %d rows, %v; want %d", n, err, rows)
	}
	c2 := NewCollector(CollectorConfig{SnapshotDir: dir})
	for name, c := range map[string]*Collector{"live": c1, "restored at startup": c2} {
		want := uint64(0)
		if c == c1 {
			want = rows
		}
		if d, f := c.Metrics().CollectDecode.Count(), c.Metrics().CollectFold.Count(); d != want || f != want {
			t.Errorf("%s collector: decode/fold histograms hold %d/%d observations, want %d/%d", name, d, f, want, want)
		}
	}
	if n := c2.Metrics().SnapshotRestore.Count(); n != 1 {
		t.Fatalf("snapshot_restore_seconds observations: %d, want 1", n)
	}
}
