package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"substream/internal/rng"
	"substream/internal/stream"
)

// ipKey packs an IPv4 address (given as a.b.c.d octets) into the low 32
// bits of an item key — the netflow convention the subset-sum endpoints
// assume.
func ipKey(a, b, c, d uint64) stream.Item {
	return stream.Item(a<<24 | b<<16 | c<<8 | d)
}

// weightedFlows builds a deterministic weighted stream whose keys are
// IPv4 addresses, a pre-computable fraction of them inside 10.0.0.0/8.
func weightedFlows(n int, seed uint64) (s stream.WSlice, insideBytes float64) {
	r := rng.New(seed)
	s = make(stream.WSlice, n)
	for i := range s {
		var key stream.Item
		if r.Uint64n(8) < 3 { // ~3/8 of flows from 10.0.0.0/8
			key = ipKey(10, r.Uint64n(256), r.Uint64n(256), r.Uint64n(255)+1)
		} else {
			key = ipKey(192, 168, r.Uint64n(256), r.Uint64n(255)+1)
		}
		bytes := float64(100 + r.Uint64n(1400))
		s[i] = stream.WItem{Key: key, Weight: bytes}
		if uint64(key)>>24 == 10 {
			insideBytes += bytes
		}
	}
	return s, insideBytes
}

// subsetResp mirrors the subset-sum endpoints' JSON shape.
type subsetResp struct {
	Stream    string  `json:"stream"`
	Prefix    string  `json:"prefix"`
	Scope     string  `json:"scope"`
	Agents    int     `json:"agents"`
	SubsetSum float64 `json:"subset_sum"`
}

// TestSubsetSumEndToEnd is the weighted model's acceptance test at the
// service layer: two agents ingest disjoint weighted binary streams
// into VarOpt reservoirs, ship their summaries, and the collector's
// CDKLT fold must answer "bytes from 10.0.0.0/8" within tolerance of
// an exact weighted counter over the union — while each agent's local
// endpoint answers for its own substream.
func TestSubsetSumEndToEnd(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()

	cfg := StreamConfig{Stat: "varopt", P: 1, Seed: 42, Budget: 512, Presampled: true, Shards: 2, Batch: 256}
	cfgBody, _ := json.Marshal(cfg)

	const perAgent = 20000
	var exactTotal float64
	for i := 0; i < 2; i++ {
		flows, inside := weightedFlows(perAgent, uint64(100+i))
		exactTotal += inside
		agent := NewAgent(AgentConfig{ID: fmt.Sprintf("edge-%d", i), Upstream: cts.URL})
		ats := httptest.NewServer(agent.Handler())
		t.Cleanup(ats.Close)
		t.Cleanup(agent.Close)
		if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/flows", "application/json", cfgBody, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d", resp.StatusCode)
		}
		if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/flows/ingest", ContentTypeBinaryWeighted, wbinBody(flows), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("weighted ingest: status %d", resp.StatusCode)
		}

		// The agent-local endpoint answers for this agent's substream.
		var local subsetResp
		if resp := do(t, http.MethodGet, ats.URL+"/v1/streams/flows/subsetsum?prefix=10.0.0.0/8", "", nil, &local); resp.StatusCode != http.StatusOK {
			t.Fatalf("agent subsetsum: status %d", resp.StatusCode)
		}
		if local.Scope != "cumulative" {
			t.Fatalf("agent subsetsum scope %q", local.Scope)
		}
		if math.Abs(local.SubsetSum-inside) > 0.15*inside {
			t.Fatalf("agent %d subset sum %v, want ~%v", i, local.SubsetSum, inside)
		}

		if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flush: status %d", resp.StatusCode)
		}
	}

	var got subsetResp
	if resp := do(t, http.MethodGet, cts.URL+"/v1/subsetsum?stream=flows&prefix=10.0.0.0/8", "", nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("collector subsetsum: status %d", resp.StatusCode)
	}
	if got.Agents != 2 {
		t.Fatalf("collector folded %d agents, want 2", got.Agents)
	}
	if math.Abs(got.SubsetSum-exactTotal) > 0.15*exactTotal {
		t.Fatalf("fleet subset sum %v, want ~%v (exact weighted counter)", got.SubsetSum, exactTotal)
	}
	// A disjoint prefix carries none of the weight.
	var none subsetResp
	do(t, http.MethodGet, cts.URL+"/v1/subsetsum?stream=flows&prefix=172.16.0.0/12", "", nil, &none)
	if none.SubsetSum != 0 {
		t.Fatalf("172.16.0.0/12 subset sum %v, want 0", none.SubsetSum)
	}

	// Query validation: missing stream, bad prefix, bad scope, window
	// scope on an unwindowed stream, unknown stream.
	for _, q := range []struct {
		url    string
		status int
	}{
		{"/v1/subsetsum?prefix=10.0.0.0/8", http.StatusBadRequest},
		{"/v1/subsetsum?stream=flows&prefix=bogus", http.StatusBadRequest},
		{"/v1/subsetsum?stream=flows&prefix=10.0.0.0/8&scope=sideways", http.StatusBadRequest},
		{"/v1/subsetsum?stream=flows&prefix=10.0.0.0/8&scope=window", http.StatusBadRequest},
		{"/v1/subsetsum?stream=nope&prefix=10.0.0.0/8", http.StatusNotFound},
	} {
		if resp := do(t, http.MethodGet, cts.URL+q.url, "", nil, nil); resp.StatusCode != q.status {
			t.Fatalf("GET %s: status %d, want %d", q.url, resp.StatusCode, q.status)
		}
	}
}

// TestWindowedSubsetSumOverHTTP drives the "bytes from subnet X in the
// last W epochs" scenario through the daemon: a windowed varopt stream
// fed weighted flows across manual epochs must answer scope=window from
// only the retained epochs, at the agent and — after shipping — at the
// collector.
func TestWindowedSubsetSumOverHTTP(t *testing.T) {
	const (
		W        = 2
		epochs   = 4
		perEpoch = 1500
	)
	clock := withManualEpochs(t)

	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	agent := NewAgent(AgentConfig{ID: "edge", Upstream: cts.URL})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfg, _ := json.Marshal(StreamConfig{
		Stat: "varopt", P: 1, Seed: 9, Budget: 512, Presampled: true, Shards: 2, Batch: 128,
		Window: W, Epoch: Duration(time.Second),
	})
	do(t, http.MethodPut, ats.URL+"/v1/streams/w", "application/json", cfg, nil)

	inside := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		clock.Set(uint64(e))
		flows, in := weightedFlows(perEpoch, uint64(300+e))
		inside[e] = in
		if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/w/ingest", ContentTypeBinaryWeighted, wbinBody(flows), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch %d ingest: status %d", e, resp.StatusCode)
		}
		// Quiesce before the next boundary so every batch lands in the
		// epoch that fed it (the estimate path Syncs the pipeline).
		do(t, http.MethodGet, ats.URL+"/v1/streams/w/estimate", "", nil, nil)
	}

	var wantWindow, wantCum float64
	for e, in := range inside {
		wantCum += in
		if e >= epochs-W {
			wantWindow += in
		}
	}
	check := func(host, label string, urlPath string) {
		var win, cum subsetResp
		if resp := do(t, http.MethodGet, host+urlPath+"&scope=window", "", nil, &win); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s window subsetsum: status %d", label, resp.StatusCode)
		}
		do(t, http.MethodGet, host+urlPath, "", nil, &cum)
		if math.Abs(win.SubsetSum-wantWindow) > 0.3*wantWindow {
			t.Fatalf("%s window subset sum %v, want ~%v", label, win.SubsetSum, wantWindow)
		}
		if math.Abs(cum.SubsetSum-wantCum) > 0.3*wantCum {
			t.Fatalf("%s cumulative subset sum %v, want ~%v", label, cum.SubsetSum, wantCum)
		}
		// The scopes genuinely differ (cumulative holds ~2x the window).
		if math.Abs(win.SubsetSum-wantCum) < math.Abs(wantCum-wantWindow)/2 {
			t.Fatalf("%s window answer %v tracks the cumulative scope %v", label, win.SubsetSum, wantCum)
		}
	}
	check(ats.URL, "agent", "/v1/streams/w/subsetsum?prefix=10.0.0.0/8")

	if resp := do(t, http.MethodPost, ats.URL+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("flush failed")
	}
	check(cts.URL, "collector", "/v1/subsetsum?stream=w&prefix=10.0.0.0/8")
}

// TestSubsetSumRequiresSummer pins the no-silent-zero contract: a stat
// without the subset-sum capability answers 400, not 0.
func TestSubsetSumRequiresSummer(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "nosummer"})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()
	cfgBody, _ := json.Marshal(StreamConfig{Stat: "f0", P: 0.5, Seed: 1, Presampled: true})
	do(t, http.MethodPut, ats.URL+"/v1/streams/s", "application/json", cfgBody, nil)
	do(t, http.MethodPost, ats.URL+"/v1/streams/s/ingest", ContentTypeText, []byte("1\n2\n"), nil)
	resp := do(t, http.MethodGet, ats.URL+"/v1/streams/s/subsetsum?prefix=10.0.0.0/8", "", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("f0 subsetsum: status %d, want 400", resp.StatusCode)
	}
}

// TestWeightedTextIngest drives the weighted text content type through
// the HTTP handler onto a varopt stream: explicit weights and the
// default weight-1 column must both land.
func TestWeightedTextIngest(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "wtext"})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()
	cfgBody, _ := json.Marshal(StreamConfig{Stat: "varopt", P: 1, Seed: 3, Budget: 64, Presampled: true, Shards: 1})
	do(t, http.MethodPut, ats.URL+"/v1/streams/s", "application/json", cfgBody, nil)

	key := uint64(ipKey(10, 1, 2, 3))
	body := fmt.Sprintf("%d 500\n%d\n", key, key) // 500 bytes + default weight 1
	if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/s/ingest", ContentTypeTextWeighted, []byte(body), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted text ingest: status %d", resp.StatusCode)
	}
	var got subsetResp
	do(t, http.MethodGet, ats.URL+"/v1/streams/s/subsetsum?prefix=10.0.0.0/8", "", nil, &got)
	// Two items in a budget-64 reservoir: the sample is exact.
	if got.SubsetSum != 501 {
		t.Fatalf("subset sum %v, want exactly 501", got.SubsetSum)
	}
}

// TestSubsetPred pins the CIDR-to-key-range compilation.
func TestSubsetPred(t *testing.T) {
	pred, err := subsetPred("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		it   stream.Item
		want bool
	}{
		{ipKey(10, 0, 0, 1), true},
		{ipKey(10, 255, 255, 255), true},
		{ipKey(9, 255, 255, 255), false},
		{ipKey(11, 0, 0, 0), false},
		// High bits beyond the IPv4 range are masked off.
		{ipKey(10, 1, 2, 3) | 1<<40, true},
		{ipKey(192, 168, 0, 1), false},
	}
	for _, c := range cases {
		if pred(c.it) != c.want {
			t.Fatalf("pred(%d) = %v, want %v", c.it, !c.want, c.want)
		}
	}
	if p32, err := subsetPred("192.168.1.7/32"); err != nil || !p32(ipKey(192, 168, 1, 7)) || p32(ipKey(192, 168, 1, 8)) {
		t.Fatalf("/32 prefix mismatch (err=%v)", err)
	}
	for _, bad := range []string{"10.0.0.0", "2001:db8::/32", "10.0.0.0/33", ""} {
		if _, err := subsetPred(bad); err == nil {
			t.Fatalf("prefix %q accepted", bad)
		}
	}
}
