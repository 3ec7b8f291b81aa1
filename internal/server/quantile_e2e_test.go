package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"substream/internal/quantile"
	"substream/internal/stream"
)

// quantileRankError measures how many ranks the estimate is from the
// φ-quantile of the reference items; 0 when the estimate's tie range
// covers the target rank.
func quantileRankError(items stream.Slice, got, phi float64) float64 {
	vals := make([]float64, len(items))
	for i, it := range items {
		vals[i] = float64(it)
	}
	sort.Float64s(vals)
	target := phi * float64(len(vals))
	lo := sort.SearchFloat64s(vals, got)
	hi := sort.Search(len(vals), func(i int) bool { return vals[i] > got })
	switch {
	case float64(hi) < target:
		return target - float64(hi)
	case float64(lo) > target:
		return float64(lo) - target
	}
	return 0
}

// TestQuantileFleetWithinTwiceEpsilon is the issue's end-to-end
// acceptance test: two agents on MISALIGNED flush schedules ingest
// windowed quantile streams and ship summaries over HTTP; the
// collector's folded answer must agree with one sequential estimator —
// i.e. with the exact stream quantile — within 2ε·n ranks, for both the
// cumulative scope and the last-W-epochs window scope. CKMS folds are
// not bit-identical (unlike the f0/fk-exact/entropy fleet test, which
// asserts equality), so this battery asserts rank error against the
// exact data, the bound the merge property tests pin shard-by-shard.
func TestQuantileFleetWithinTwiceEpsilon(t *testing.T) {
	const (
		epochs   = 5
		W        = 3
		perChunk = 2500
	)
	chunks := epochChunks(epochs, 2, perChunk)
	clock := withManualEpochs(t)

	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	t.Cleanup(cts.Close)

	cfg := StreamConfig{
		Stat: "quantile", P: 0.5, Seed: 21, Shards: 2, Batch: 128,
		Presampled: true, Window: W, Epoch: Duration(time.Second),
	}
	cfgBody, _ := json.Marshal(cfg)
	var agents []string
	for i := 0; i < 2; i++ {
		agent := NewAgent(AgentConfig{ID: fmt.Sprintf("agent-%d", i), Upstream: cts.URL})
		ats := httptest.NewServer(agent.Handler())
		t.Cleanup(ats.Close)
		t.Cleanup(agent.Close)
		if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/q", "application/json", cfgBody, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create stream: status %d", resp.StatusCode)
		}
		agents = append(agents, ats.URL)
	}

	flush := func(i int) {
		if resp := do(t, http.MethodPost, agents[i]+"/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flush agent %d: status %d", i, resp.StatusCode)
		}
	}
	for e := 0; e < epochs; e++ {
		clock.Set(uint64(e))
		for i, url := range agents {
			if resp := do(t, http.MethodPost, url+"/v1/streams/q/ingest", ContentTypeBinary, binBody(chunks[e][i]), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest agent %d: status %d", i, resp.StatusCode)
			}
		}
		// Quiesce both pipelines before the next epoch boundary.
		for _, url := range agents {
			do(t, http.MethodGet, url+"/v1/streams/q/estimate", "", nil, nil)
		}
		// Misaligned schedules: agent 0 ships every epoch, agent 1 only
		// mid-run and at the end.
		flush(0)
		if e == 1 || e == epochs-1 {
			flush(1)
		}
	}

	// Exact references: all items, and the last W epochs' items.
	var all, last stream.Slice
	for e := 0; e < epochs; e++ {
		for i := range agents {
			all = append(all, chunks[e][i]...)
			if e >= epochs-W {
				last = append(last, chunks[e][i]...)
			}
		}
	}

	var got estimateResp
	do(t, http.MethodGet, cts.URL+"/v1/streams/q/estimate", "", nil, &got)
	if got.Agents != 2 {
		t.Fatalf("collector folded %d agents, want 2", got.Agents)
	}
	if n := got.Estimates.Values["n"]; n != float64(len(all)) {
		t.Fatalf("cumulative n = %v, want %d", n, len(all))
	}
	if n := got.Estimates.Values["window_n"]; n != float64(len(last)) {
		t.Fatalf("window_n = %v, want %d", n, len(last))
	}
	for _, tg := range quantile.DefaultTargets() {
		key := quantile.QuantileKey(tg.Quantile)
		if err := quantileRankError(all, got.Estimates.Values[key], tg.Quantile); err > 2*tg.Epsilon*float64(len(all)) {
			t.Errorf("global %s: rank error %.0f > 2ε·n = %.0f",
				key, err, 2*tg.Epsilon*float64(len(all)))
		}
		werr := quantileRankError(last, got.Estimates.Values["window_"+key], tg.Quantile)
		if bound := 2 * tg.Epsilon * float64(len(last)); werr > bound {
			t.Errorf("global window_%s: rank error %.0f > 2ε·n = %.0f", key, werr, bound)
		}
	}

	// /v1/streams round-trip: the retained per-agent summaries carry the
	// shipped epochs, and the stream row reports the quantile config.
	var list struct {
		Streams []struct {
			Name   string       `json:"name"`
			Config StreamConfig `json:"config"`
			Agents int          `json:"agents"`
			Detail []struct {
				Agent string `json:"agent"`
				Epoch uint64 `json:"epoch"`
			} `json:"agent_detail"`
		} `json:"streams"`
	}
	do(t, http.MethodGet, cts.URL+"/v1/streams", "", nil, &list)
	if len(list.Streams) != 1 || list.Streams[0].Name != "q" {
		t.Fatalf("list response: %+v", list)
	}
	if got := list.Streams[0].Config.Stat; got != "quantile" {
		t.Errorf("listed stat = %q, want quantile", got)
	}
	if list.Streams[0].Agents != 2 || len(list.Streams[0].Detail) != 2 {
		t.Fatalf("listed %d agents (%d detail rows), want 2", list.Streams[0].Agents, len(list.Streams[0].Detail))
	}
	for _, d := range list.Streams[0].Detail {
		if d.Epoch != epochs-1 {
			t.Errorf("agent %s shipped epoch %d, want %d", d.Agent, d.Epoch, epochs-1)
		}
	}
}
