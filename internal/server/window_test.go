package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
	"substream/internal/window"
	"substream/internal/workload"
)

// withManualEpochs reroutes every stream clock built during the test to
// one shared manual clock, so the test drives epoch boundaries instead
// of the wall.
func withManualEpochs(t *testing.T) *window.ManualClock {
	t.Helper()
	clock := window.NewManualClock()
	prev := newEpochClock
	newEpochClock = func(time.Duration) window.Clock { return clock }
	t.Cleanup(func() { newEpochClock = prev })
	return clock
}

// epochChunks deals a deterministic workload into [epoch][agent] chunks.
func epochChunks(epochs, agents, perChunk int) [][]stream.Slice {
	wl := workload.Zipf(epochs*agents*perChunk, 2048, 1.1, 77)
	s := stream.Collect(wl.Stream)
	out := make([][]stream.Slice, epochs)
	for e := range out {
		out[e] = make([]stream.Slice, agents)
		for a := range out[e] {
			lo := (e*agents + a) * perChunk
			out[e][a] = s[lo : lo+perChunk]
		}
	}
	return out
}

// TestWindowedFleetMatchesReplay is the distributed half of the
// window-vs-replay acceptance test: two agents on MISALIGNED flush
// schedules ship windowed summaries over HTTP, and the collector's
// last-W-epochs estimate must match a fresh (unwindowed) estimator fed
// only those epochs' items from both agents — for F0 over its KMV sketch,
// Fk over the exact collision counter, and entropy over its plug-in.
func TestWindowedFleetMatchesReplay(t *testing.T) {
	const (
		epochs   = 5
		W        = 3
		perChunk = 2500
	)
	chunks := epochChunks(epochs, 2, perChunk)

	for name, kind := range map[string]StreamConfig{
		"f0":       {Stat: "f0"},
		"fk-exact": {Stat: "fk", Exact: true},
		"entropy":  {Stat: "entropy"},
	} {
		t.Run(name, func(t *testing.T) {
			clock := withManualEpochs(t)

			collector := NewCollector(CollectorConfig{})
			cts := httptest.NewServer(collector.Handler())
			t.Cleanup(cts.Close)

			cfg := StreamConfig{
				Stat: kind.Stat, Exact: kind.Exact, P: 0.5, Seed: 21, Shards: 2, Batch: 128,
				Presampled: true, Window: W, Epoch: Duration(time.Second),
			}
			cfgBody, _ := json.Marshal(cfg)
			var agents []string
			for i := 0; i < 2; i++ {
				agent := NewAgent(AgentConfig{ID: fmt.Sprintf("agent-%d", i), Upstream: cts.URL})
				ats := httptest.NewServer(agent.Handler())
				t.Cleanup(ats.Close)
				t.Cleanup(agent.Close)
				if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/w", "application/json", cfgBody, nil); resp.StatusCode != http.StatusCreated {
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
					if resp := do(t, http.MethodPost, url+"/v1/streams/w/ingest", ContentTypeBinary, binBody(chunks[e][i]), nil); resp.StatusCode != http.StatusOK {
						t.Fatalf("ingest agent %d: status %d", i, resp.StatusCode)
					}
				}
				// Quiesce both pipelines before the next epoch boundary:
				// the estimate path Syncs, pinning every fed batch to the
				// current epoch.
				for _, url := range agents {
					do(t, http.MethodGet, url+"/v1/streams/w/estimate", "", nil, nil)
				}
				// Misaligned schedules: agent 0 ships every epoch, agent 1
				// only mid-run and at the end.
				flush(0)
				if e == 1 || e == epochs-1 {
					flush(1)
				}
			}

			// Replay the last W epochs (both agents' chunks) into a fresh
			// unwindowed estimator, and everything into a cumulative one.
			spec := cfg.withDefaults().spec()
			replay, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for e := epochs - W; e < epochs; e++ {
				for i := range agents {
					replay.UpdateBatch(chunks[e][i])
				}
			}
			cum, err := estimator.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				for i := range agents {
					cum.UpdateBatch(chunks[e][i])
				}
			}

			var got estimateResp
			do(t, http.MethodGet, cts.URL+"/v1/streams/w/estimate", "", nil, &got)
			if got.Agents != 2 {
				t.Fatalf("collector folded %d agents, want 2", got.Agents)
			}
			for name, want := range replay.Estimates() {
				if got.Estimates.Values["window_"+name] != want {
					t.Errorf("global window_%s = %v, replay of last %d epochs = %v",
						name, got.Estimates.Values["window_"+name], W, want)
				}
			}
			for name, want := range cum.Estimates() {
				if got.Estimates.Values[name] != want {
					t.Errorf("global cumulative %s = %v, sequential = %v",
						name, got.Estimates.Values[name], want)
				}
			}

			// Summary.Epoch is surfaced per agent in the list response.
			var list struct {
				Streams []struct {
					Detail []struct {
						Agent string `json:"agent"`
						Epoch uint64 `json:"epoch"`
					} `json:"agent_detail"`
				} `json:"streams"`
			}
			do(t, http.MethodGet, cts.URL+"/v1/streams", "", nil, &list)
			if len(list.Streams) != 1 || len(list.Streams[0].Detail) != 2 {
				t.Fatalf("list response: %+v", list)
			}
			for _, d := range list.Streams[0].Detail {
				if d.Epoch != epochs-1 {
					t.Errorf("agent %s shipped epoch %d, want %d", d.Agent, d.Epoch, epochs-1)
				}
			}
		})
	}
}

// TestWindowedLocalEstimates checks the agent's own estimate endpoint
// answers both scopes, and that the window forgets expired epochs while
// the cumulative scope keeps them.
func TestWindowedLocalEstimates(t *testing.T) {
	clock := withManualEpochs(t)
	agent := NewAgent(AgentConfig{ID: "solo"})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfg, _ := json.Marshal(StreamConfig{
		Stat: "f0", P: 1, Seed: 3, Presampled: true, Shards: 1,
		Window: 2, Epoch: Duration(time.Second),
	})
	do(t, http.MethodPut, ats.URL+"/v1/streams/w", "application/json", cfg, nil)

	do(t, http.MethodPost, ats.URL+"/v1/streams/w/ingest", ContentTypeText, []byte("1\n2\n3\n"), nil)
	var est estimateResp
	do(t, http.MethodGet, ats.URL+"/v1/streams/w/estimate", "", nil, &est)
	if est.Estimates.Values["f0"] != 3 || est.Estimates.Values["window_f0"] != 3 {
		t.Fatalf("epoch 0 estimates: %v", est.Estimates.Values)
	}

	clock.Set(3) // both window epochs expire
	do(t, http.MethodGet, ats.URL+"/v1/streams/w/estimate", "", nil, &est)
	if est.Estimates.Values["window_f0"] != 0 {
		t.Fatalf("window_f0 = %v after expiry, want 0", est.Estimates.Values["window_f0"])
	}
	if est.Estimates.Values["f0"] != 3 {
		t.Fatalf("cumulative f0 = %v after expiry, want 3", est.Estimates.Values["f0"])
	}
}

// TestWindowConfigValidationAndSharing pins the config rules: window
// bounds, epoch requirements, and Window/Epoch as shared fields.
func TestWindowConfigValidationAndSharing(t *testing.T) {
	base := StreamConfig{Stat: "f0", P: 0.5, Seed: 1, Presampled: true}
	cases := map[string]func(*StreamConfig){
		"negative window":    func(c *StreamConfig) { c.Window = -1 },
		"huge window":        func(c *StreamConfig) { c.Window = window.MaxWindow + 1 },
		"negative epoch":     func(c *StreamConfig) { c.Window = 2; c.Epoch = Duration(-time.Second) },
		"epoch sans window":  func(c *StreamConfig) { c.Epoch = Duration(time.Second) },
		"window tag as stat": func(c *StreamConfig) { c.Stat = "window" },
	}
	for name, mut := range cases {
		cfg := base
		mut(&cfg)
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Defaulting: a window with no epoch gets the 1m default.
	cfg := base
	cfg.Window = 5
	cfg = cfg.withDefaults()
	if cfg.Epoch != Duration(time.Minute) {
		t.Fatalf("default epoch = %v, want 1m", cfg.Epoch)
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}

	// Window and Epoch are shared fields: disagreeing re-registration
	// conflicts exactly like a different seed.
	agent := NewAgent(AgentConfig{ID: "cfg"})
	defer agent.Close()
	if err := agent.CreateStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	clash := cfg
	clash.Window = 6
	if err := agent.CreateStream("s", clash); err == nil {
		t.Fatal("conflicting window span accepted")
	}
	clash = cfg
	clash.Epoch = Duration(2 * time.Minute)
	if err := agent.CreateStream("s", clash); err == nil {
		t.Fatal("conflicting epoch length accepted")
	}
}

// TestDurationJSON pins the config type's two accepted input forms.
func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90s"`), &d); err != nil || d != Duration(90*time.Second) {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000000`), &d); err != nil || d != Duration(time.Second) {
		t.Fatalf("integer form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"not a duration"`), &d); err == nil {
		t.Fatal("garbage duration accepted")
	}
	out, err := json.Marshal(Duration(time.Minute))
	if err != nil || string(out) != `"1m0s"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}
