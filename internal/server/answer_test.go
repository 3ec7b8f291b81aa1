package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/rng"
	"substream/internal/sample"
	"substream/internal/stream"
	"substream/internal/workload"
)

// TestAgentEstimateCountsDescribeItsAnswer pins the agent's local answer
// to one quiesce point: on a presampled fk stream over the exact counter
// kept, fed and the reported sampled length are the same number, so an estimate response whose
// counts were read in a second critical section — after concurrent
// ingest slipped in behind the fold — shows up as kept != n. One-sided:
// it cannot fail once counts and fold share a lock hold.
func TestAgentEstimateCountsDescribeItsAnswer(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "consistent"})
	defer agent.Close()
	cfg := StreamConfig{Stat: "fk", Exact: true, P: 1, Presampled: true, Shards: 2, Batch: 16}
	if err := agent.CreateStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	st, _ := agent.lookup("s")
	h := agent.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := []stream.Item{1, 2, 3, 4, 5, 6, 7, 8}
			for {
				select {
				case <-stop:
					return
				default:
					st.run.feed(nil, nil, func(pl *pipe) { pl.FeedCopy(chunk) })
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	for i := 0; i < 500; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/s/estimate", nil))
		var got estimateResp
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("query %d: status %d: %v", i, rec.Code, err)
		}
		if n := got.Estimates.Values["sampled_length"]; got.Fed != got.Kept || float64(got.Kept) != n {
			t.Fatalf("query %d: fed=%d kept=%d describe more items than the answer covers (n=%v)",
				i, got.Fed, got.Kept, n)
		}
	}
}

// queryFixture is one agent and one collector holding the same three
// streams — f0 (no Summer), varopt (cumulative scope only) and windowed
// varopt — with the collector fed by two agents' ships, the first of
// which ("old") is a minute older than the second.
type queryFixture struct {
	agent, collector string // base URLs
	clock            *fakeNow
	am, cm           *Metrics
}

func newQueryFixture(t *testing.T) queryFixture {
	t.Helper()
	withManualEpochs(t)
	clock := &fakeNow{t: time.Unix(3_000_000, 0)}
	collector := NewCollector(CollectorConfig{MaxSummaryAge: 90 * time.Second, Now: clock.now})
	cts := httptest.NewServer(collector.Handler())
	t.Cleanup(cts.Close)
	fx := queryFixture{collector: cts.URL, clock: clock, cm: collector.Metrics()}

	streams := map[string]StreamConfig{
		"f0":  {Stat: "f0", P: 1, Presampled: true, Shards: 1},
		"vo":  {Stat: "varopt", P: 1, Presampled: true, Shards: 1, Budget: 64},
		"win": {Stat: "varopt", P: 1, Presampled: true, Shards: 1, Budget: 64, Window: 3, Epoch: Duration(time.Minute)},
	}
	body := []byte(fmt.Sprintf("%d 500\n%d 7\n", ipKey(10, 0, 0, 1), ipKey(11, 0, 0, 1)))
	for _, id := range []string{"old", "new"} {
		agent := NewAgent(AgentConfig{ID: id, Upstream: cts.URL})
		t.Cleanup(agent.Close)
		ats := httptest.NewServer(agent.Handler())
		t.Cleanup(ats.Close)
		for name, cfg := range streams {
			if err := agent.CreateStream(name, cfg); err != nil {
				t.Fatal(err)
			}
			if resp := do(t, http.MethodPost, ats.URL+"/v1/streams/"+name+"/ingest", ContentTypeTextWeighted, body, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %s/%s: status %d", id, name, resp.StatusCode)
			}
		}
		if resp := do(t, http.MethodPost, ats.URL+"/v1/flush", "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flush %s: status %d", id, resp.StatusCode)
		}
		clock.advance(time.Minute)
		fx.agent, fx.am = ats.URL, agent.Metrics()
	}
	return fx
}

// TestQueryContract is the one table over both roles and all three
// questions (estimate, cumulative subset sum, window subset sum): every
// route maps the same condition to the same status, and the collector's
// routes describe the same fold — agents merged, stale agents skipped —
// whichever question is asked of it.
func TestQueryContract(t *testing.T) {
	fx := newQueryFixture(t)
	// routes holds each role's URL for each question, %s the stream name.
	const prefix = "prefix=10.0.0.0/8"
	routes := map[string]string{
		"agent/estimate":      fx.agent + "/v1/streams/%s/estimate",
		"agent/subsetsum":     fx.agent + "/v1/streams/%s/subsetsum?" + prefix,
		"agent/window":        fx.agent + "/v1/streams/%s/subsetsum?scope=window&" + prefix,
		"collector/estimate":  fx.collector + "/v1/streams/%s/estimate",
		"collector/subsetsum": fx.collector + "/v1/subsetsum?stream=%s&" + prefix,
		"collector/window":    fx.collector + "/v1/subsetsum?scope=window&stream=%s&" + prefix,
	}
	type foldResp struct {
		Agents    int      `json:"agents"`
		Skipped   int      `json:"skipped_stale"`
		SubsetSum *float64 `json:"subset_sum"`
	}
	status := func(t *testing.T, role, question, name string, want int) foldResp {
		t.Helper()
		var got foldResp
		url := fmt.Sprintf(routes[role+"/"+question], name)
		if resp := do(t, http.MethodGet, url, "", nil, &got); resp.StatusCode != want {
			t.Fatalf("%s %s of %q: status %d, want %d", role, question, name, resp.StatusCode, want)
		}
		return got
	}
	questions := []string{"estimate", "subsetsum", "window"}

	// Phase 1 — "old" shipped 2 minutes ago, "new" 1 minute ago, max age
	// 90 s: one agent fresh, one stale.
	for _, role := range []string{"agent", "collector"} {
		for _, question := range questions {
			t.Run(role+"/"+question, func(t *testing.T) {
				status(t, role, question, "nope", http.StatusNotFound)
				if question != "estimate" {
					status(t, role, question, "f0", http.StatusBadRequest) // no Summer
				}
				if question == "window" {
					status(t, role, question, "vo", http.StatusBadRequest) // unwindowed stream
				}
				got := status(t, role, question, "win", http.StatusOK)
				// One fresh agent either way, and two items in a budget-64
				// reservoir: the 10.0.0.0/8 sum is exactly the one 500.
				if question != "estimate" && (got.SubsetSum == nil || *got.SubsetSum != 500) {
					t.Fatalf("subset sum %v, want exactly 500", got.SubsetSum)
				}
				if role == "collector" && (got.Agents != 1 || got.Skipped != 1) {
					t.Fatalf("fold described as agents=%d skipped_stale=%d, want 1 and 1", got.Agents, got.Skipped)
				}
			})
		}
	}

	// Phase 2 — everyone stale: every collector question answers 503,
	// still distinct from the unknown stream's 404.
	fx.clock.advance(time.Hour)
	for _, question := range questions {
		status(t, "collector", question, "win", http.StatusServiceUnavailable)
		status(t, "collector", question, "nope", http.StatusNotFound)
	}
}

// TestQueryInstrumentation pins the one instrumented point of the answer
// path: on either role, one estimate plus one subset sum is two
// estimate_queries and two query_seconds observations.
func TestQueryInstrumentation(t *testing.T) {
	fx := newQueryFixture(t)
	for role, m := range map[string]*Metrics{"agent": fx.am, "collector": fx.cm} {
		base, sub := fx.agent, "/v1/streams/vo/subsetsum?prefix=10.0.0.0/8"
		if role == "collector" {
			base, sub = fx.collector, "/v1/subsetsum?stream=vo&prefix=10.0.0.0/8"
		}
		for _, path := range []string{"/v1/streams/vo/estimate", sub} {
			if resp := do(t, http.MethodGet, base+path, "", nil, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s GET %s: status %d", role, path, resp.StatusCode)
			}
		}
		if q, h := m.EstimateQueries.Value(), m.Query.Count(); q != 2 || h != 2 {
			t.Fatalf("%s: estimate_queries=%d query_seconds.count=%d, want 2 and 2", role, q, h)
		}
	}
}

// TestCollectorFoldIsTheSortedLeftFold pins the fold order as a contract,
// the tier-1 twin of the benchmark harness's check 3 (benchmark/check.go,
// checkFold): for the four kinds of the fleet workload, whatever order the
// summaries arrived in, the collector's answer is — value for value, ==,
// and hitter for hitter — a fresh accumulator into which the agents'
// decoded states were merged one by one in sorted agent order. The order
// is observable: SpaceSaving's merge adds floors and truncates and VarOpt's
// resamples, so neither is associative, and a grouped or cached-prefix
// fold writes other bytes for every kind and, for the level-set fk, reports
// other values (ROADMAP item 7). For fk the test therefore also folds in
// arrival order and requires a different report — or its fixture has
// stopped telling orders apart.
func TestCollectorFoldIsTheSortedLeftFold(t *testing.T) {
	const agents, perAgent = 6, 200_000
	arrival := []int{4, 1, 5, 0, 3, 2} // not agent order
	kinds := []struct {
		name       string
		cfg        StreamConfig
		observable bool // the fold order shows in the report
	}{
		{"f0", StreamConfig{Stat: "f0", P: 0.05, Seed: 3, Window: 4, Epoch: Duration(24 * time.Hour)}, false},
		{"fk", StreamConfig{Stat: "fk", K: 2, P: 0.05, Seed: 3}, true},
		{"hh1", StreamConfig{Stat: "hh1", P: 0.05, Seed: 3}, false},
		{"varopt", StreamConfig{Stat: "varopt", P: 0.05, Seed: 3, Budget: 1024}, false},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			cfg := kind.cfg.withDefaults()
			newAcc := cfg.newEstimator()
			sums := make([]Summary, agents)
			for i := range sums {
				e, err := newAcc()
				if err != nil {
					t.Fatal(err)
				}
				if w, ok := estimator.WeightedOf(e); ok {
					flows, _ := weightedFlows(perAgent/20, uint64(40+i))
					w.UpdateWeightedBatch(flows)
				} else {
					wl := workload.Zipf(perAgent, 1<<17, 1.1, uint64(40+i))
					e.UpdateBatch(sample.NewBernoulli(cfg.P).Apply(wl.Stream, rng.New(uint64(140+i))))
				}
				payload, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				sums[i] = Summary{Agent: fmt.Sprintf("a%02d", i), Stream: kind.name, Boot: 1, Seq: 1, Config: cfg, Payload: payload}
			}
			c := NewCollector(CollectorConfig{})
			for _, i := range arrival {
				if err := c.Accept(sums[i]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.Estimate(kind.name)
			if err != nil || got.Agents != agents {
				t.Fatalf("collector estimate: %+v, %v", got, err)
			}
			leftFold := func(order []int) estimator.Report {
				acc, err := newAcc()
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range order {
					state, err := estimator.Decode(sums[i].Payload)
					if err == nil {
						err = acc.Merge(state)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return estimator.ReportOf(acc)
			}
			if want := leftFold([]int{0, 1, 2, 3, 4, 5}); !reflect.DeepEqual(got.Estimates, want) {
				t.Errorf("collector fold differs from the left fold in sorted agent order:\n got %+v\nwant %+v", got.Estimates, want)
			}
			if kind.observable && reflect.DeepEqual(got.Estimates, leftFold(arrival)) {
				t.Errorf("the fixture no longer tells the sorted fold from the fold in arrival order")
			}
		})
	}
}
