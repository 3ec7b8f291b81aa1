package server

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"substream/internal/core"
	"substream/internal/estimator"
	"substream/internal/stream"
)

// cacheAgent is one simulated agent of the cache tests: its incarnation,
// its last shipped Seq and its cumulative state.
type cacheAgent struct {
	boot, seq uint64
	est       estimator.Estimator
	fed       uint64
}

// summary ships the agent's cumulative state at its current (Boot, Seq).
func (a *cacheAgent) summary(t *testing.T, id, stream string, cfg StreamConfig) Summary {
	t.Helper()
	payload, err := a.est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return Summary{Agent: id, Stream: stream, Boot: a.boot, Seq: a.seq, Config: cfg,
		Fed: a.fed, Kept: a.fed, Payload: payload}
}

// uncachedReport folds the stream's current selection the way the
// collector did before it cached anything: fresh agents in sorted order
// into a fresh accumulator, then the full report. ok is false when the
// collector has no fresh agent of the stream to answer from.
func uncachedReport(t *testing.T, c *Collector, name string) (rep Estimates, agents int, ok bool) {
	t.Helper()
	c.mu.RLock()
	st, found := c.streams[name]
	var states []estimator.Estimator
	var newAcc func() (estimator.Estimator, error)
	if found {
		now := c.cfg.Now()
		ids := make([]string, 0, len(st.agents))
		for id, state := range st.agents {
			if !c.stale(state, now) {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			states = append(states, st.agents[id].decoded)
		}
		newAcc = st.newAcc
	}
	c.mu.RUnlock()
	if len(states) == 0 {
		return rep, 0, false
	}
	acc, err := newAcc()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if err := acc.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return estimator.ReportOf(acc), len(states), true
}

// retained reads what the collector holds of one agent, and the stream's
// generation, under the table lock.
func retained(c *Collector, name, id string) (sum Summary, gen uint64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.streams[name]
	if !ok {
		return sum, 0, false
	}
	state, ok := st.agents[id]
	return state.sum, st.gen, ok
}

// TestCollectorAnswerCacheMatchesFold is the cache's differential test: a
// seeded random schedule of accepts at new Seq, stale and duplicate
// deliveries, Boot changes, DELETE and re-registration, expiry past
// MaxSummaryAge, epoch advances of a windowed stream, snapshot restores and
// queries, where every query's answer must equal (reflect.DeepEqual) an
// uncached fold + ask over the same selection. A stale or duplicate
// delivery must leave the generation where it was, or every query after
// one would miss.
func TestCollectorAnswerCacheMatchesFold(t *testing.T) {
	epochs := withManualEpochs(t)
	now := &fakeNow{t: time.Unix(3_000_000, 0)}
	c := NewCollector(CollectorConfig{MaxSummaryAge: time.Minute, Now: now.now, SnapshotDir: t.TempDir()})
	h := c.Handler()
	streams := map[string]StreamConfig{
		"hh": StreamConfig{Stat: "hh1", P: 0.5, Seed: 3}.withDefaults(),
		"win": StreamConfig{Stat: "fk", K: 2, Exact: true, P: 0.5, Seed: 3,
			Window: 3, Epoch: Duration(time.Hour)}.withDefaults(),
	}
	names := []string{"hh", "win"}
	ids := []string{"a0", "a1", "a2", "a3"}
	fleet := make(map[string]map[string]*cacheAgent)
	newAgent := func(name string, boot uint64) *cacheAgent {
		est, err := streams[name].newEstimator()()
		if err != nil {
			t.Fatal(err)
		}
		return &cacheAgent{boot: boot, est: est}
	}
	for _, name := range names {
		fleet[name] = make(map[string]*cacheAgent)
		for _, id := range ids {
			fleet[name][id] = newAgent(name, 1)
		}
	}
	r := rand.New(rand.NewPCG(37, 1))
	feed := func(a *cacheAgent) {
		items := make([]stream.Item, 1+r.IntN(64))
		for i := range items {
			items[i] = stream.Item(1 + r.IntN(40)*r.IntN(40))
		}
		a.est.UpdateBatch(items)
		a.fed += uint64(len(items))
	}
	accept := func(name, id string, a *cacheAgent) {
		if err := c.Accept(a.summary(t, id, name, streams[name])); err != nil {
			t.Fatalf("accept %s/%s: %v", name, id, err)
		}
	}

	var queries, hits, misses, restores, deletes, expiries int
	saved := false
	for step := 0; step < 1500; step++ {
		name := names[r.IntN(len(names))]
		id := ids[r.IntN(len(ids))]
		a := fleet[name][id]
		switch op := r.IntN(20); {
		case op < 5: // an accept at a new Seq
			feed(a)
			a.seq++
			accept(name, id, a)
		case op < 7: // a stale or duplicate delivery of the retained incarnation
			held, before, ok := retained(c, name, id)
			if !ok {
				continue
			}
			stale := a.summary(t, id, name, streams[name])
			stale.Boot, stale.Seq = held.Boot, 1+r.Uint64N(held.Seq)
			if err := c.Accept(stale); err != nil {
				t.Fatal(err)
			}
			if _, after, _ := retained(c, name, id); after != before {
				t.Fatalf("step %d: a delivery at Seq %d ≤ %d moved the generation %d → %d",
					step, stale.Seq, held.Seq, before, after)
			}
		case op < 8: // a restarted agent
			a = newAgent(name, a.boot+1)
			fleet[name][id] = a
			feed(a)
			a.seq = 1
			accept(name, id, a)
		case op < 9: // DELETE; the next accept re-registers the stream
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/streams/"+name, nil))
			if rec.Code == http.StatusOK {
				deletes++
			}
		case op < 10: // time passes; agents that stopped shipping expire
			now.advance(time.Duration(5+r.IntN(40)) * time.Second)
			expiries++
		case op < 11: // the window's epoch advances
			epochs.Advance()
		case op < 12: // checkpoint, or restore the last checkpoint
			if !saved || r.IntN(2) == 0 {
				if err := c.SaveSnapshot(); err != nil {
					t.Fatal(err)
				}
				saved = true
				continue
			}
			if _, err := c.RestoreSnapshot(); err != nil {
				t.Fatal(err)
			}
			restores++
		default: // a query, sometimes repeated at once
			for rep := 0; rep < 1+r.IntN(3); rep++ {
				before := c.cacheHits.Value()
				got, err := c.Estimate(name)
				want, agents, ok := uncachedReport(t, c, name)
				queries++
				if !ok {
					if err == nil {
						t.Fatalf("step %d: %s answered %+v with no fresh agent", step, name, got)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, name, err)
				}
				if c.cacheHits.Value() > before {
					hits++
				} else {
					misses++
				}
				if got.Agents != agents {
					t.Fatalf("step %d: %s folded %d agents, the selection has %d", step, name, got.Agents, agents)
				}
				if !reflect.DeepEqual(got.Estimates, want) {
					t.Fatalf("step %d: %s answered\n %+v\nan uncached fold answers\n %+v", step, name, got.Estimates, want)
				}
			}
		}
	}
	t.Logf("%d queries: %d hits, %d misses; %d restores, %d deletes, %d clock steps",
		queries, hits, misses, restores, deletes, expiries)
	if hits == 0 || misses == 0 || restores == 0 || deletes == 0 {
		t.Fatalf("the schedule did not exercise the cache: %d hits, %d misses, %d restores, %d deletes",
			hits, misses, restores, deletes)
	}
}

// TestCollectorCacheDropsSupersededState proves the cache pins no state: a
// state folded into a cached report is garbage once an accept supersedes
// it, with no query in between. A cache of the accumulator or of the
// folded states would keep it, and the collector's heap with it.
func TestCollectorCacheDropsSupersededState(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	if err := c.Accept(shipF0("a", 1, []stream.Item{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate("s"); err != nil {
		t.Fatal(err)
	}
	old := func() weak.Pointer[core.F0Estimator] {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return weak.Make(estimator.Unwrap(c.streams["s"].agents["a"].decoded).(*core.F0Estimator))
	}()
	if err := c.Accept(shipF0("a", 2, []stream.Item{4, 5})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && old.Value() != nil; i++ {
		runtime.GC()
	}
	if old.Value() != nil {
		t.Fatal("the superseded state is still reachable after the accept that replaced it")
	}
	if c.streams["s"].report.Load() == nil {
		t.Fatal("the first query cached no report, so this test shows nothing")
	}
}

// TestCollectorEstimateIsTheCallersCopy proves the shared cached report
// never reaches a caller that can write it: mutating what Estimate
// returned — values, and hitter lists — leaves the next answer, a cache
// hit, as it was.
func TestCollectorEstimateIsTheCallersCopy(t *testing.T) {
	cfg := StreamConfig{Stat: "hh1", P: 0.5, Seed: 3}.withDefaults()
	est, err := cfg.newEstimator()()
	if err != nil {
		t.Fatal(err)
	}
	items := make([]stream.Item, 0, 4096)
	for i := range 4096 {
		items = append(items, stream.Item(1+i%7*(i%3)))
	}
	est.UpdateBatch(items)
	payload, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(CollectorConfig{})
	if err := c.Accept(Summary{Agent: "a", Stream: "hh", Seq: 1, Config: cfg, Fed: 4096, Kept: 4096, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Estimate("hh")
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Estimate("hh")
	if err != nil {
		t.Fatal(err)
	}
	if c.cacheHits.Value() != 1 {
		t.Fatalf("estimate_cache_hits = %d after two queries of an unchanged table, want 1", c.cacheHits.Value())
	}
	if len(first.Estimates.F1Hitters) == 0 {
		t.Fatal("the fixture reports no hitters, so their copy goes untested")
	}
	for _, g := range []GlobalEstimate{first, want} {
		for k := range g.Estimates.Values {
			g.Estimates.Values[k] = -1
		}
		g.Estimates.Values["forged"] = 1
		g.Estimates.F1Hitters[0] = estimator.Hitter{Item: 999_999, Freq: -1}
	}
	got, err := c.Estimate("hh")
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := uncachedReport(t, c, "hh")
	if !reflect.DeepEqual(got.Estimates, ref) {
		t.Fatalf("a caller's writes reached the cached report:\n got %+v\nwant %+v", got.Estimates, ref)
	}
}

// TestEstimateCacheHitsCounter pins estimate_cache_hits over miss, hit,
// accept, miss, and that estimate_queries and query_seconds keep counting
// every query, hit or miss.
func TestEstimateCacheHitsCounter(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	m := c.Metrics()
	if err := c.Accept(shipF0("a", 1, []stream.Item{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name              string
		accept            bool
		hits, queries, qs uint64
	}{
		{"miss", false, 0, 1, 1},
		{"hit", false, 1, 2, 2},
		{"accept", true, 1, 2, 2},
		{"miss after accept", false, 1, 3, 3},
	}
	for i, s := range steps {
		if s.accept {
			if err := c.Accept(shipF0("a", 2, []stream.Item{4})); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.Estimate("s"); err != nil {
			t.Fatal(err)
		}
		if h, q, n := c.cacheHits.Value(), m.EstimateQueries.Value(), m.Query.Count(); h != s.hits || q != s.queries || n != s.qs {
			t.Fatalf("step %d (%s): estimate_cache_hits=%d estimate_queries=%d query_seconds.count=%d, want %d %d %d",
				i, s.name, h, q, n, s.hits, s.queries, s.qs)
		}
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz?format=prom", nil))
	if want := "estimate_cache_hits 1\n"; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/metricsz does not expose %q:\n%s", want, rec.Body.String())
	}
}

// TestAnswerCacheRacesAcceptDeleteRestoreSnapshot runs accepts, cached
// and folded queries, DELETEs and snapshot restores of one stream
// concurrently, for the race detector: the cache is published by an
// atomic store outside the table lock, and a restore or a delete swaps the
// stream (and its cache) out from under in-flight queries.
func TestAnswerCacheRacesAcceptDeleteRestoreSnapshot(t *testing.T) {
	c := NewCollector(CollectorConfig{SnapshotDir: t.TempDir()})
	h := c.Handler()
	if err := c.Accept(shipF0("a0", 1, []stream.Item{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	for a := 0; a < 2; a++ {
		run(func(i int) {
			if err := c.Accept(shipF0(fmt.Sprintf("a%d", a), uint64(2+i), []stream.Item{stream.Item(i), 7})); err != nil {
				t.Error(err)
			}
		})
	}
	for q := 0; q < 2; q++ {
		run(func(int) {
			if g, err := c.Estimate("s"); err == nil && g.Estimates.Values == nil {
				t.Error("an answer without values")
			}
		})
	}
	run(func(i int) {
		if i%10 == 0 {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/streams/s", nil))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/s/estimate", nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
			t.Errorf("estimate: status %d: %s", rec.Code, rec.Body)
		}
	})
	run(func(i int) {
		var err error
		if i%2 == 0 {
			err = c.SaveSnapshot()
		} else {
			_, err = c.RestoreSnapshot()
		}
		if err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
}

// listIsEmptyArray checks GET /v1/streams before any stream exists: an
// empty array, not null.
func listIsEmptyArray(t *testing.T, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams", nil))
	if got, want := rec.Body.String(), "{\"streams\":[]}\n"; rec.Code != http.StatusOK || got != want {
		t.Errorf("GET /v1/streams = %d %q, want 200 %q", rec.Code, got, want)
	}
}

func TestAgentListWithNoStreamsIsEmptyArray(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "empty"})
	defer agent.Close()
	listIsEmptyArray(t, agent.Handler())
}

func TestCollectorListWithNoStreamsIsEmptyArray(t *testing.T) {
	listIsEmptyArray(t, NewCollector(CollectorConfig{}).Handler())
}
