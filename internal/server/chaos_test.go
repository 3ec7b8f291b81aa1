package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"substream/internal/faults"
)

// chaosCollectorFront is a swappable reverse-front for a collector: the
// URL agents ship to stays fixed while the collector behind it is
// killed and replaced — the e2e shape of a collector restart.
type chaosCollectorFront struct {
	handler atomic.Pointer[http.Handler]
	ts      *httptest.Server
}

func newChaosFront(t *testing.T, c *Collector) *chaosCollectorFront {
	t.Helper()
	f := &chaosCollectorFront{}
	f.swap(c)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*f.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *chaosCollectorFront) swap(c *Collector) {
	h := c.Handler()
	f.handler.Store(&h)
}

// chaosEstimates reads both streams' global estimates, reporting ok =
// false while the collector cannot answer yet.
func chaosEstimates(c *Collector) (map[string]GlobalEstimate, bool) {
	out := make(map[string]GlobalEstimate, 2)
	for _, name := range []string{"cum", "win"} {
		est, err := c.Estimate(name)
		if err != nil {
			return nil, false
		}
		out[name] = est
	}
	return out, true
}

// TestChaosConvergenceWithCollectorRestart is the fault-tolerance
// layer's end-to-end acceptance: two agents ship a cumulative AND a
// windowed stream through a seeded 30%-drop + delay fault plan, the
// collector is killed mid-run and revived from its durability snapshot,
// and the revived collector's estimates must converge EXACTLY to the
// no-fault truth within a bounded number of flush ticks — no queues, no
// replay, just cumulative reshipping doing its job.
func TestChaosConvergenceWithCollectorRestart(t *testing.T) {
	clock := withManualEpochs(t)
	dir := t.TempDir()

	collector := NewCollector(CollectorConfig{SnapshotDir: dir})
	front := newChaosFront(t, collector)

	cumCfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 11, Presampled: true, Shards: 2, Batch: 64}
	winCfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 12, Presampled: true, Shards: 2, Batch: 64,
		Window: 2, Epoch: Duration(time.Second)}

	const nAgents = 2
	agents := make([]*Agent, nAgents)
	for i := range agents {
		// Per-agent seeds draw distinct fault sequences from one plan.
		tr := faults.NewTransport(faults.Plan{
			Seed: uint64(100 + i), Drop: 0.3, Delay: 0.2, MaxDelay: 2 * time.Millisecond,
		}, nil)
		a := NewAgent(AgentConfig{
			ID:       fmt.Sprintf("chaos-%d", i),
			Upstream: front.ts.URL,
			Client:   &http.Client{Transport: tr, Timeout: 5 * time.Second},
			// Tight schedule so the bounded-tick budget is wall-clock
			// cheap: one retry, 1ms backoff, breaker probing after 1ms.
			ShipRetries: 1, ShipBackoff: time.Millisecond,
			BreakerThreshold: 3, FlushInterval: time.Millisecond,
		})
		t.Cleanup(a.Close)
		for name, cfg := range map[string]StreamConfig{"cum": cumCfg, "win": winCfg} {
			if err := a.CreateStream(name, cfg); err != nil {
				t.Fatal(err)
			}
		}
		agents[i] = a
	}

	// Phase 1: epochs of ingest with lossy flushes between them, and a
	// collector kill + snapshot-restore midway. Flush errors are the
	// chaos doing its job — ignored.
	const epochs = 4
	chunks := epochChunks(epochs, nAgents, 500)
	ctx := context.Background()
	for e := 0; e < epochs; e++ {
		clock.Set(uint64(e))
		for i, a := range agents {
			for _, name := range []string{"cum", "win"} {
				st, ok := a.lookup(name)
				if !ok {
					t.Fatalf("agent %d lost stream %q", i, name)
				}
				st.run.feed(nil, nil, func(pl *pipe) { pl.FeedCopy(chunks[e][i]) })
			}
		}
		for _, a := range agents {
			_, _ = a.FlushAll(ctx)
		}
		if e == 1 {
			// Kill the collector after checkpointing (a planned restart;
			// Run's shutdown write does the same). Everything shipped
			// after this checkpoint is lost with the process and must be
			// re-converged by the agents' cumulative reships.
			if err := collector.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			collector = NewCollector(CollectorConfig{SnapshotDir: dir})
			front.swap(collector)
		}
	}

	// No-fault truth: each agent's final cumulative state folded into a
	// clean collector directly, bypassing the chaotic network entirely.
	truth := NewCollector(CollectorConfig{})
	for _, a := range agents {
		for _, name := range []string{"cum", "win"} {
			st, _ := a.lookup(name)
			snap, err := st.run.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := truth.Accept(Summary{
				Agent: a.cfg.ID, Stream: name, Boot: a.boot, Seq: 1 << 62,
				Config: st.cfg, Fed: snap.fed, Kept: snap.kept, Epoch: snap.epoch, Payload: snap.payload,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, ok := chaosEstimates(truth)
	if !ok {
		t.Fatal("truth collector cannot estimate")
	}

	// Phase 2: bounded-tick convergence. Each tick is one flush round
	// through the same seeded chaos; the revived collector must reach
	// the exact no-fault estimates within the budget.
	const tickBudget = 30
	converged := -1
	for tick := 0; tick < tickBudget; tick++ {
		for _, a := range agents {
			_, _ = a.FlushAll(ctx)
		}
		if got, ok := chaosEstimates(collector); ok && reflect.DeepEqual(got, want) {
			converged = tick
			break
		}
	}
	if converged < 0 {
		got, _ := chaosEstimates(collector)
		t.Fatalf("no convergence within %d ticks:\n got %+v\nwant %+v", tickBudget, got, want)
	}
	t.Logf("converged after %d post-restart flush ticks", converged+1)

	// The fault plans actually did damage (the run was not a free ride),
	// yet the estimates converged anyway.
	var dropped, forwarded uint64
	for _, a := range agents {
		s := a.cfg.Client.Transport.(*faults.Transport).Stats()
		dropped += s.Dropped
		forwarded += s.Forwarded
	}
	if dropped == 0 {
		t.Fatal("fault plan dropped nothing; the test exercised no chaos")
	}
	if forwarded == 0 {
		t.Fatal("no request survived the fault plan")
	}
}

// TestChaosOutageRevival covers the dead-collector scenario: the
// upstream is fully down for several flush ticks (every ship fails, the
// breaker trips), then revives — and the next successful flush round
// restores exact convergence because summaries are cumulative.
func TestChaosOutageRevival(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	front := newChaosFront(t, collector)

	tr := faults.NewTransport(faults.Plan{Seed: 1}, nil) // no random faults; outage only
	agent := NewAgent(AgentConfig{
		ID: "o", Upstream: front.ts.URL,
		Client:      &http.Client{Transport: tr, Timeout: 5 * time.Second},
		ShipRetries: -1, ShipBackoff: time.Millisecond,
		BreakerThreshold: 2, FlushInterval: time.Millisecond,
	})
	t.Cleanup(agent.Close)
	cfg := StreamConfig{Stat: "f0", P: 0.5, Seed: 3, Presampled: true}
	if err := agent.CreateStream("cum", cfg); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	st, _ := agent.lookup("cum")
	chunks := epochChunks(1, 1, 2000)
	st.run.feed(nil, nil, func(pl *pipe) { pl.FeedCopy(chunks[0][0][:1000]) })
	if _, err := agent.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Outage: k ticks of total loss while ingest continues.
	tr.SetDown(true)
	st.run.feed(nil, nil, func(pl *pipe) { pl.FeedCopy(chunks[0][0][1000:]) })
	for k := 0; k < 5; k++ {
		if _, err := agent.FlushAll(ctx); err == nil {
			t.Fatal("flush succeeded during the outage")
		}
	}
	if !agent.streamDirty("cum") {
		t.Fatal("outage did not mark the stream dirty")
	}

	// Revival: convergence within a couple of ticks (the first may be
	// eaten by a still-open breaker window).
	tr.SetDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _ = agent.FlushAll(ctx)
		snap, err := st.run.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		truth := NewCollector(CollectorConfig{})
		if err := truth.Accept(Summary{Agent: "o", Stream: "cum", Boot: 1, Seq: 1,
			Config: st.cfg, Fed: snap.fed, Kept: snap.kept, Epoch: snap.epoch, Payload: snap.payload}); err != nil {
			t.Fatal(err)
		}
		wantEst, err1 := truth.Estimate("cum")
		gotEst, err2 := collector.Estimate("cum")
		if err1 == nil && err2 == nil && reflect.DeepEqual(gotEst, wantEst) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after revival: got %+v want %+v (%v/%v)", gotEst, wantEst, err2, err1)
		}
	}
	if agent.streamDirty("cum") {
		t.Fatal("stream still dirty after convergence")
	}
}
