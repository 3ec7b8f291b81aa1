package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"substream/internal/estimator"
	"substream/internal/stream"
)

// TestFlushesFoldSettledReplicas is the test -race patrols the Settler
// contract with at the daemon: two goroutines ingest into an exact-fk and
// an `all` stream while a third flushes both and a fourth polls their local
// estimates, so shard workers settle their replicas at barrier after
// barrier with batches queued behind them, and every fold reads replicas
// another goroutine ordered. Only a worker may write its replica: a flush
// that settled one itself, with a batch in flight, is a race here. What the
// streams hold in the end is what one sequential estimator holds — for the
// order-free fk payload, the same bytes.
func TestFlushesFoldSettledReplicas(t *testing.T) {
	collector := NewCollector(CollectorConfig{})
	cts := httptest.NewServer(collector.Handler())
	defer cts.Close()
	agent := NewAgent(AgentConfig{ID: "settler", Upstream: cts.URL})
	defer agent.Close()
	ats := httptest.NewServer(agent.Handler())
	defer ats.Close()

	cfgs := map[string]StreamConfig{
		"fkx": {Stat: "fk", K: 2, P: 1, Seed: 5, Exact: true, Presampled: true, Shards: 2, Batch: 64},
		"all": {Stat: "all", P: 1, Seed: 5, Presampled: true, Shards: 2, Batch: 64, Alpha: 0.1},
	}
	for name, cfg := range cfgs {
		body, _ := json.Marshal(cfg)
		if resp := do(t, http.MethodPut, ats.URL+"/v1/streams/"+name, "application/json", body, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, resp.StatusCode)
		}
	}

	const feeders, posts = 2, 25
	chunks := make([][]stream.Slice, feeders)
	for w := range chunks {
		for i := 0; i < posts; i++ {
			chunks[w] = append(chunks[w], sampledZipf(600, 0.5, uint64(w*1000+i)))
		}
	}
	var ingest, background sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < feeders; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			for _, chunk := range chunks[w] {
				for name := range cfgs {
					resp, err := http.Post(ats.URL+"/v1/streams/"+name+"/ingest", ContentTypeBinary, bytes.NewReader(binBody(chunk)))
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("ingest %s: %v, %v", name, resp, err)
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	until := func(f func()) {
		background.Add(1)
		go func() {
			defer background.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	until(func() {
		if _, err := agent.FlushAll(context.Background()); err != nil {
			t.Errorf("flush under ingest: %v", err)
		}
	})
	until(func() {
		for name := range cfgs {
			resp, err := http.Get(ats.URL + "/v1/streams/" + name + "/estimate")
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("estimate %s under ingest: %v, %v", name, resp, err)
				return
			}
			resp.Body.Close()
		}
	})
	ingest.Wait()
	close(done)
	background.Wait()

	for name, cfg := range cfgs {
		seq, err := estimator.New(cfg.withDefaults().spec())
		if err != nil {
			t.Fatal(err)
		}
		for _, mine := range chunks {
			for _, chunk := range mine {
				seq.UpdateBatch(chunk)
			}
		}
		st, _ := agent.lookup(name)
		snap, err := st.run.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if name == "fkx" { // order-free: the bytes themselves
			if payload, _ := seq.MarshalBinary(); !bytes.Equal(snap.payload, payload) {
				t.Errorf("fkx: payload after the concurrent run differs from the sequential estimator's")
			}
			continue
		}
		got, err := estimator.Decode(snap.payload)
		if err != nil {
			t.Fatal(err)
		}
		have, want := estimator.ReportOf(got).Values, estimator.ReportOf(seq).Values
		for _, value := range []string{"sampled_length", "entropy"} {
			if have[value] != want[value] {
				t.Errorf("all: %s = %v after the concurrent run, sequential %v", value, have[value], want[value])
			}
		}
	}
}

// TestLocalQueryAsksOutsideTheStreamLock: a local query holds the stream
// lock for the quiesce, the fold and the counts, and gives it back before
// it asks — the accumulator is private by then. A predicate that takes the
// lock itself (counts does) therefore returns; it deadlocked while answer
// held the lock through ask, as every ingest handler stalled for the report.
func TestLocalQueryAsksOutsideTheStreamLock(t *testing.T) {
	agent := NewAgent(AgentConfig{ID: "q"})
	if err := agent.CreateStream("bytes", StreamConfig{Stat: "varopt", P: 1, Budget: 64, Presampled: true, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	st, _ := agent.lookup("bytes")
	flows, _ := weightedFlows(500, 1)
	st.run.feed(nil, nil, func(pl *pipe) { pl.FeedWeightedCopy(flows) })

	type result struct {
		ans  answer
		seen uint64
		err  error
	}
	answered := make(chan result, 1)
	go func() {
		var r result
		r.ans, _, _, r.err = st.run.answer(agent.metrics, query{pred: func(stream.Item) bool {
			r.seen, _ = st.run.counts()
			return true
		}})
		answered <- r
	}()
	select {
	case r := <-answered:
		if r.err != nil || !r.ans.ok || r.ans.sum <= 0 || r.seen != uint64(len(flows)) {
			t.Fatalf("answer %+v (err %v), predicate saw %d items fed, want a positive sum and %d", r.ans, r.err, r.seen, len(flows))
		}
		agent.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("the query still holds the stream lock while it asks: its predicate cannot take it")
	}
}
