package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of flushAll's contract now that its streams ship concurrently:
// ships overlap, the breaker's probe still ships alone, and Seq order
// stays snapshot order at the collector when flushes overlap.

// newFlushAgent builds an agent with the named f0 streams and no retries.
func newFlushAgent(t *testing.T, cfg AgentConfig, streams ...string) *Agent {
	t.Helper()
	cfg.ShipRetries = -1
	a := NewAgent(cfg)
	t.Cleanup(a.Close)
	for _, name := range streams {
		if err := a.CreateStream(name, StreamConfig{Stat: "f0", P: 0.5, Presampled: true}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestFlushAllShipsConcurrently holds the first two ship POSTs until both
// have arrived: a flush that ships its streams one after another leaves
// the first waiting alone until the upstream gives up on it with a 503,
// so it fails rather than hangs.
func TestFlushAllShipsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one worker ships the streams one after another")
	}
	var (
		mu      sync.Mutex
		arrived int
		both    = make(chan struct{})
	)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		if arrived++; arrived == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			w.WriteHeader(http.StatusAccepted)
		case <-time.After(5 * time.Second):
			http.Error(w, "no second ship arrived while this one was in flight", http.StatusServiceUnavailable)
		}
	}))
	defer up.Close()
	a := newFlushAgent(t, AgentConfig{ID: "cc", Upstream: up.URL}, "a", "b", "c", "d")
	shipped, err := a.FlushAll(context.Background())
	if err != nil || shipped != 4 {
		t.Fatalf("shipped %d, err %v; want all 4 with two ships in flight at once", shipped, err)
	}
}

// TestFlushAllProbesAloneAfterCooldown trips the breaker, revives the
// upstream and waits out the cooldown: the next flush's first ship is the
// probe, the revived upstream sees it alone until it settles, and the
// same flush then ships every stream.
func TestFlushAllProbesAloneAfterCooldown(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	var (
		down     atomic.Bool
		hits     atomic.Int64
		crowded  atomic.Bool // a second request arrived while the probe was held
		revivedN atomic.Int64
	)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if revivedN.Add(1) == 1 {
			// Hold the probe open long enough for any request sent
			// beside it to arrive.
			time.Sleep(100 * time.Millisecond)
			crowded.Store(revivedN.Load() != 1)
		}
		hits.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer up.Close()
	streams := []string{"a", "b", "c", "d", "e"}
	a := newFlushAgent(t, AgentConfig{ID: "bp", Upstream: up.URL, BreakerThreshold: 1, FlushInterval: cooldown}, streams...)

	down.Store(true)
	if shipped, err := a.FlushAll(context.Background()); err == nil || shipped != 0 {
		t.Fatalf("flush to a downed upstream: shipped %d, err %v", shipped, err)
	}
	if got := a.breaker.snapshot(); got != breakerOpen {
		t.Fatalf("breaker state %d after a failed flush, want open", got)
	}
	down.Store(false)
	// Inside the cooldown every stream fails fast; the upstream sees none.
	if shipped, err := a.FlushAll(context.Background()); err == nil || shipped != 0 || hits.Load() != 0 {
		t.Fatalf("flush inside the cooldown: shipped %d, err %v, upstream hits %d", shipped, err, hits.Load())
	}
	time.Sleep(cooldown + 20*time.Millisecond)
	shipped, err := a.FlushAll(context.Background())
	if err != nil || shipped != len(streams) {
		t.Fatalf("flush after the cooldown: shipped %d, err %v; want every stream", shipped, err)
	}
	if crowded.Load() {
		t.Fatal("the revived upstream saw a second request before the probe settled")
	}
	if got := hits.Load(); got != int64(len(streams)) {
		t.Fatalf("revived upstream saw %d requests, want %d", got, len(streams))
	}
	if got := a.breaker.snapshot(); got != breakerClosed {
		t.Fatalf("breaker state %d after the probe succeeded, want closed", got)
	}
}

// TestCancelledShipsLeaveBreakerClosed cancels a flush while its ship is
// in flight at the upstream, more times than the breaker's threshold. A
// cancelled ship says nothing about the upstream, so the breaker stays
// closed and the next flush, on a live context, ships every stream.
func TestCancelledShipsLeaveBreakerClosed(t *testing.T) {
	const threshold = 2
	var hang atomic.Bool
	arrived := make(chan struct{}, 1)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hang.Load() {
			// Read the body first: only then does the server watch the
			// connection, so that the client's cancel ends r's context.
			io.Copy(io.Discard, r.Body)
			select {
			case arrived <- struct{}{}:
			default:
			}
			<-r.Context().Done()
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer up.Close()
	streams := []string{"a", "b", "c"}
	a := newFlushAgent(t, AgentConfig{ID: "cx", Upstream: up.URL, BreakerThreshold: threshold, FlushInterval: time.Hour}, streams...)
	hang.Store(true)
	for i := range threshold + 1 {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := a.FlushAll(ctx)
			done <- err
		}()
		select {
		case <-arrived:
		case err := <-done:
			t.Fatalf("flush %d ended before a ship reached the upstream: %v", i+1, err)
		}
		cancel()
		if err := <-done; err == nil {
			t.Fatal("a flush cancelled mid-ship reported no error")
		}
	}
	hang.Store(false)
	if got := a.breaker.snapshot(); got != breakerClosed {
		t.Fatalf("breaker state %d after cancelled ships, want closed", got)
	}
	if shipped, err := a.FlushAll(context.Background()); err != nil || shipped != len(streams) {
		t.Fatalf("flush after the cancelled ones: shipped %d, err %v; want every stream", shipped, err)
	}
}

// TestFlushAllOverlapKeepsSeqOrder overlaps Run's ticks with POST
// /v1/flush while the streams are fed, in front of a real collector. Each
// time a stream's retained state changes, its Seq must rise and its fed
// count must not fall (Seq order is snapshot order); after Run's final
// flush the collector retains each stream's last Seq and fed count.
func TestFlushAllOverlapKeepsSeqOrder(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	type retained struct{ seq, fed uint64 }
	var (
		mu   sync.Mutex
		logs = map[string][]retained{}
	)
	inner := col.Handler()
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		mu.Lock()
		defer mu.Unlock()
		col.mu.RLock()
		defer col.mu.RUnlock()
		for name, st := range col.streams {
			if state, ok := st.agents["ov"]; ok {
				now := retained{state.sum.Seq, state.sum.Fed}
				if l := logs[name]; len(l) == 0 || l[len(l)-1] != now {
					logs[name] = append(l, now)
				}
			}
		}
	}))
	defer up.Close()
	streams := []string{"a", "b", "c"}
	a := newFlushAgent(t, AgentConfig{ID: "ov", Upstream: up.URL, FlushInterval: time.Millisecond}, streams...)
	ats := httptest.NewServer(a.Handler())
	defer ats.Close()

	runCtx, stopRun := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- a.Run(runCtx) }()
	ctx, stopLoops := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer stopLoops()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // POST /v1/flush, overlapping the ticks
		defer wg.Done()
		for ctx.Err() == nil {
			resp, err := http.Post(ats.URL+"/v1/flush", "", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	go func() { // ingest, so successive snapshots differ
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			name := streams[i%len(streams)]
			resp, err := http.Post(ats.URL+"/v1/streams/"+name+"/ingest", "text/plain", strings.NewReader(fmt.Sprintf("%d\n%d\n", i, i+1)))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	// Run's final flush ships what the loops left.
	stopRun()
	if err := <-runErr; err != nil {
		t.Fatalf("Run's final flush: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, name := range streams {
		l := logs[name]
		for i := 1; i < len(l); i++ {
			if l[i].seq <= l[i-1].seq || l[i].fed < l[i-1].fed {
				t.Fatalf("stream %q: retained (seq, fed) went %v → %v", name, l[i-1], l[i])
			}
		}
		st, _ := a.lookup(name)
		fed, _ := st.run.counts()
		if len(l) < 2 || l[len(l)-1] != (retained{st.seq, fed}) {
			t.Fatalf("stream %q: collector's last retained %v, want (seq %d, fed %d) after %d changes", name, l[len(l)-1:], st.seq, fed, len(l))
		}
	}
}
