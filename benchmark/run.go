package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"substream/internal/server"
)

// passResult is one pass of one workload: untraced (the end-to-end
// metrics) or traced (the per-layer metrics, spans and budget).
type passResult struct {
	workload string
	values   map[string]float64 // metric name → value, end-to-end or per-layer
	samples  map[string]int     // sample count behind each timing
	tailAt   map[string]float64 // percentile actually reported for each *_p99 metric
	errs     estErrs
	spans    []span
	raw      rawNumbers // traced only: what the budget table is built from
	counts
}

// rawNumbers are the traced pass's measurements the budget needs beside
// the named metrics.
type rawNumbers struct {
	fleet       bool
	bodyItems   float64
	weighted    bool    // the ingest lane is weighted text
	updateNs    float64 // estimator.update ns/item of the ingest stream's own spec
	postP50Ns   float64 // ingest POST round trip
	fixedNs     float64 // an empty body through ServeHTTP in memory
	freshMeanMs float64 // mean freshness sample
}

// phaseTimes derives the phase lengths from the measured window length.
type phaseTimes struct{ warm, window, tailWarm, tail time.Duration }

func phasesFor(window time.Duration) phaseTimes {
	p := phaseTimes{window: window}
	p.warm = min(max(window/5, 100*time.Millisecond), 3*time.Second)
	// The ship/query tail of an ingest workload is as long as the window:
	// shipping a 4M-item stream's exact or Monitor state takes a third of
	// a second, and two dozen freshness samples are what a median that
	// repeats within a tenth costs.
	p.tail = window
	p.tailWarm = min(window/5, time.Second)
	return p
}

// runPass sets the workload up, runs its phases, checks the outputs and
// derives the pass's metrics.
func runPass(def *workloadDef, sc scale, seed uint64, window time.Duration, traced bool, progress io.Writer) (*passResult, error) {
	res := &passResult{workload: def.name,
		values: map[string]float64{}, samples: map[string]int{}, tailAt: map[string]float64{}}
	ph := phasesFor(window)

	// Set-up, several times: setup_s is the median, the last one is used.
	setups := sc.setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			// Drop the previous system whole before timing the next one, so
			// every repetition starts from the same heap.
			e.tearDown()
			e = nil
			runtime.GC()
		}
		var err error
		if e, err = setUp(def, sc, seed, traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, e.setupS)
	}
	defer e.tearDown()
	res.values["setup_s"] = median(setupS)
	res.samples["setup_s"] = len(setupS)
	fmt.Fprintf(progress, "  %s: set up %d× (median %.2fs), measuring %v\n", def.name, setups, median(setupS), window)

	// Phases. The traced pass also polls agent 0's queue depth throughout.
	var ing ingestResult
	var loop loopResult
	var maxQueue float64
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			maxQueue = e.pollQueueLen(stop)
		}()
	}
	if def.fleet {
		loop = e.shipQueryLoop(ph.warm, ph.window, true)
	} else {
		ing = e.closedLoop(def.streams[0].name, ingestConns, ph.warm, ph.window)
		loop = e.shipQueryLoop(ph.tailWarm, ph.tail, false)
	}
	close(stop)
	pollWG.Wait()
	heap := liveHeap()
	res.counts.merge(ing.counts)
	res.counts.merge(loop.counts)

	chk := e.check()
	res.counts.merge(chk.counts)
	res.errs = chk.errs

	// End-to-end metrics.
	v := res.values
	ingLat := msOf(ing.latNs...)
	if def.fleet {
		ingLat = msOf(loop.ingestNs)
		v["ingest_items_per_s"] = float64(loop.ingestItems) / loop.windowSec
		v["alloc_bytes_per_item"] = float64(loop.mem.bytes) / float64(loop.ingestItems)
	} else {
		v["ingest_items_per_s"] = sliceMedian(ing.slices, ing.sliceSec)
		fmt.Fprintf(progress, "  %s: items acknowledged per %.2gs slice: %.0f\n", def.name, ing.sliceSec, ing.slices)
		v["alloc_bytes_per_item"] = ing.allocPerItem()
	}
	fresh, refresh := msOf(loop.freshNs), msOf(loop.refreshNs)
	v["ingest_req_p50_ms"] = percentile(ingLat, 0.5)
	v["fresh_p50_ms"] = percentile(fresh, 0.5)
	v["query_refresh_p50_ms"] = percentile(refresh, 0.5)
	v["collect_summaries_per_s"] = float64(loop.summaries) / loop.windowSec
	v["summary_wire_bytes"] = loop.wireBytes
	v["live_heap_mb"] = (float64(heap) - float64(e.heapBase)) / (1 << 20)
	res.samples["ingest_req_p50_ms"] = len(ingLat)
	res.samples["fresh_p50_ms"] = len(fresh)
	res.samples["query_refresh_p50_ms"] = len(refresh)
	res.samples["collect_summaries_per_s"] = int(loop.summaries)

	if !traced {
		return res, nil
	}

	// Per-layer metrics that depend on the workload's own traffic.
	tailOf := func(name string, s []float64) {
		v[name], res.tailAt[name] = tail(s, 0.99)
		res.samples[name] = len(s)
	}
	tailOf("loadgen.ingest_req_p99_ms", ingLat)
	tailOf("loadgen.fresh_p99_ms", fresh)
	tailOf("loadgen.query_refresh_p99_ms", refresh)
	tailOf("loadgen.query_lateness_p99_ms", msOf(loop.latenessNs))

	c := newClient()
	defer c.close()
	a0 := e.agents[0]
	panel, err := metricsz(c, a0.srv.URL())
	if err != nil {
		return nil, fmt.Errorf("agent /metricsz: %w", err)
	}
	ingested := num(panel, "ingest_items")
	decodeSum := histSum(panel, "ingest_decode_seconds")
	feedSum := histSum(panel, "shard_feed_seconds")
	v["server.decode_ns_per_item"] = decodeSum * 1e9 / ingested
	v["server.feed_ns_per_item"] = feedSum * 1e9 / ingested
	v["pipeline.sync_wait_s"] = sumPrefix(panel, "agent_pipeline_sync_wait_seconds")
	v["pipeline.kept_ratio"] = sumPrefix(panel, "agent_stream_kept") / sumPrefix(panel, "agent_stream_fed")
	v["pipeline.queue_len_max"] = maxQueue
	var ingestErrs, shipErrs, retries float64
	for _, ap := range e.agents {
		p, err := metricsz(c, ap.srv.URL())
		if err != nil {
			return nil, fmt.Errorf("%s /metricsz: %w", ap.id, err)
		}
		ingestErrs += num(p, "ingest_errors")
		r := num(p, `ship_errors{cause="retry"}`)
		retries += r
		shipErrs += num(p, "ship_errors") - r
	}
	v["server.ingest_errors"] = ingestErrs
	v["server.ship_errors"] = shipErrs
	v["server.ship_retries"] = retries
	t0 := time.Now()
	cpanel, err := metricsz(c, e.collSrv.URL())
	v["obs.metricsz_render_ms"] = sinceMs(t0)
	if err != nil {
		return nil, fmt.Errorf("collector /metricsz: %w", err)
	}
	v["server.collect_rejects"] = num(cpanel, "summaries_rejected")
	if def.fleet {
		v["server.allocs_per_req"] = float64(loop.mem.mallocs) / float64(len(loop.ingestNs)+len(loop.flushNs)+len(loop.estimateNs))
	} else {
		v["server.allocs_per_req"] = float64(ing.mem.mallocs) / float64(ing.reqs)
	}

	// Ship/fold timings, from the daemon's own spans joined into the trace.
	byName := map[string][]float64{}
	for _, s := range e.rec.snapshot() {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e6)
	}
	p50 := func(metric string, names ...string) {
		var all []float64
		for _, n := range names {
			all = append(all, byName[n]...)
		}
		v[metric] = median(all)
		res.samples[metric] = len(all)
	}
	p50("server.flush_ms_p50", "flush")
	p50("server.ship_snapshot_ms_p50", "marshal")
	p50("server.ship_post_ms_p50", "ship_post")
	p50("server.collect_decode_ms_p50", "collect_decode")
	p50("server.collect_fold_ms_p50", "fold")
	p50("server.estimate_http_ms_p50", "estimate", "estimate_http")
	snap := append(msOf(loop.snapshotNs), chk.snapshotMs)
	v["server.snapshot_write_ms_p50"] = median(snap)
	res.samples["server.snapshot_write_ms_p50"] = len(snap)
	v["server.snapshot_bytes"] = chk.snapshotBytes
	v["server.snapshot_restore_ms"] = chk.restoreMs

	// Replays: the same bodies through Handler().ServeHTTP with no socket,
	// and over the socket to a handler that does nothing, at the
	// concurrency the POSTs ran at.
	rp, err := e.replayHandler(ph)
	if err != nil {
		return nil, err
	}
	perBody := float64(def.bodyItems)
	postP50 := percentile(ingLat, 0.5) * 1e6 // ns
	v["server.handler_ns_per_item"] = rp.handlerNs / perBody
	v["server.socket_ns_per_item"] = rp.socketNs / perBody
	v["server.handler_fixed_ns_per_req"] = rp.fixedNs
	v["server.obs_tax_ns_per_req"] = rp.obsTaxNs
	var freshSum float64
	for _, f := range fresh {
		freshSum += f
	}
	res.raw = rawNumbers{fleet: def.fleet, bodyItems: perBody, weighted: def.streams[0].weighted,
		postP50Ns: postP50, fixedNs: rp.fixedNs,
		freshMeanMs: freshSum / float64(len(fresh))}

	// The daemons are done; the layer micro-benchmarks get the machine.
	e.tearDown()
	micro, microItems, err := microSuite(seed, sc, e.rec)
	if err != nil {
		return nil, fmt.Errorf("%s: layer micro-benchmarks: %w", def.name, err)
	}
	for k, x := range micro {
		v[k] = x
	}
	// The budget's update row prices the workload's own stream kind
	// (ingest_bin_sampled's exact backend is not the level-set one the
	// per-stat layer metrics cover).
	cfg := def.streams[0].cfg
	if res.raw.updateNs, _, err = updateCost(specOf(cfg), microItems[:min(len(microItems), 1<<18)], e.rec); err != nil {
		return nil, err
	}
	res.spans = e.rec.snapshot()
	return res, nil
}

// pollQueueLen samples agent 0's pipeline queue gauges in-process until
// stop closes and returns the deepest occupancy seen. It costs the agent
// one runner-lock acquisition per poll, only in the traced pass.
func (e *env) pollQueueLen(stop <-chan struct{}) float64 {
	var deepest float64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	reg := e.agents[0].agent.Metrics().Registry()
	for {
		select {
		case <-stop:
			return deepest
		case <-tick.C:
			var buf bytes.Buffer
			var panel map[string]any
			if reg.WriteJSON(&buf) == nil && json.Unmarshal(buf.Bytes(), &panel) == nil {
				deepest = max(deepest, sumPrefix(panel, "agent_pipeline_queue_len"))
			}
		}
	}
}

// replay is what the in-memory handler replays measured, per request.
type replay struct {
	socketNs  float64 // p50 round trip of a workload body POSTed to a handler that only drains it
	handlerNs float64 // p50 ServeHTTP wall time of a workload body
	fixedNs   float64 // p50 ServeHTTP wall time of an empty body: mux, accounting, response
	obsTaxNs  float64 // handler p50 at ObsSampleEvery 1 minus at the default 64
}

// replayHandler measures the agent's ingest handler without the socket.
// The live agent (traced, every request observed) serves the workload's
// own bodies from as many goroutines as the POSTs used; two fresh agents
// differing only in ObsSampleEvery price the instrumentation.
func (e *env) replayHandler(ph phaseTimes) (replay, error) {
	dur := min(max(ph.window/8, 50*time.Millisecond), time.Second)
	conns := ingestConns
	if e.def.fleet {
		conns = 1
	}
	var out replay
	live := e.agents[0].agent.Handler()
	lat, err := e.replayOn(live, conns, dur, false)
	if err != nil {
		return out, err
	}
	out.handlerNs = median(lat)
	if lat, err = e.nullPost(conns, dur); err != nil {
		return out, err
	}
	out.socketNs = median(lat)
	if lat, err = e.replayOn(live, 1, dur/4, true); err != nil {
		return out, err
	}
	out.fixedNs = median(lat)

	var p50 [2]float64
	for i, every := range []int{1, 64} {
		agent := server.NewAgent(server.AgentConfig{ID: "replay", ObsSampleEvery: every})
		for _, s := range e.def.streams {
			cfg := s.cfg
			cfg.SampleSeed = subSeed(e.seed, "coins/replay/"+s.name)
			if err := agent.CreateStream(s.name, cfg); err != nil {
				agent.Close()
				return out, err
			}
		}
		lat, err := e.replayOn(agent.Handler(), conns, dur, false)
		agent.Close()
		if err != nil {
			return out, err
		}
		p50[i] = median(lat)
	}
	out.obsTaxNs = p50[0] - p50[1]
	return out, nil
}

// replayOn serves loop bodies (or empty ones) through h from conns
// goroutines for dur and returns the per-request handler times in ns.
// The send logs are not touched: replays run after the checks.
func (e *env) replayOn(h http.Handler, conns int, dur time.Duration, empty bool) ([]float64, error) {
	return e.replayLanes(conns, dur, func() (func(s streamDef, f *feed, body []byte) (time.Duration, error), func()) {
		return func(s streamDef, f *feed, body []byte) (time.Duration, error) {
			items := f.set.per
			if empty {
				body, items = nil, 0
			}
			t0 := time.Now()
			d, err := serveInMemory(h, "/v1/streams/"+s.name+"/ingest", f.set.ctype, body)
			e.rec.record("ServeHTTP", t0, 0, 0, items)
			return d, err
		}, func() {}
	})
}

// nullPost POSTs the same bodies, from the same number of connections,
// to a throwaway daemon whose handler only drains the body and
// acknowledges: the round trip of the transport alone — client, loopback
// TCP, net/http on both sides, the kernel copies — with no ingest behind it.
func (e *env) nullPost(conns int, dur time.Duration) ([]float64, error) {
	srv, err := server.Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short read shows up as the client's error
		_, _ = io.WriteString(w, `{"ingested":0}`+"\n")
	}))
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // throwaway daemon
	return e.replayLanes(conns, dur, func() (func(s streamDef, f *feed, body []byte) (time.Duration, error), func()) {
		c := newClient()
		return func(_ streamDef, f *feed, body []byte) (time.Duration, error) {
			t0 := time.Now()
			_, _, err := postIngest(c, srv.URL(), f.set.ctype, body)
			e.rec.record("null_post", t0, 0, 0, 0)
			return time.Since(t0), err
		}, c.close
	})
}

// replayLanes runs conns goroutines for dur, each cycling through the
// loop bodies of the workload's streams the way the ship/query loop
// does, and returns every call's duration in ns, ascending. lane builds
// one goroutine's call and its clean-up.
func (e *env) replayLanes(conns int, dur time.Duration, lane func() (func(s streamDef, f *feed, body []byte) (time.Duration, error), func())) ([]float64, error) {
	lanes := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call, done := lane()
			defer done()
			for k := g; time.Now().Before(end); k += conns {
				s := e.def.streams[k%len(e.def.streams)]
				f := e.loop[s.name]
				d, err := call(s, f, f.set.bodies[(k/len(e.def.streams))%len(f.set.bodies)])
				if err != nil {
					errs[g] = err
					return
				}
				lanes[g] = append(lanes[g], float64(d.Nanoseconds()))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for g := range lanes {
		if errs[g] != nil {
			return nil, errs[g]
		}
		all = append(all, lanes[g]...)
	}
	sort.Float64s(all)
	return all, nil
}
