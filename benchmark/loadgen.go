package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// The load generator runs in the benchmark's own process and never uses
// more than this many goroutines/connections at once: the closed-loop
// phase runs ingestConns POST loops, the ship/query loop runs one driver
// and one dashboard goroutine.
const ingestConns = 2

// windowSlices is how many equal slices a measured window is cut into;
// throughputs are the median slice.
const windowSlices = 10

// counts is the attempted/failed tally every phase and check feeds.
type counts struct {
	attempted, failed int64
	notes             []string // first few failure descriptions, for the report
}

func (c *counts) ok() { c.attempted++ }

func (c *counts) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *counts) merge(o counts) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 8 {
			c.notes = append(c.notes, n)
		}
	}
}

// memWindow is the allocator's activity across a measured window.
type memWindow struct{ bytes, mallocs uint64 }

func memDelta(a, b *runtime.MemStats) memWindow {
	return memWindow{bytes: b.TotalAlloc - a.TotalAlloc, mallocs: b.Mallocs - a.Mallocs}
}

// ingestResult is what a closed-loop ingest window measured.
type ingestResult struct {
	latNs    [][]int64 // POST round trips that started and ended in the window, per connection
	slices   []float64 // items acknowledged per slice (see credit)
	sliceSec float64
	reqs     uint64
	mem      memWindow   // allocator activity over the whole window
	sliceMem []memWindow // and per slice
	counts
}

// allocPerItem is the median over slices of bytes allocated per item
// acknowledged. The daemon's allocations arrive in lumps — a 64 KiB chunk
// buffer whenever a pool runs dry — and a few lumps in one second move a
// whole-window mean by a fifth; they do not move the median slice.
func (r *ingestResult) allocPerItem() float64 {
	var per []float64
	for i, m := range r.sliceMem {
		if r.slices[i] > 0 {
			per = append(per, float64(m.bytes)/r.slices[i])
		}
	}
	return median(per)
}

// Sample buffers are allocated in set-up, before the live-heap baseline
// is read, and never grow: what the harness remembers must not read as
// memory the system holds, and a faster system must not look fatter for
// having produced more samples. Past a cap samples are still counted,
// only their latency is not kept (a connection would need 50k requests/s
// over a 10 s window to get there).
const (
	maxLatSamples  = 1 << 19 // per closed-loop connection
	maxLoopSamples = 1 << 16 // per ship/query-loop timing
)

// sampleBufs is the harness's preallocated sample memory.
type sampleBufs struct {
	lanes [ingestConns][]int64
	loop  [7][]int64
}

func newSampleBufs() *sampleBufs {
	b := &sampleBufs{}
	for i := range b.lanes {
		b.lanes[i] = make([]int64, 0, maxLatSamples)
	}
	for i := range b.loop {
		b.loop[i] = make([]int64, 0, maxLoopSamples)
	}
	return b
}

// keep appends v unless the buffer is full.
func keep(buf []int64, v int64) []int64 {
	if len(buf) < cap(buf) {
		buf = append(buf, v)
	}
	return buf
}

// closedLoop drives conns connections, each POSTing its next body as
// soon as the previous one is acknowledged, for warm+measure. Connection
// g cycles through the g-th contiguous share of the body set, so
// together they replay the whole logical stream and each body's send
// count has one writer.
func (e *env) closedLoop(stream string, conns int, warm, measure time.Duration) ingestResult {
	f := e.loop[stream]
	url := e.agents[0].ingestURL(stream)
	nb := len(f.set.bodies)
	res := ingestResult{slices: make([]float64, windowSlices), sliceSec: measure.Seconds() / windowSlices}
	type lane struct {
		lat    []int64
		slices []float64
		reqs   uint64
		counts
	}
	lanes := make([]*lane, conns)
	for g := range lanes {
		lanes[g] = &lane{lat: e.bufs.lanes[g%len(e.bufs.lanes)][:0], slices: make([]float64, windowSlices)}
	}
	start := time.Now()
	winLo, winHi := start.Add(warm), start.Add(warm+measure)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := lanes[g]
			c := newClient()
			defer c.close()
			lo, hi := nb*g/conns, nb*(g+1)/conns
			b := lo
			for {
				t0 := time.Now()
				if !t0.Before(winHi) {
					return
				}
				n, reqID, err := postIngest(c, url, f.set.ctype, f.set.bodies[b])
				t1 := time.Now()
				if err != nil || n != f.set.per {
					ln.fail("ingest %s body %d: acknowledged %d of %d: %v", stream, b, n, f.set.per, err)
				} else {
					ln.ok()
					f.sent[b]++
					credit(ln.slices, measure/windowSlices, t0.Sub(winLo), t1.Sub(winLo), float64(n))
					if !t0.Before(winLo) && t1.Before(winHi) {
						ln.lat = keep(ln.lat, t1.Sub(t0).Nanoseconds())
						ln.reqs++
					}
					if e.rec != nil {
						e.rec.add(span{Name: "post", Start: e.rec.since(t0), End: e.rec.since(t1), Req: reqID, Stream: stream, Items: n})
					}
				}
				if b++; b >= hi {
					b = lo
				}
			}
		}()
	}
	// The coordinator only reads allocator counters, at the slice edges.
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(winLo))
	runtime.ReadMemStats(&m0)
	prev := m0
	for i := 1; i <= windowSlices; i++ {
		time.Sleep(time.Until(winLo.Add(time.Duration(i) * measure / windowSlices)))
		runtime.ReadMemStats(&m1)
		res.sliceMem = append(res.sliceMem, memDelta(&prev, &m1))
		prev = m1
	}
	wg.Wait()
	res.mem = memDelta(&m0, &m1)
	for _, ln := range lanes {
		res.latNs = append(res.latNs, ln.lat)
		res.reqs += ln.reqs
		for i, v := range ln.slices {
			res.slices[i] += v
		}
		res.counts.merge(ln.counts)
	}
	return res
}

// credit spreads n items evenly over the request interval [t0, t1)
// (offsets from the window start) and adds to each slice the part that
// falls inside it. Counting a request whole in the slice it finished in
// would quantise a slice to whole bodies — 2% steps at fifty 65536-item
// requests a second — and the median slice would jump between steps.
func credit(slices []float64, sliceLen, t0, t1 time.Duration, n float64) {
	if t1 <= t0 {
		t1 = t0 + 1
	}
	perNs := n / float64(t1-t0)
	for i := max(int(t0/sliceLen), 0); i < len(slices); i++ {
		lo, hi := max(t0, time.Duration(i)*sliceLen), min(t1, time.Duration(i+1)*sliceLen)
		if hi <= lo {
			if lo >= t1 {
				break
			}
			continue
		}
		slices[i] += perNs * float64(hi-lo)
	}
}

// loopResult is what a ship/query loop window measured.
type loopResult struct {
	freshNs    []int64 // flush sent → collector estimate reflecting it returned
	refreshNs  []int64 // dashboard refresh, from its due time
	latenessNs []int64 // how late each refresh started
	ingestNs   []int64 // the loop's own small ingest POSTs
	flushNs    []int64 // POST /v1/flush round trips
	snapshotNs []int64 // Collector.SaveSnapshot calls
	estimateNs []int64 // the freshness probe's estimate GET alone

	summaries   uint64  // accepted by the collector in the window
	ingestItems uint64  // acknowledged by the loop's POSTs in the window
	windowSec   float64 // first measured cycle start → last measured cycle end
	wireBytes   float64 // mean /v1/collect body bytes per summary, whole loop
	mem         memWindow
	counts
}

// estimateResp is the collector's estimate envelope, as far as the
// harness reads it.
type estimateResp struct {
	Agents    int    `json:"agents"`
	Fed       uint64 `json:"fed"`
	Estimates struct {
		Values    map[string]float64 `json:"values"`
		F1Hitters []struct {
			Item uint64
			Freq float64
		} `json:"f1_hitters"`
	} `json:"estimates"`
}

type subsetResp struct {
	Agents    int     `json:"agents"`
	SubsetSum float64 `json:"subset_sum"`
}

// shipQueryLoop runs the ship→fold→query half of the system for
// warm+measure with two goroutines.
//
// The driver (closed loop) cycles: one small ingest into every stream of
// agent 0 → POST /v1/flush on agent 0 → GET the probe stream's estimate
// from the collector and assert it reflects the new fed total (one
// freshness sample) → FlushAll on the next other agent, round-robin →
// every 10th cycle Collector.SaveSnapshot.
//
// A dashboard refresh is one estimate per unweighted stream and one
// subset-sum per weighted stream. In the fleet workload the dashboard is
// its own open-loop goroutine, refreshing every refreshEvery and timed
// from each refresh's due time, so a stall charges every refresh it
// delays and collects (writes) run beside estimates (reads). In an
// ingest workload's tail (openLoop false) the driver itself refreshes
// once per cycle, timed from when it sends: one agent's sub-millisecond
// queries racing the driver for a CPU flip between two modes from run
// to run, and a median that flips cannot be gated.
func (e *env) shipQueryLoop(warm, measure time.Duration, openLoop bool) loopResult {
	b := &e.bufs.loop
	res := loopResult{freshNs: b[0][:0], refreshNs: b[1][:0], latenessNs: b[2][:0], ingestNs: b[3][:0],
		flushNs: b[4][:0], snapshotNs: b[5][:0], estimateNs: b[6][:0]}
	a0 := e.agents[0]
	collURL := e.collSrv.URL()
	driver := newClient()
	defer driver.close()

	// expect[stream] is the fleet-wide fed total the collector must report
	// once it has folded agent 0's latest flush.
	expect := map[string]uint64{}
	for _, ap := range e.agents {
		for _, s := range e.def.streams {
			expect[s.name] += ap.fed(s.name)
		}
	}
	cursor := 0
	ingestAll := func(measured bool) {
		for _, s := range e.def.streams {
			f := e.loop[s.name]
			b := cursor % len(f.set.bodies)
			t0 := time.Now()
			n, reqID, err := postIngest(driver, a0.ingestURL(s.name), f.set.ctype, f.set.bodies[b])
			if err != nil || n != f.set.per {
				res.fail("loop ingest %s body %d: acknowledged %d of %d: %v", s.name, b, n, f.set.per, err)
				continue
			}
			res.ok()
			f.sent[b]++
			expect[s.name] += uint64(n)
			e.rec.record("post", t0, 0, reqID, n)
			if measured {
				res.ingestNs = keep(res.ingestNs, time.Since(t0).Nanoseconds())
				res.ingestItems += uint64(n)
			}
		}
		cursor++
	}
	// flushProbe ships agent 0 and waits for the collector to answer with
	// the new total: one freshness sample.
	flushProbe := func(measured bool) {
		var shipped struct {
			Shipped int `json:"shipped"`
		}
		t0 := time.Now()
		status, reqID, data, err := driver.do(http.MethodPost, a0.srv.URL()+"/v1/flush", "", nil)
		t1 := time.Now()
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &shipped) != nil || shipped.Shipped != len(e.def.streams) {
			res.fail("flush a00: status %d shipped %d: %v %s", status, shipped.Shipped, err, data)
			return
		}
		res.ok()
		e.joinShip(e.rec.record("flush", t0, 0, reqID, 0), a0)
		var est estimateResp
		err = driver.getJSON(collURL+"/v1/streams/"+e.def.probe+"/estimate", &est)
		t2 := time.Now()
		if err != nil || est.Fed != expect[e.def.probe] {
			res.fail("freshness probe %s: fed %d, want %d: %v", e.def.probe, est.Fed, expect[e.def.probe], err)
			return
		}
		res.ok()
		e.rec.record("estimate", t1, 0, 0, 0)
		if measured {
			res.summaries += uint64(shipped.Shipped)
			res.flushNs = keep(res.flushNs, t1.Sub(t0).Nanoseconds())
			res.estimateNs = keep(res.estimateNs, t2.Sub(t1).Nanoseconds())
			res.freshNs = keep(res.freshNs, t2.Sub(t0).Nanoseconds())
		}
	}

	// Prime: after this the collector knows every stream, so the
	// dashboard's first refresh cannot 404.
	ingestAll(false)
	flushProbe(false)

	in0, bytes0 := e.coll.Metrics().SummariesIn.Value(), e.coll.Metrics().SummaryBytesIn.Value()
	start := time.Now()
	winLo, winHi := start.Add(warm), start.Add(warm+measure)

	var wg sync.WaitGroup
	dash := loopResult{refreshNs: res.refreshNs, latenessNs: res.latenessNs}
	if openLoop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.dashboard(&dash, start, winLo, winHi)
		}()
	}

	var m0, m1 runtime.MemStats
	var firstMeasured, lastMeasured time.Time
	next := 1 % len(e.agents)
	for cycle := 0; ; cycle++ {
		t0 := time.Now()
		if !t0.Before(winHi) {
			break
		}
		measured := !t0.Before(winLo)
		if measured && firstMeasured.IsZero() {
			firstMeasured = t0
			runtime.ReadMemStats(&m0)
		}
		ingestAll(measured)
		flushProbe(measured)
		if !openLoop {
			if t := time.Now(); e.refresh(driver, &res.counts) && measured {
				res.refreshNs = keep(res.refreshNs, time.Since(t).Nanoseconds())
				res.latenessNs = keep(res.latenessNs, 0)
			}
		}
		if len(e.agents) > 1 {
			ap := e.agents[next]
			if next = (next + 1) % len(e.agents); next == 0 {
				next = 1
			}
			t := time.Now()
			n, err := ap.agent.FlushAll(context.Background())
			if err != nil || n != len(e.def.streams) {
				res.fail("FlushAll %s: shipped %d: %v", ap.id, n, err)
			} else {
				res.ok()
				e.joinShip(e.rec.record("flush_all", t, 0, 0, 0), ap)
				if measured {
					res.summaries += uint64(n)
				}
			}
		}
		if cycle%10 == 9 {
			t := time.Now()
			if err := e.coll.SaveSnapshot(); err != nil {
				res.fail("SaveSnapshot: %v", err)
			} else {
				res.ok()
				e.rec.record("snapshot", t, 0, 0, 0)
				if measured {
					res.snapshotNs = keep(res.snapshotNs, time.Since(t).Nanoseconds())
				}
			}
		}
		if measured {
			lastMeasured = time.Now()
		}
	}
	runtime.ReadMemStats(&m1)
	wg.Wait()

	res.mem = memDelta(&m0, &m1)
	res.windowSec = lastMeasured.Sub(firstMeasured).Seconds()
	if n := e.coll.Metrics().SummariesIn.Value() - in0; n > 0 {
		res.wireBytes = float64(e.coll.Metrics().SummaryBytesIn.Value()-bytes0) / float64(n)
	}
	if openLoop {
		res.refreshNs, res.latenessNs = dash.refreshNs, dash.latenessNs
		res.counts.merge(dash.counts)
	}
	return res
}

// refresh performs one dashboard refresh over c and reports whether
// every query succeeded.
func (e *env) refresh(c *client, tally *counts) bool {
	collURL := e.collSrv.URL()
	okAll := true
	for _, s := range e.def.streams {
		var err error
		t := time.Now()
		if s.weighted {
			var r subsetResp
			err = c.getJSON(collURL+"/v1/subsetsum?stream="+s.name+"&prefix="+subsetPrefix, &r)
			e.rec.record("subsetsum_http", t, 0, 0, 0)
		} else {
			var r estimateResp
			err = c.getJSON(collURL+"/v1/streams/"+s.name+"/estimate", &r)
			e.rec.record("estimate_http", t, 0, 0, 0)
		}
		if err != nil {
			tally.fail("dashboard %s: %v", s.name, err)
			okAll = false
		} else {
			tally.ok()
		}
	}
	return okAll
}

// dashboard is the open-loop query goroutine of shipQueryLoop: refresh k
// is due at start + k·refreshEvery whatever happened to refresh k−1.
func (e *env) dashboard(res *loopResult, start, winLo, winHi time.Time) {
	c := newClient()
	defer c.close()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * e.def.refreshEvery)
		if !due.Before(winHi) {
			return
		}
		time.Sleep(time.Until(due))
		begin := time.Now()
		if e.refresh(c, &res.counts) && !due.Before(winLo) {
			res.refreshNs = keep(res.refreshNs, time.Since(due).Nanoseconds())
			res.latenessNs = keep(res.latenessNs, begin.Sub(due).Nanoseconds())
		}
	}
}

// joinShip joins the ship/fold spans agent ap and the collector recorded
// for the shipment the harness span parent caused.
func (e *env) joinShip(parent uint64, ap *agentProc) {
	if e.rec != nil {
		e.rec.joinDaemon(parent, ap.agent.Metrics().Trace.Snapshot(), e.coll.Metrics().Trace.Snapshot())
	}
}
