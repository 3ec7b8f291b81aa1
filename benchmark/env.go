package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"substream/internal/server"
)

// client is one load-generator connection: its own transport, so a
// goroutine that owns a client owns exactly one keep-alive connection
// per daemon it talks to.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do performs one request and returns the status, the daemon's
// X-Request-Id (0 if absent) and the whole response body.
func (c *client) do(method, url, ctype string, body []byte) (int, uint64, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	id, _ := strconv.ParseUint(resp.Header.Get("X-Request-Id"), 10, 64)
	return resp.StatusCode, id, data, err
}

// getJSON GETs url and decodes a 200 response into v.
func (c *client) getJSON(url string, v any) error {
	status, _, data, err := c.do(http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// tap is the RoundTripper an agent ships through. It forwards untouched;
// while capturing (only during the final correctness flush) it also
// keeps each /v1/collect body, so the harness can fold the very payloads
// the collector received and compare answers.
type tap struct {
	rt http.RoundTripper

	mu      sync.Mutex
	capture bool
	bodies  [][]byte
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	capture := t.capture
	t.mu.Unlock()
	if capture && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			if b, err := io.ReadAll(rc); err == nil {
				t.mu.Lock()
				t.bodies = append(t.bodies, b)
				t.mu.Unlock()
			}
			rc.Close()
		}
	}
	return t.rt.RoundTrip(req)
}

func (t *tap) setCapture(on bool) {
	t.mu.Lock()
	t.capture = on
	t.mu.Unlock()
}

// feed is the send log of one body set into one stream of one agent:
// how often each body was acknowledged. Exact truth is the per-body
// frequencies times these counts.
type feed struct {
	set  *bodySet
	sent []uint64
}

func newFeed(set *bodySet) *feed { return &feed{set: set, sent: make([]uint64, len(set.bodies))} }

func (f *feed) items() uint64 {
	var n uint64
	for _, c := range f.sent {
		n += c * uint64(f.set.per)
	}
	return n
}

// agentProc is one in-process agent daemon behind a real listener.
type agentProc struct {
	id    string
	agent *server.Agent
	srv   *server.Server
	tap   *tap
	feeds map[string][]*feed // by stream name
}

func (a *agentProc) ingestURL(stream string) string {
	return a.srv.URL() + "/v1/streams/" + stream + "/ingest"
}

// fed returns how many items the harness had acknowledged into stream.
func (a *agentProc) fed(stream string) uint64 {
	var n uint64
	for _, f := range a.feeds[stream] {
		n += f.items()
	}
	return n
}

// env is one set-up system under test: the generated inputs, the agents
// and the collector, all started in-process with server.Start on
// loopback and driven over real HTTP.
type env struct {
	def  *workloadDef
	seed uint64
	rec  *recorder // nil unless traced

	in      *inputs
	tmp     string
	agents  []*agentProc
	coll    *server.Collector
	collSrv *server.Server

	// loop[stream] is agent 0's feed the measured phases ingest through.
	loop map[string]*feed

	bufs     *sampleBufs
	heapBase uint64 // live heap with inputs and sample buffers built and no daemon started
	setupS   float64
}

// liveHeap returns HeapAlloc after two collections: two, because the
// first only moves sync.Pool contents to the victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp generates the workload's inputs from seed, starts the daemons,
// creates and preloads the streams. Everything a measured request needs
// exists when it returns; its wall time is one setup_s sample.
func setUp(def *workloadDef, sc scale, seed uint64, traced bool) (*env, error) {
	start := time.Now()
	e := &env{def: def, seed: seed, loop: map[string]*feed{}}
	if traced {
		e.rec = newRecorder()
	}
	nAgents := 1
	if def.fleet {
		nAgents = sc.fleetAgents
	}

	// Inputs: the logical stream, then its wire forms.
	e.in = &inputs{items: genItems(seed, sc.streamLen)}
	anyWeighted := false
	for _, s := range def.streams {
		anyWeighted = anyWeighted || s.weighted
	}
	if anyWeighted {
		e.in.weights = genWeights(seed, sc.streamLen)
	}
	preload := 0
	if def.fleet {
		preload = sc.fleetPreload
	}
	loopLo := nAgents * preload
	// One encoded body set per wire form, shared by every stream using it.
	loopSets := map[bool]*bodySet{}
	for _, s := range def.streams {
		if loopSets[s.weighted] == nil {
			loopSets[s.weighted] = newBodySet(e.in, loopLo, sc.streamLen, def.bodyItems, s.weighted)
		}
	}
	if n := len(loopSets[def.streams[0].weighted].bodies); n < 2 {
		return nil, fmt.Errorf("%s: scale too small: %d bodies of %d items", def.name, n, def.bodyItems)
	}
	preSets := make([]map[bool]*bodySet, nAgents)
	if preload > 0 {
		const preloadBodies = 4
		for a := range preSets {
			preSets[a] = map[bool]*bodySet{}
			for _, s := range def.streams {
				if preSets[a][s.weighted] == nil {
					preSets[a][s.weighted] = newBodySet(e.in, a*preload, (a+1)*preload, preload/preloadBodies, s.weighted)
				}
			}
		}
	}
	e.bufs = newSampleBufs()
	e.heapBase = liveHeap()

	// Daemons.
	tmp, err := os.MkdirTemp("", "substream-bench-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	e.coll = server.NewCollector(server.CollectorConfig{SnapshotDir: filepath.Join(tmp, "snap")})
	if e.collSrv, err = server.Start("127.0.0.1:0", e.coll.Handler()); err != nil {
		e.tearDown()
		return nil, err
	}
	obsEvery := 0 // the daemon's default, 1 in 64
	if traced {
		obsEvery = 1
	}
	for a := 0; a < nAgents; a++ {
		ap := &agentProc{
			id:    fmt.Sprintf("a%02d", a),
			tap:   &tap{rt: &http.Transport{MaxIdleConnsPerHost: 1}},
			feeds: map[string][]*feed{},
		}
		ap.agent = server.NewAgent(server.AgentConfig{
			ID:             ap.id,
			Upstream:       e.collSrv.URL(),
			FlushInterval:  time.Hour, // Run is never started: the harness decides when to ship
			Client:         &http.Client{Timeout: 30 * time.Second, Transport: ap.tap},
			ObsSampleEvery: obsEvery,
		})
		e.agents = append(e.agents, ap) // before Start, so tearDown closes the pipelines on failure
		if ap.srv, err = server.Start("127.0.0.1:0", ap.agent.Handler()); err != nil {
			e.tearDown()
			return nil, err
		}
	}

	// Streams, over the real API.
	c := newClient()
	defer c.close()
	for _, ap := range e.agents {
		for _, s := range def.streams {
			cfg := s.cfg
			cfg.SampleSeed = subSeed(seed, "coins/"+ap.id+"/"+s.name)
			body, err := json.Marshal(cfg)
			if err != nil {
				e.tearDown()
				return nil, err
			}
			status, _, data, err := c.do(http.MethodPut, ap.srv.URL()+"/v1/streams/"+s.name, "application/json", body)
			if err != nil || status != http.StatusCreated {
				e.tearDown()
				return nil, fmt.Errorf("create %s/%s: status %d: %s (%v)", ap.id, s.name, status, bytes.TrimSpace(data), err)
			}
		}
	}
	for _, s := range def.streams {
		f := newFeed(loopSets[s.weighted])
		e.loop[s.name] = f
		e.agents[0].feeds[s.name] = append(e.agents[0].feeds[s.name], f)
	}

	// Preload, then one ship of everything so the collector starts the
	// window holding every agent's state.
	if preload > 0 {
		if err := e.preload(preSets); err != nil {
			e.tearDown()
			return nil, err
		}
	}
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// preload POSTs each agent's own slice into each of its streams from
// genGoroutines connections, then ships every agent once.
func (e *env) preload(preSets []map[bool]*bodySet) error {
	errs := make(chan error, genGoroutines)
	var wg sync.WaitGroup
	for g := 0; g < genGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for a := g; a < len(e.agents); a += genGoroutines {
				ap := e.agents[a]
				for _, s := range e.def.streams {
					f := newFeed(preSets[a][s.weighted])
					ap.feeds[s.name] = append(ap.feeds[s.name], f)
					for b, body := range f.set.bodies {
						n, _, err := postIngest(c, ap.ingestURL(s.name), f.set.ctype, body)
						if err != nil || n != f.set.per {
							errs <- fmt.Errorf("preload %s/%s body %d: ingested %d of %d: %v", ap.id, s.name, b, n, f.set.per, err)
							return
						}
						f.sent[b]++
					}
				}
				if n, err := ap.agent.FlushAll(context.Background()); err != nil || n != len(e.def.streams) {
					errs <- fmt.Errorf("preload ship %s: shipped %d: %v", ap.id, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// tearDown stops every daemon and waits for it, and removes the temp dir.
func (e *env) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, ap := range e.agents {
		if ap.srv != nil {
			_ = ap.srv.Shutdown(ctx) // best effort: the process is about to drop the daemon anyway
		}
		ap.agent.Close()
		if tr, ok := ap.tap.rt.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
	if e.collSrv != nil {
		_ = e.collSrv.Shutdown(ctx)
	}
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp)
	}
}

// postIngest POSTs one ingest body and returns the acknowledged item
// count and the daemon's request id. A non-200 status is an error.
func postIngest(c *client, url, ctype string, body []byte) (int, uint64, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	// The ack is {"ingested":N}\n — small enough for a stack buffer.
	var buf [128]byte
	n, err := io.ReadFull(resp.Body, buf[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf[:n]))
	}
	id, _ := strconv.ParseUint(resp.Header.Get("X-Request-Id"), 10, 64)
	return parseIngested(buf[:n]), id, nil
}

// parseIngested extracts N from {"ingested":N}; -1 if malformed.
func parseIngested(b []byte) int {
	const prefix = `{"ingested":`
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return -1
	}
	n := 0
	digits := 0
	for _, ch := range b[len(prefix):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}
