package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"substream/internal/estimator"
	"substream/internal/pipeline"
	"substream/internal/server"
	"substream/internal/stream"
	"substream/internal/window"
)

// The layer micro-benchmarks measure each module from outside, through
// its exported functions, on one standard stream: the first microItems
// items of the logical stream for the run's seed. They do not depend on
// the workload, so every traced pass reports the same set; what the
// numbers should move is in README.md.

// layerSpecs are the estimator configurations behind the per-stat layer
// metrics: the ones the workloads' streams use (fk is the fleet's
// level-set backend, the one whose fold the dashboard pays for).
var layerSpecs = map[string]estimator.Spec{
	"fk":     {Stat: "fk", K: 2, P: sampleP},
	"all":    {Stat: "all", K: 2, P: 1},
	"varopt": {Stat: "varopt", Budget: 1024, P: sampleP},
	"f0":     {Stat: "f0", P: sampleP},
	"hh1":    {Stat: "hh1", P: sampleP},
}

// microReplicas is how many per-agent states the marshal/decode/merge/
// fold measurements use — the fleet workload's agent count.
const microReplicas = 16

// noop is the pipeline replica that isolates hand-off cost from
// estimator cost.
type noop struct{}

func (noop) UpdateBatch([]stream.Item)          {}
func (noop) UpdateWeightedBatch([]stream.WItem) {}

// timeMs runs fn and returns its wall time in milliseconds.
func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return sinceMs(t0)
}

// perItem repeats pass (which processes n items) until minDur has
// elapsed and returns the mean nanoseconds per item.
func perItem(n int, minDur time.Duration, pass func()) float64 {
	t0 := time.Now()
	passes := 0
	for passes == 0 || time.Since(t0) < minDur {
		pass()
		passes++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*n)
}

// updateCost is the nanoseconds per item of estimator.New(spec) +
// UpdateBatch over items in pinBatch-item batches — the shard worker's
// call into the estimator layer.
func updateCost(spec estimator.Spec, items []stream.Item, rec *recorder) (float64, estimator.Estimator, error) {
	e, err := estimator.New(spec)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	for i := 0; i < len(items); i += pinBatch {
		e.UpdateBatch(items[i:min(i+pinBatch, len(items))])
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(items))
	rec.record("UpdateBatch", t0, 0, 0, len(items))
	return ns, e, nil
}

// microSuite measures every workload-independent layer metric.
func microSuite(seed uint64, sc scale, rec *recorder) (map[string]float64, []stream.Item, error) {
	m := map[string]float64{}
	budget := 150 * time.Millisecond // per repeated measurement
	if sc.microItems < 1<<18 {
		budget = 10 * time.Millisecond
	}

	// workload / stream: what set-up spends generating and encoding.
	var items []stream.Item
	genMs := timeMs(func() { items = genItems(seed, sc.microItems) })
	m["workload.gen_ns_per_item"] = genMs * 1e6 / float64(len(items))
	m["stream.encode_ns_per_item"] = perItem(len(items), budget, func() { encodeBinary(items) })
	weights := genWeights(seed, len(items))
	witems := make([]stream.WItem, len(items))
	for i, it := range items {
		witems[i] = stream.WItem{Key: it, Weight: weights[i]}
	}
	truth := stream.NewFreq(stream.Slice(items))

	// estimator (sketch, levelset, core, sample behind the kinds).
	states := map[string][]estimator.Estimator{}
	for _, stat := range layerStats {
		spec := layerSpecs[stat]
		ns, full, err := updateCost(spec, items, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("estimator %s: %w", stat, err)
		}
		m["estimator.update_ns_per_item."+stat] = ns
		m["estimator.space_bytes."+stat] = float64(full.SpaceBytes())
		m["core.est_rel_err."+stat] = microRelErr(stat, spec, full, truth)

		// Per-agent replicas: disjoint slices, like a fleet's agents.
		var marshalMs, decodeMs, mergeMs []float64
		var wire float64
		acc, err := estimator.New(spec)
		if err != nil {
			return nil, nil, err
		}
		per := len(items) / microReplicas
		for r := 0; r < microReplicas; r++ {
			_, rep, err := updateCost(spec, items[r*per:(r+1)*per], nil)
			if err != nil {
				return nil, nil, err
			}
			var payload []byte
			t0 := time.Now()
			payload, err = rep.MarshalBinary()
			marshalMs = append(marshalMs, sinceMs(t0))
			rec.record("MarshalBinary", t0, 0, 0, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("marshal %s: %w", stat, err)
			}
			wire += float64(len(payload))
			t0 = time.Now()
			dec, err := estimator.Decode(payload)
			decodeMs = append(decodeMs, sinceMs(t0))
			rec.record("estimator.Decode", t0, 0, 0, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("decode %s: %w", stat, err)
			}
			t0 = time.Now()
			err = acc.Merge(dec)
			mergeMs = append(mergeMs, sinceMs(t0))
			if err != nil {
				return nil, nil, fmt.Errorf("merge %s: %w", stat, err)
			}
			states[stat] = append(states[stat], dec)
		}
		m["estimator.marshal_ms."+stat] = median(marshalMs)
		m["estimator.marshal_bytes."+stat] = wire / microReplicas
		m["estimator.decode_ms."+stat] = median(decodeMs)
		m["estimator.merge_ms."+stat] = median(mergeMs)
		var est []float64
		for i := 0; i < 5; i++ {
			est = append(est, timeMs(func() { estimator.ReportOf(acc) }))
		}
		m["estimator.estimates_ms."+stat] = median(est)
	}

	// window: the epoch ring around f0, as the fleet's f0 stream runs it.
	wcfg := window.Config{Window: 4, EpochLen: 24 * time.Hour,
		New: func() (estimator.Estimator, error) { return estimator.New(layerSpecs["f0"]) }}
	wf0, err := window.Wrap(wcfg)
	if err != nil {
		return nil, nil, err
	}
	m["window.update_ns_per_item.f0"] = perItem(len(items), budget, func() {
		for i := 0; i < len(items); i += pinBatch {
			wf0.UpdateBatch(items[i:min(i+pinBatch, len(items))])
		}
	})
	var wpayload []byte
	var wms []float64
	for i := 0; i < 9; i++ {
		wms = append(wms, timeMs(func() { wpayload, err = wf0.MarshalBinary() }))
		if err != nil {
			return nil, nil, err
		}
	}
	m["window.marshal_ms.f0"] = median(wms)
	m["window.marshal_bytes.f0"] = float64(len(wpayload))

	// pipeline: hand-off, sampler, copy lanes, batch path, quiesce.
	chunk := 8192 // the daemon's decode chunk
	feedOwned := func(p float64) float64 {
		pl := pipeline.New(pipeline.Config{Shards: pinShards, BatchSize: pinBatch, SampleP: p, Seed: seed | 1},
			func(int) noop { return noop{} })
		defer pl.Close()
		return perItem(len(items), budget, func() {
			t0 := time.Now()
			for i := 0; i+chunk <= len(items); i += chunk {
				pl.FeedOwned(items[i:i+chunk], nil)
			}
			pl.Sync()
			rec.record("FeedOwned", t0, 0, 0, len(items))
		})
	}
	ring := feedOwned(0)
	m["pipeline.ring_ns_per_item"] = ring
	m["pipeline.sample_ns_per_item"] = feedOwned(sampleP) - ring
	func() {
		pl := pipeline.New(pipeline.Config{Shards: pinShards, BatchSize: pinBatch}, func(int) noop { return noop{} })
		defer pl.Close()
		m["pipeline.feed_copy_ns_per_item"] = perItem(len(items), budget, func() {
			for i := 0; i+chunk <= len(items); i += chunk {
				pl.FeedCopy(items[i : i+chunk])
			}
			pl.Sync()
		})
		m["pipeline.feed_weighted_copy_ns_per_item"] = perItem(len(items), budget, func() {
			for i := 0; i+chunk/2 <= len(witems); i += chunk / 2 {
				pl.FeedWeightedCopy(witems[i : i+chunk/2])
			}
			pl.Sync()
		})
		var syncMs []float64
		for i := 0; i < 200 && (i+1)*chunk <= len(items); i++ {
			pl.FeedOwned(items[i*chunk:(i+1)*chunk], nil)
			syncMs = append(syncMs, timeMs(pl.Sync))
		}
		m["pipeline.sync_ms_p50"] = median(syncMs)
	}()
	m["pipeline.feed_slice_ns_per_item"] = perItem(len(items), budget, func() {
		pl := pipeline.New(pipeline.Config{Shards: pinShards, BatchSize: pinBatch}, func(int) noop { return noop{} })
		pl.FeedSlice(items)
		pl.Close()
	})
	func() {
		pl := pipeline.New(pipeline.Config{Shards: pinShards, BatchSize: pinBatch}, func(int) estimator.Estimator {
			e, err := estimator.New(layerSpecs["fk"])
			if err != nil {
				panic(err) // unreachable: the same spec built above
			}
			return e
		})
		pl.FeedSlice(items[:len(items)/4])
		m["pipeline.merge_all_ms"] = timeMs(func() { _, err = pipeline.MergeAll(pl) })
	}()
	if err != nil {
		return nil, nil, fmt.Errorf("MergeAll: %w", err)
	}

	// server, collector side, called directly: Accept on pre-shipped
	// summaries, Estimate and SubsetSum on the 16-agent table.
	coll := server.NewCollector(server.CollectorConfig{})
	for _, stat := range layerStats {
		spec := layerSpecs[stat]
		cfg := server.StreamConfig{Stat: spec.Stat, K: spec.K, P: spec.P, Budget: spec.Budget}
		var acceptMs []float64
		for seq := 1; seq <= min(sc.microReps, 2); seq++ {
			for r, st := range states[stat] {
				payload, err := st.MarshalBinary()
				if err != nil {
					return nil, nil, err
				}
				sum := server.Summary{Agent: fmt.Sprintf("a%02d", r), Stream: stat, Boot: 1, Seq: uint64(seq), Config: cfg, Payload: payload}
				t0 := time.Now()
				err = coll.Accept(sum)
				acceptMs = append(acceptMs, sinceMs(t0))
				rec.record("Accept", t0, 0, 0, 0)
				if err != nil {
					return nil, nil, fmt.Errorf("Accept %s: %w", stat, err)
				}
			}
		}
		m["server.accept_ms_p50."+stat] = median(acceptMs)
		var estMs []float64
		for i := 0; i < sc.microReps; i++ {
			t0 := time.Now()
			_, err := coll.Estimate(stat)
			estMs = append(estMs, sinceMs(t0))
			rec.record("Estimate", t0, 0, 0, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("Estimate %s: %w", stat, err)
			}
		}
		m["server.estimate_ms_p50."+stat] = median(estMs)
	}
	var subMs []float64
	for i := 0; i < 25; i++ {
		subMs = append(subMs, timeMs(func() { _, err = coll.SubsetSum("varopt", inSubset, false) }))
		if err != nil {
			return nil, nil, fmt.Errorf("SubsetSum: %w", err)
		}
	}
	m["server.subsetsum_ms_p50"] = median(subMs)

	// server: the single-threaded baseline — ingest_bin_sampled's stream
	// with one shard, driven by one connection over loopback.
	one, err := oneShardIngest(seed, items, budget*8)
	if err != nil {
		return nil, nil, err
	}
	m["server.ingest_1shard_items_per_s"] = one
	return m, items, nil
}

// microRelErr is the relative error of a kind's headline estimate on the
// standard stream against stream.NewFreq truth. The stream is fed whole
// (it is the stream the estimator sees), so p-scaled kinds are compared
// with the truth scaled the same way.
func microRelErr(stat string, spec estimator.Spec, e estimator.Estimator, truth stream.Freq) float64 {
	rep := estimator.ReportOf(e)
	switch stat {
	case "fk", "all":
		// Algorithm 1 reads the fed stream as a p-sample: its F2 estimate
		// inverts E[C2(L)] = p²·C2(P), with F2 = 2·C2 + F1.
		p := spec.P
		c2 := truth.Collisions(2)
		return relErr(rep.Values["fk"], 2*c2/(p*p)+float64(truth.F1())/p)
	case "f0":
		return relErr(rep.Values["f0_sampled"], float64(truth.F0()))
	case "hh1":
		top := keyOf(1)
		for _, h := range rep.F1Hitters {
			if h.Item == top {
				return relErr(h.Freq, float64(truth[top])/spec.P)
			}
		}
		return 1 // rank 1 not reported at all
	case "varopt":
		// Fed through the unweighted path every weight is 1, so the subset
		// sum estimates the count of items inside the prefix.
		s, ok := estimator.SummerOf(e)
		if !ok {
			return 1
		}
		var inside float64
		for it, c := range truth {
			if inSubset(it) {
				inside += float64(c)
			}
		}
		return relErr(s.SubsetSum(inSubset), inside)
	}
	return 0
}

// oneShardIngest measures closed-loop binary ingest with one connection
// into a one-shard exact-fk stream at p=0.05, in items per second.
func oneShardIngest(seed uint64, items []stream.Item, dur time.Duration) (float64, error) {
	agent := server.NewAgent(server.AgentConfig{ID: "one"})
	defer agent.Close()
	cfg := server.StreamConfig{Stat: "fk", K: 2, P: sampleP, Exact: true, Shards: 1, Batch: pinBatch, SampleSeed: subSeed(seed, "coins/one")}
	if err := agent.CreateStream("fk", cfg); err != nil {
		return 0, err
	}
	srv, err := server.Start("127.0.0.1:0", agent.Handler())
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // throwaway daemon
	const per = 4096
	var bodies [][]byte
	for i := 0; i+per <= len(items) && len(bodies) < 64; i += per {
		bodies = append(bodies, encodeBinary(items[i:i+per]))
	}
	c := newClient()
	defer c.close()
	url := srv.URL() + "/v1/streams/fk/ingest"
	var acked int
	t0 := time.Now()
	for b := 0; time.Since(t0) < dur; b++ {
		n, _, err := postIngest(c, url, ctypeBinary, bodies[b%len(bodies)])
		if err != nil || n != per {
			return 0, fmt.Errorf("one-shard ingest: acknowledged %d of %d: %v", n, per, err)
		}
		acked += n
	}
	return float64(acked) / time.Since(t0).Seconds(), nil
}

// memResponse is the in-memory http.ResponseWriter the handler replays
// write to: it keeps the status and discards the body, so a replay costs
// the handler and nothing else.
type memResponse struct {
	h      http.Header
	status int
}

func (w *memResponse) Header() http.Header         { return w.h }
func (w *memResponse) WriteHeader(code int)        { w.status = code }
func (w *memResponse) Write(b []byte) (int, error) { return len(b), nil }

// serveInMemory sends one ingest body through h with no socket and
// returns the handler's wall time.
func serveInMemory(h http.Handler, url, ctype string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	w := &memResponse{h: http.Header{}, status: http.StatusOK}
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	if w.status != http.StatusOK {
		return d, fmt.Errorf("in-memory ingest: status %d", w.status)
	}
	return d, nil
}

// metricsz reads a daemon's flat JSON panel over HTTP.
func metricsz(c *client, base string) (map[string]any, error) {
	var m map[string]any
	err := c.getJSON(base+"/metricsz", &m)
	return m, err
}

// num reads a scalar of the panel (0 if absent).
func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// histSum reads a histogram's sum from the panel.
func histSum(m map[string]any, key string) float64 {
	h, _ := m[key].(map[string]any)
	return num(h, "sum")
}

// sumPrefix adds every series of a labeled family ("name{...}").
func sumPrefix(m map[string]any, family string) float64 {
	var total float64
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic float summation
	for _, k := range keys {
		if len(k) > len(family) && k[:len(family)] == family && k[len(family)] == '{' {
			total += num(m, k)
		}
	}
	return total
}
