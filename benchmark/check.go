package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"substream/internal/estimator"
	"substream/internal/server"
	"substream/internal/stream"
	"substream/internal/window"
)

// truth is the exact statistics of what one logical stream actually
// ingested fleet-wide: per-body frequencies times acknowledged sends.
type truth struct {
	freq    stream.Freq
	fed     uint64
	totalW  float64 // Σ weight
	subsetW float64 // Σ weight of items inside subsetPrefix
	subsetQ float64 // Σ weight² of items inside subsetPrefix
}

// computeTruth accumulates the exact answer for a stream fed by feeds.
func computeTruth(in *inputs, feeds []*feed, weighted bool) *truth {
	t := &truth{freq: stream.Freq{}}
	for _, f := range feeds {
		for b, c := range f.sent {
			if c == 0 {
				continue
			}
			lo, hi := f.set.lo+b*f.set.per, f.set.lo+(b+1)*f.set.per
			for i := lo; i < hi; i++ {
				it := in.items[i]
				t.freq[it] += c
				if weighted {
					w := in.weights[i]
					t.totalW += float64(c) * w
					if inSubset(it) {
						t.subsetW += float64(c) * w
						t.subsetQ += float64(c) * w * w
					}
				}
			}
			t.fed += c * uint64(f.set.per)
		}
	}
	return t
}

// subsetTolerance is the relative error allowed on a VarOpt subset-sum
// estimate of a p-sampled stream: six standard deviations of
//
//	Var/W_S² ≤ 2/((k−1)·share) + (1−p)/p · Σ_S w² / W_S²
//
// The first term is the CDKLT bound Var ≤ τ·W'_S with τ ≤ W'/(k−1) on the
// sampled stream's weights W', doubled to cover the shard and agent
// merges (each a VarOpt step of its own); the second is the
// Horvitz–Thompson variance of the Bernoulli stage in front of it.
func subsetTolerance(t *truth, p float64, k int) float64 {
	share := t.subsetW / t.totalW
	v := 2/(float64(k-1)*share) + (1-p)/p*t.subsetQ/(t.subsetW*t.subsetW)
	return 6 * math.Sqrt(v)
}

// estErrs collects the observed relative error per estimate, for the
// report (the pass/fail tolerances feed counts instead).
type estErrs map[string]float64

// feedsOf gathers every feed into stream name across the fleet.
func (e *env) feedsOf(name string) []*feed {
	var out []*feed
	for _, ap := range e.agents {
		out = append(out, ap.feeds[name]...)
	}
	return out
}

// sameSends reports whether two feed lists carry identical send logs
// over identical body ranges, so one truth serves both.
func sameSends(a, b []*feed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].set.lo != b[i].set.lo || a[i].set.per != b[i].set.per || len(a[i].sent) != len(b[i].sent) {
			return false
		}
		for j := range a[i].sent {
			if a[i].sent[j] != b[i].sent[j] {
				return false
			}
		}
	}
	return true
}

// checkResult is everything the correctness pass learned.
type checkResult struct {
	counts
	errs          estErrs
	restoreMs     float64
	snapshotMs    float64
	snapshotBytes float64
}

// check runs the workload's correctness checks against the quiesced
// system. Every check is one attempted operation; a miss is a failure.
//
//  1. each agent's fed equals the items the harness had acknowledged,
//     exactly, and kept/fed is within 6σ of p;
//  2. after a final ship of everything, every collector estimate is
//     within the workload's tolerance of exact truth;
//  3. the collector's fold equals an in-process merge of the very
//     payloads it received;
//  4. a collector restored from the final snapshot answers identically.
func (e *env) check() checkResult {
	res := checkResult{errs: estErrs{}}
	c := newClient()
	defer c.close()

	// 1. Agent-side accounting.
	for _, ap := range e.agents {
		var list struct {
			Streams []struct {
				Name string `json:"name"`
				Fed  uint64 `json:"fed"`
				Kept uint64 `json:"kept"`
			} `json:"streams"`
		}
		if err := c.getJSON(ap.srv.URL()+"/v1/streams", &list); err != nil {
			res.fail("list %s: %v", ap.id, err)
			continue
		}
		got := map[string][2]uint64{}
		for _, s := range list.Streams {
			got[s.Name] = [2]uint64{s.Fed, s.Kept}
		}
		for _, s := range e.def.streams {
			fed, kept, want := got[s.name][0], got[s.name][1], ap.fed(s.name)
			if fed != want {
				res.fail("%s/%s: fed %d, sent %d", ap.id, s.name, fed, want)
				continue
			}
			p := s.cfg.P
			if s.cfg.Presampled {
				p = 1
			}
			sigma := math.Sqrt(p * (1 - p) / float64(fed))
			if ratio := float64(kept) / float64(fed); math.Abs(ratio-p) > 6*sigma {
				res.fail("%s/%s: kept/fed %.6f outside %.4f ± 6·%.2g", ap.id, s.name, ratio, p, sigma)
				continue
			}
			res.ok()
		}
	}

	// Final ship of everything, capturing the envelopes on the wire.
	for _, ap := range e.agents {
		ap.tap.setCapture(true)
		n, err := ap.agent.FlushAll(context.Background())
		ap.tap.setCapture(false)
		if err != nil || n != len(e.def.streams) {
			res.fail("final FlushAll %s: shipped %d: %v", ap.id, n, err)
		} else {
			res.ok()
		}
	}

	// 2. Estimates against exact truth, over the collector's HTTP API.
	var prevFeeds []*feed
	var prev *truth
	for _, s := range e.def.streams {
		feeds := e.feedsOf(s.name)
		var t *truth
		if prev != nil && !s.weighted && sameSends(feeds, prevFeeds) {
			t = prev // unweighted streams fed the same bodies share one truth
		} else {
			t = computeTruth(e.in, feeds, s.weighted)
		}
		if !s.weighted {
			prevFeeds, prev = feeds, t
		}
		e.checkStream(c, &res, s, t)
	}

	// 3. Collector fold == in-process merge of the captured payloads.
	e.checkFold(&res)

	// 4. Snapshot round trip.
	t0 := time.Now()
	if err := e.coll.SaveSnapshot(); err != nil {
		res.fail("final SaveSnapshot: %v", err)
		return res
	}
	res.snapshotMs = sinceMs(t0)
	res.snapshotBytes = e.coll.Metrics().SnapshotBytes.Value()
	t0 = time.Now()
	restored := server.NewCollector(server.CollectorConfig{SnapshotDir: filepath.Join(e.tmp, "snap")})
	res.restoreMs = sinceMs(t0)
	for _, s := range e.def.streams {
		live, err1 := e.coll.Estimate(s.name)
		back, err2 := restored.Estimate(s.name)
		if err1 != nil || err2 != nil {
			res.fail("restore %s: live %v, restored %v", s.name, err1, err2)
			continue
		}
		if d := reportDiff(live.Estimates, back.Estimates); d != "" || live.Fed != back.Fed || live.Agents != back.Agents {
			res.fail("restore %s: restored collector answers differently: %s", s.name, d)
			continue
		}
		res.ok()
	}
	return res
}

// checkStream compares one stream's collector answers with truth.
func (e *env) checkStream(c *client, res *checkResult, s streamDef, t *truth) {
	collURL := e.collSrv.URL()
	tol := e.def.tol
	p := s.cfg.P
	if s.weighted {
		var r subsetResp
		if err := c.getJSON(collURL+"/v1/subsetsum?stream="+s.name+"&prefix="+subsetPrefix, &r); err != nil {
			res.fail("subsetsum %s: %v", s.name, err)
			return
		}
		// The reservoir summarises the p-sampled stream; 1/p scales its
		// subset sum back to the original stream's.
		err := relErr(r.SubsetSum/p, t.subsetW)
		res.errs["subset_sum."+s.name] = err
		if lim := subsetTolerance(t, p, s.cfg.Budget); err > lim || r.Agents != len(e.agents) {
			res.fail("subsetsum %s: %.4g vs exact %.4g (rel err %.3f > %.3f) from %d agents", s.name, r.SubsetSum/p, t.subsetW, err, lim, r.Agents)
			return
		}
		res.ok()
		return
	}
	var est estimateResp
	if err := c.getJSON(collURL+"/v1/streams/"+s.name+"/estimate", &est); err != nil {
		res.fail("estimate %s: %v", s.name, err)
		return
	}
	if est.Fed != t.fed || est.Agents != len(e.agents) {
		res.fail("estimate %s: fed %d from %d agents, want %d from %d", s.name, est.Fed, est.Agents, t.fed, len(e.agents))
		return
	}
	res.ok()
	v := est.Estimates.Values
	judge := func(key string, got, want, lim float64, factor bool) {
		err := relErr(got, want)
		res.errs[key+"."+s.name] = err
		bad := err > lim
		if factor { // multiplicative bound: within [want/lim, want·lim]
			bad = !(got >= want/lim && got <= want*lim)
		}
		if bad {
			res.fail("%s %s: %.6g vs exact %.6g (rel err %.3f, limit %.3g)", s.name, key, got, want, err, lim)
			return
		}
		res.ok()
	}
	if fk, ok := v["fk"]; ok && tol.fkRel > 0 {
		judge("fk", fk, t.freq.Fk(s.cfg.K), tol.fkRel, false)
	}
	if f0, ok := v["f0"]; ok && tol.f0Factor > 0 {
		judge("f0", f0, float64(t.freq.F0()), tol.f0Factor, true)
	}
	if h, ok := v["entropy"]; ok && tol.entropyRel > 0 {
		judge("entropy", h, t.freq.Entropy(), tol.entropyRel, false)
	}
	if tol.hitterRel > 0 && (s.cfg.Stat == "hh1" || s.cfg.Stat == "all") {
		// Rank 1 carries ~12% of a Zipf(1.1) stream, far above alpha = 5%:
		// Theorem 6 requires it reported, with its frequency.
		top := keyOf(1)
		found := false
		for _, h := range est.Estimates.F1Hitters {
			if stream.Item(h.Item) == top {
				found = true
				judge("hh1_top", h.Freq, float64(t.freq[top]), tol.hitterRel, false)
			}
		}
		if !found {
			res.fail("%s: rank-1 key %d missing from %d reported F1 hitters", s.name, top, len(est.Estimates.F1Hitters))
		}
	}
}

// checkFold decodes the envelopes captured on the wire during the final
// ship, merges the payloads of each stream in the collector's order
// (sorted agent ID) into a fresh accumulator, and requires the
// collector's own fold to report the same values.
func (e *env) checkFold(res *checkResult) {
	byStream := map[string][]server.Summary{}
	for _, ap := range e.agents {
		ap.tap.mu.Lock()
		bodies := ap.tap.bodies
		ap.tap.bodies = nil
		ap.tap.mu.Unlock()
		for _, b := range bodies {
			var sum server.Summary
			if err := json.Unmarshal(b, &sum); err != nil {
				res.fail("captured envelope from %s: %v", ap.id, err)
				continue
			}
			byStream[sum.Stream] = append(byStream[sum.Stream], sum)
		}
	}
	for _, s := range e.def.streams {
		sums := byStream[s.name]
		sort.Slice(sums, func(i, j int) bool { return sums[i].Agent < sums[j].Agent })
		if len(sums) != len(e.agents) {
			res.fail("fold %s: captured %d envelopes from %d agents", s.name, len(sums), len(e.agents))
			continue
		}
		acc, err := freshAccumulator(sums[0].Config)
		for _, sum := range sums {
			if err != nil {
				break
			}
			var dec estimator.Estimator
			if dec, err = estimator.Decode(sum.Payload); err == nil {
				err = acc.Merge(dec)
			}
		}
		if err != nil {
			res.fail("fold %s: in-process merge: %v", s.name, err)
			continue
		}
		live, err := e.coll.Estimate(s.name)
		if err != nil {
			res.fail("fold %s: collector estimate: %v", s.name, err)
			continue
		}
		if d := reportDiff(live.Estimates, estimator.ReportOf(acc)); d != "" {
			res.fail("fold %s: collector fold differs from in-process merge: %s", s.name, d)
			continue
		}
		res.ok()
	}
}

// freshAccumulator builds the empty estimator a stream's summaries merge
// into, from the configuration the envelope itself carries — the same
// recipe the collector follows (registry constructor, epoch-ring wrapped
// for windowed streams).
func freshAccumulator(cfg server.StreamConfig) (estimator.Estimator, error) {
	spec := specOf(cfg)
	inner := func() (estimator.Estimator, error) { return estimator.New(spec) }
	if cfg.Window <= 0 {
		return inner()
	}
	return window.Wrap(window.Config{Window: cfg.Window, EpochLen: time.Duration(cfg.Epoch), New: inner})
}

// specOf projects a stream configuration onto the estimator registry's
// construction input, as the daemon does.
func specOf(cfg server.StreamConfig) estimator.Spec {
	return estimator.Spec{Stat: cfg.Stat, P: cfg.P, K: cfg.K, Epsilon: cfg.Epsilon,
		Alpha: cfg.Alpha, Budget: cfg.Budget, Exact: cfg.Exact, Seed: cfg.Seed}
}

// reportDiff describes the first difference between two estimate
// reports, "" if none. Values must agree to 1e-9 relative: the same
// states merged in the same order, so only map-iteration-order float
// summation may differ.
func reportDiff(a, b estimator.Report) string {
	if len(a.Values) != len(b.Values) {
		return fmt.Sprintf("%d values vs %d", len(a.Values), len(b.Values))
	}
	for k, va := range a.Values {
		vb, ok := b.Values[k]
		if !ok || relErr(va, vb) > 1e-9 {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	if len(a.F1Hitters) != len(b.F1Hitters) || len(a.F2Hitters) != len(b.F2Hitters) {
		return fmt.Sprintf("hitter lists %d/%d vs %d/%d", len(a.F1Hitters), len(a.F2Hitters), len(b.F1Hitters), len(b.F2Hitters))
	}
	return ""
}
