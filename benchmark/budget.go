package main

import (
	"fmt"
	"io"
	"math"
)

// budgetRow is one layer's share of a workload's end-to-end figure.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Value  float64 `json:"value"`
	Share  float64 `json:"share_pct"`
	Source string  `json:"source"`
}

// budget is the table ROADMAP asks for: the end-to-end figure, each
// layer's part of it in the layer vocabulary (socket decode sample ring
// update marshal ship collect_decode fold estimate snapshot), and what
// is left unattributed.
type budget struct {
	Workload string      `json:"workload"`
	Figure   string      `json:"figure"` // which end-to-end metric the rows add up to
	Unit     string      `json:"unit"`
	Total    float64     `json:"total"`
	Rows     []budgetRow `json:"rows"`
	GapPct   float64     `json:"unattributed_pct"`
	Top      string      `json:"top_layer"`
}

func (b *budget) add(layer string, value float64, source string) {
	b.Rows = append(b.Rows, budgetRow{Layer: layer, Value: value, Source: source})
}

func (b *budget) finish() {
	var sum, top float64
	for i := range b.Rows {
		r := &b.Rows[i]
		r.Share = 100 * r.Value / b.Total
		sum += r.Value
		if r.Value > top {
			top, b.Top = r.Value, r.Layer
		}
	}
	b.GapPct = 100 * (b.Total - sum) / b.Total
}

// buildBudget derives the workload's budget from a finished traced pass
// (its named metrics, raw numbers and spans).
//
// An ingest workload's figure is ingest_req_p50_ms, per item. Two
// closed-loop connections keep both CPUs busy, so a request's round trip
// is the CPU time one request costs across every goroutine that touches
// it — client, server, handler, shard workers — and the rows are each
// layer's cost per item, every one measured on its own: socket against a
// handler that only drains the body, handler as an empty-body ServeHTTP,
// decode from the live /metricsz histogram, ring, sample and update from
// the layer micro-benchmarks (update at the stream's own spec, scaled by
// the share of items that reach it). Nothing is derived by subtraction,
// so the rows need not add up: the difference is the unattributed gap.
// The time handlers stand blocked on full rings (server.feed_ns_per_item)
// is not a row of its own — it is how the workers' sample and update
// cost reaches the request when they are the bottleneck.
//
// The fleet workload's figure is the mean freshness sample, per flush.
// Its rows are self times from the span tree under each POST /v1/flush —
// the harness's flush and estimate spans with the daemon's ship/fold
// spans joined in by trace ID.
func buildBudget(res *passResult) budget {
	v, raw := res.values, res.raw
	if raw.fleet {
		return fleetBudget(res)
	}
	b := budget{Workload: res.workload, Figure: "ingest_req_p50_ms", Unit: "ns/item", Total: raw.postP50Ns / raw.bodyItems}
	b.add("socket", v["server.socket_ns_per_item"], "the same bodies POSTed to a handler that only drains them, p50 (server.socket_ns_per_item)")
	b.add("handler", raw.fixedNs/raw.bodyItems, "empty-body ServeHTTP p50: mux, accounting, response (server.handler_fixed_ns_per_req)")
	b.add("decode", v["server.decode_ns_per_item"], "/metricsz ingest_decode_seconds (server.decode_ns_per_item)")
	if raw.weighted {
		b.add("ring", v["pipeline.feed_weighted_copy_ns_per_item"], "FeedWeightedCopy into a no-op replica (pipeline.feed_weighted_copy_ns_per_item)")
	} else {
		b.add("ring", v["pipeline.ring_ns_per_item"], "FeedOwned into a no-op replica (pipeline.ring_ns_per_item)")
	}
	kept := v["pipeline.kept_ratio"]
	if kept < 1 {
		b.add("sample", math.Max(v["pipeline.sample_ns_per_item"], 0), "the same at p=0.05 minus ring (pipeline.sample_ns_per_item)")
	}
	b.add("update", kept*raw.updateNs, "kept_ratio × estimator.New + UpdateBatch at the stream's own spec")
	b.finish()
	return b
}

// fleetBudget attributes the mean freshness sample to the layers under
// the flush that caused it.
func fleetBudget(res *passResult) budget {
	spans := res.spans
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := func(s span) string {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.Name
	}
	self := selfTimes(spans)
	sums := map[string]float64{}
	flushes := 0
	for _, s := range spans {
		switch r := root(s); {
		case r == "flush":
			sums[s.Name] += float64(self[s.ID]) / 1e6
			if s.Name == "flush" {
				flushes++
			}
		case s.Name == "estimate":
			sums["estimate"] += float64(s.dur()) / 1e6
		}
	}
	b := budget{Workload: res.workload, Figure: "fresh mean (fresh_p50_ms is its median)", Unit: "ms/flush", Total: res.raw.freshMeanMs}
	n := float64(max(flushes, 1))
	b.add("flush", sums["flush"]/n, "harness flush span self time: HTTP to the agent, handler glue")
	b.add("marshal", sums["marshal"]/n, "daemon ship span snapshot_ns: Sync, shard merge, MarshalBinary")
	b.add("ship", (sums["ship"]+sums["ship_post"])/n, "daemon ship span post_ns self time: JSON+base64 envelope, POST, collector envelope decode")
	b.add("collect_decode", sums["collect_decode"]/n, "daemon fold span decode_ns")
	b.add("fold", sums["fold"]/n, "daemon fold span fold_ns (trial fold)")
	b.add("estimate", sums["estimate"]/n, "harness estimate span: probe GET — query-time fold, estimate, JSON")
	b.finish()
	return b
}

// write renders the budget as the markdown table BUDGET.md holds.
func (b budget) write(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s = %.4g %s\n\n", b.Workload, b.Figure, b.Total, b.Unit)
	fmt.Fprintf(w, "| layer | %s | %% of figure | measured as |\n|---|---:|---:|---|\n", b.Unit)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "| %s | %.4g | %.1f | %s |\n", r.Layer, r.Value, r.Share, r.Source)
	}
	fmt.Fprintf(w, "| *unattributed* | %.4g | %.1f | figure − Σ rows |\n\n", b.Total*b.GapPct/100, b.GapPct)
	fmt.Fprintf(w, "Top layer: **%s**.\n\n", b.Top)
}
