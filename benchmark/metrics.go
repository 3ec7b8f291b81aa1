package main

// metricDef names one metric the benchmark prints. The tables below are
// the source BENCHMARK.json is written from; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: the share by which the median may worsen
}

// endToEnd is what a user of the system would see. Every workload
// reports every one: the three ingest workloads run a short ship/query
// tail after their window and the fleet workload's loop ingests as it
// goes, so each name is measured — not synthesised — everywhere (which
// phase measures it on which workload is in README.md).
//
// failed_share (failed ÷ attempted) is printed by the report but is not
// in this table: a gated metric may never be 0, and this one always
// should be; the driver reads it from the result's own
// attempted/failed/correct fields.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_items_per_s", "items/s", "higher", 0.25},
	{"ingest_req_p50_ms", "ms", "lower", 0.25},
	{"fresh_p50_ms", "ms", "lower", 0.25},
	{"query_refresh_p50_ms", "ms", "lower", 0.25},
	{"collect_summaries_per_s", "1/s", "higher", 0.25},
	{"summary_wire_bytes", "B", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.15},
	{"alloc_bytes_per_item", "B", "lower", 0.25},
}

// layerStats are the estimator kinds the per-stat layer metrics cover:
// one per stream kind the workloads run.
var layerStats = []string{"fk", "all", "varopt", "f0", "hh1"}

// perLayer lists the single-layer metrics of the traced pass, grouped by
// the repo's modules. They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }
	perStat := func(prefix, unit, better string) {
		for _, s := range layerStats {
			add(prefix+"."+s, unit, better)
		}
	}
	// server, agent side
	add("server.socket_ns_per_item", "ns/item", "lower")
	add("server.handler_ns_per_item", "ns/item", "lower")
	add("server.handler_fixed_ns_per_req", "ns/req", "lower")
	add("server.decode_ns_per_item", "ns/item", "lower")
	add("server.feed_ns_per_item", "ns/item", "lower")
	add("server.allocs_per_req", "count", "lower")
	add("server.ingest_errors", "count", "lower")
	add("server.obs_tax_ns_per_req", "ns/req", "lower")
	add("server.ingest_1shard_items_per_s", "items/s", "higher")
	add("server.flush_ms_p50", "ms", "lower")
	add("server.ship_snapshot_ms_p50", "ms", "lower")
	add("server.ship_post_ms_p50", "ms", "lower")
	add("server.ship_errors", "count", "lower")
	add("server.ship_retries", "count", "lower")
	// server, collector side
	perStat("server.accept_ms_p50", "ms", "lower")
	add("server.collect_decode_ms_p50", "ms", "lower")
	add("server.collect_fold_ms_p50", "ms", "lower")
	add("server.collect_rejects", "count", "lower")
	perStat("server.estimate_ms_p50", "ms", "lower")
	add("server.subsetsum_ms_p50", "ms", "lower")
	add("server.estimate_http_ms_p50", "ms", "lower")
	add("server.snapshot_write_ms_p50", "ms", "lower")
	add("server.snapshot_bytes", "B", "lower")
	add("server.snapshot_restore_ms", "ms", "lower")
	// pipeline
	add("pipeline.ring_ns_per_item", "ns/item", "lower")
	add("pipeline.sample_ns_per_item", "ns/item", "lower")
	add("pipeline.feed_copy_ns_per_item", "ns/item", "lower")
	add("pipeline.feed_weighted_copy_ns_per_item", "ns/item", "lower")
	add("pipeline.feed_slice_ns_per_item", "ns/item", "lower")
	add("pipeline.merge_all_ms", "ms", "lower")
	add("pipeline.sync_ms_p50", "ms", "lower")
	add("pipeline.sync_wait_s", "s", "lower")
	add("pipeline.queue_len_max", "count", "lower")
	add("pipeline.kept_ratio", "ratio", "higher")
	// estimator, and sketch/levelset/core/sample behind each kind
	perStat("estimator.update_ns_per_item", "ns/item", "lower")
	perStat("estimator.marshal_ms", "ms", "lower")
	perStat("estimator.marshal_bytes", "B", "lower")
	perStat("estimator.decode_ms", "ms", "lower")
	perStat("estimator.merge_ms", "ms", "lower")
	perStat("estimator.estimates_ms", "ms", "lower")
	perStat("estimator.space_bytes", "B", "lower")
	// window
	add("window.update_ns_per_item.f0", "ns/item", "lower")
	add("window.marshal_ms.f0", "ms", "lower")
	add("window.marshal_bytes.f0", "B", "lower")
	// core: estimate quality against stream.NewFreq truth
	perStat("core.est_rel_err", "ratio", "lower")
	// workload / stream: input generation, the bulk of setup_s
	add("workload.gen_ns_per_item", "ns/item", "lower")
	add("stream.encode_ns_per_item", "ns/item", "lower")
	// obs
	add("obs.metricsz_render_ms", "ms", "lower")
	// loadgen: the harness itself
	add("loadgen.ingest_req_p99_ms", "ms", "lower")
	add("loadgen.fresh_p99_ms", "ms", "lower")
	add("loadgen.query_refresh_p99_ms", "ms", "lower")
	add("loadgen.query_lateness_p99_ms", "ms", "lower")
	add("loadgen.trace_overhead_pct", "%", "lower")
	return out
}

// metric is one reported value with its unit — the shape of the result
// line's "metrics" entries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs measured values with their units in table order; a value
// a pass failed to produce is reported as missing by the caller.
func render(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || v != v { // absent or NaN
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}
