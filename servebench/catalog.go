package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions, and README.md gives each one's
// layer and the end-to-end metric it should move; catalog_test.go keeps
// the three in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the bounded metrics of every untraced run (-trace 0):
// what a user of topk-serve sees on every workload, steady enough from
// run to run to carry a bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ios_per_query", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of every traced run (-trace 1). The first
// seven are end-to-end metrics that cannot carry a bound: the request
// timings move with the CPU time and memory bandwidth other tenants
// take from the machine by more than any bound allows, the next three
// exist on ingest-overlay only, and error_rate is zero when the run is
// healthy.
var perLayer = []metricDef{
	{"query_qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p99_ms", "ms", "lower"},
	{"checkpoint_s", "s", "lower"},
	{"error_rate", "ratio", "lower"},

	{"serve.http_p50_us", "us", "lower"},
	{"serve.query_elapsed_p50_us", "us", "lower"},
	{"serve.ingest_elapsed_p99_ms", "ms", "lower"},
	{"serve.ingest_http_p50_ms", "ms", "lower"},
	{"serve.http_errors", "count", "lower"},
	{"serve.cpu_ms_per_query", "ms", "lower"},
	{"serve.setup_wall_s", "s", "lower"},
	{"core.rounds_per_query", "count", "lower"},
	{"core.round_success_ratio", "ratio", "higher"},
	{"core.failed_round_ios_share", "ratio", "lower"},
	{"em.hit_ratio", "ratio", "higher"},
	{"em.preads_per_query", "count", "lower"},
	{"em.read_bytes_per_query", "B", "lower"},
	{"em.blocks_per_item", "count", "lower"},
	{"shard.read_imbalance", "ratio", "lower"},
	{"shard.fanout_over_single", "ratio", "lower"},
	{"dynamic.rebuilds", "count", "lower"},
	{"dynamic.partial_rebuilds", "count", "lower"},
	{"dynamic.overlay_levels", "count", "lower"},
	{"dynamic.update_ios_per_item", "count", "lower"},
	{"dynamic.insert_batch_us_per_item", "us", "lower"},
	{"dynamic.delete_batch_us_per_item", "us", "lower"},
	{"dynamic.batch_max_ms", "ms", "lower"},
	{"dynamic.query_slowdown", "ratio", "lower"},
	{"obs.gc_pause_ms_per_s", "ms/s", "lower"},
	{"registry.decode_query_us", "us", "lower"},
	{"registry.decode_item_us", "us", "lower"},
	{"registry.query_batch_us", "us", "lower"},
	{"engine.serial_topk_us", "us", "lower"},
	{"engine.batch_over_serial", "ratio", "lower"},
	{"engine.parallel_speedup", "ratio", "higher"},
	{"engine.allocs_per_query", "count", "lower"},
	{"engine.alloc_bytes_per_query", "B", "lower"},
	{"engine.build_s", "s", "lower"},
	{"engine.aborted_outcomes", "count", "lower"},
	{"snap.restore_s", "s", "lower"},
	{"snap.restore_read_ios", "count", "lower"},
	{"snap.snapshot_s", "s", "lower"},
	{"snap.bytes_per_item", "B", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.wrong_answers", "count", "lower"},
	{"bench.ingest_late_ms_max", "ms", "lower"},
	{"bench.query_requests", "count", "higher"},
}
