package main

// layerMetrics are the per-layer metrics a traced run prints, with their
// units. Every workload prints all of them; a layer the workload does
// not exercise reads 0 (store.* on the RAM tier, serve.* and mutable.*
// outside serve-churn).
var layerMetrics = [][2]string{
	{"ged.calls_per_query", "count"},
	{"ged.us_per_call_p50", "us"},
	{"ged.us_per_call_p99", "us"},
	{"ged.busy_share", "ratio"},
	{"ged.leg.astar_us", "us"},
	{"ged.leg.vj_us", "us"},
	{"ged.leg.hungarian_us", "us"},
	{"ged.leg.beam_us", "us"},
	{"ged.leg.lower_bound_us", "us"},
	{"ged.astar_finish_share", "ratio"},
	{"ged.certified_share", "ratio"},
	{"setup.build_s", "s"},
	{"setup.pg_metric_calls", "count"},
	{"setup.pg_metric_busy_s", "s"},
	{"setup.table_metric_calls", "count"},
	{"setup.table_metric_busy_s", "s"},
	{"setup.self_s", "s"},
	{"setup.snapshot_save_s", "s"},
	{"setup.snapshot_open_s", "s"},
	{"setup.snapshot_bytes", "bytes"},
	{"route.ndc", "count"},
	{"route.ndc_initial", "count"},
	{"route.ndc_routing", "count"},
	{"route.explored", "count"},
	{"route.prune_rate", "ratio"},
	{"route.batches_opened", "count"},
	{"route.gamma_steps", "count"},
	{"route.dist_cache_hit_ratio", "ratio"},
	{"models.ranker_calls", "count"},
	{"models.is_predictions", "count"},
	{"models.is_unverified_share", "ratio"},
	{"models.embed_ms", "ms"},
	{"search.self_ms", "ms"},
	{"store.fetch_ms", "ms"},
	{"store.fetch_batches", "count"},
	{"store.ids_per_fetch", "count"},
	{"serve.pre_search_ms_p50", "ms"},
	{"serve.pre_search_ms_p99", "ms"},
	{"serve.inside_search_ms_p50", "ms"},
	{"serve.inside_search_ms_p99", "ms"},
	{"serve.post_search_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shared_ratio", "ratio"},
	{"serve.refused", "count"},
	{"serve.timed_out", "count"},
	{"serve.insert_p50_ms", "ms"},
	{"serve.insert_p90_ms", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"mutable.insert_inside_ms_p50", "ms"},
	{"mutable.insert_inside_ms_p90", "ms"},
	{"mutable.delete_inside_us", "us"},
	{"mutable.optimizer_epochs", "count"},
	{"mutable.quiesce_s", "s"},
	{"mutable.live_graphs", "count"},
	{"ops.failed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"latency.search_p99_ms", "ms"},
}

// fillLayers records 0 for every per-layer metric the run did not set.
func fillLayers(rep *report) {
	for _, m := range layerMetrics {
		if _, ok := rep.metrics[m[0]]; !ok {
			rep.set(m[0], m[1], 0)
		}
	}
}
