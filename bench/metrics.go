package main

// endToEndMetrics are what a user of the running system sees, measured by
// the client with tracing off; times are at reference speed (calib.go). Bound is the share of the parent commit's
// median by which a later change may worsen the metric before it counts as a
// regression. README.md holds the definitions and REPEATABILITY.md the
// evidence for the list: query, commit and ingest latency and recover_s are
// measured and printed by every run but did not repeat on the sandbox, so
// they are informational, not listed (the list shrinks, bounds do not widen
// past what unchanged code can hold).
//
// failed_share is not listed because a healthy run reads exactly 0: failures
// are the attempted/failed counts of every run, and any failed request makes
// the run incorrect.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "refine_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "refine_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "precision_at_20", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayerMetrics come from the traced run only: medians of span durations
// or self times taken from bench/ around calls into each layer's public
// functions, plus counts the layers keep themselves. They have no bound;
// Moves says which end-to-end metric each should move, and on which workload.
var perLayerMetrics = []metricDef{
	{Name: "server.transport_self_us.query", Unit: "us", Better: "lower", Moves: "query_p50_ms, requests_per_s on feedback-small"},
	{Name: "server.transport_self_us.refine", Unit: "us", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "server.transport_self_us.commit", Unit: "us", Better: "lower", Moves: "commit_p50_ms on feedback-small"},
	{Name: "server.transport_self_us.ingest", Unit: "us", Better: "lower", Moves: "ingest_p50_ms on ingest-commit"},
	{Name: "server.handler_self_us.query", Unit: "us", Better: "lower", Moves: "query_p50_ms on feedback-small"},
	{Name: "server.handler_self_us.refine", Unit: "us", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "server.handler_self_us.commit", Unit: "us", Better: "lower", Moves: "commit_p50_ms on feedback-small"},
	{Name: "server.handler_self_us.ingest", Unit: "us", Better: "lower", Moves: "ingest_p50_ms on ingest-commit"},
	{Name: "server.metrics_scrape_us", Unit: "us", Better: "lower", Moves: "informational"},
	{Name: "server.shed_total", Unit: "count", Better: "lower", Moves: "failed requests on all"},
	{Name: "server.http_5xx_total", Unit: "count", Better: "lower", Moves: "failed requests on all"},

	{Name: "retrieval.refine_self_us", Unit: "us", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "retrieval.log_columns_extend_us", Unit: "us", Better: "lower", Moves: "refine_p50_ms on ingest-commit"},
	{Name: "retrieval.initial_query_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on feedback-large"},
	{Name: "retrieval.commit_self_us", Unit: "us", Better: "lower", Moves: "commit_p50_ms on ingest-commit"},
	{Name: "retrieval.add_images_us_per_image", Unit: "us", Better: "lower", Moves: "ingest_p50_ms on ingest-commit"},
	{Name: "retrieval.engine_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s, recover_s on feedback-large, ingest-commit"},

	{Name: "core.select_ms", Unit: "ms", Better: "lower", Moves: "refine_p50_ms on feedback-paper, feedback-large"},
	{Name: "core.train_coupled_ms", Unit: "ms", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "core.final_scan_ms", Unit: "ms", Better: "lower", Moves: "refine_p50_ms on feedback-large"},
	{Name: "core.svm_scan_ms", Unit: "ms", Better: "lower", Moves: "refine_p50_ms on feedback-large, ingest-commit"},
	{Name: "core.euclid_scan_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on feedback-large"},
	{Name: "core.topk_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on feedback-large"},
	{Name: "core.ann_scan_us", Unit: "us", Better: "lower", Moves: "informational (lane audit)"},
	{Name: "core.quant_scan_us", Unit: "us", Better: "lower", Moves: "informational (lane audit)"},
	{Name: "core.ann_recall_at_20", Unit: "ratio", Better: "higher", Moves: "informational (lane audit)"},
	{Name: "core.retrainings", Unit: "count", Better: "lower", Moves: "explains core.train_coupled_ms on feedback-small"},
	{Name: "core.solver_iterations", Unit: "count", Better: "lower", Moves: "explains core.train_coupled_ms on feedback-small"},
	{Name: "core.label_flips", Unit: "count", Better: "lower", Moves: "explains core.train_coupled_ms on feedback-small"},
	{Name: "core.batch_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on feedback-large"},
	{Name: "core.batch_grow_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms on ingest-commit"},

	{Name: "svm.train_us", Unit: "us", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "svm.iterations", Unit: "count", Better: "lower", Moves: "explains svm.train_us"},
	{Name: "svm.decision_set_ns_per_row", Unit: "ns", Better: "lower", Moves: "refine_p50_ms on feedback-large"},

	{Name: "kernel.gram_us", Unit: "us", Better: "lower", Moves: "refine_p50_ms on feedback-small"},
	{Name: "kernel.evalset_ns_per_row", Unit: "ns", Better: "lower", Moves: "refine_p50_ms, query_p50_ms on feedback-large"},
	{Name: "kernel.accumulate_ns_per_row_sv", Unit: "ns", Better: "lower", Moves: "refine_p50_ms on feedback-large"},
	{Name: "kernel.scan_bytes_per_query", Unit: "bytes", Better: "lower", Moves: "context, computed not measured"},
	{Name: "kernel.ivf_build_ms", Unit: "ms", Better: "lower", Moves: "informational (lane audit; would land in setup_s)"},
	{Name: "kernel.ivf_probe_us", Unit: "us", Better: "lower", Moves: "informational (lane audit)"},
	{Name: "kernel.quant_build_ms", Unit: "ms", Better: "lower", Moves: "informational (lane audit; would land in setup_s)"},

	{Name: "feedbacklog.add_session_us", Unit: "us", Better: "lower", Moves: "commit_p50_ms on ingest-commit"},
	{Name: "feedbacklog.relevance_vectors_ms", Unit: "ms", Better: "lower", Moves: "setup_s; refine_p50_ms on ingest-commit"},
	{Name: "feedbacklog.extend_vectors_us", Unit: "us", Better: "lower", Moves: "refine_p50_ms on ingest-commit"},

	{Name: "storage.append_session_us", Unit: "us", Better: "lower", Moves: "commit_p50_ms on ingest-commit"},
	{Name: "storage.append_images_us_per_image", Unit: "us", Better: "lower", Moves: "ingest_p50_ms on ingest-commit"},
	{Name: "storage.fsyncs_per_commit", Unit: "count", Better: "lower", Moves: "explains storage.append_session_us"},
	{Name: "storage.bytes_per_commit", Unit: "bytes", Better: "lower", Moves: "explains storage.append_session_us"},
	{Name: "storage.append_retries", Unit: "count", Better: "lower", Moves: "explains storage.append_session_us"},
	{Name: "storage.snapshot_ms", Unit: "ms", Better: "lower", Moves: "recover_s on ingest-commit"},
	{Name: "storage.replay_ms", Unit: "ms", Better: "lower", Moves: "recover_s on ingest-commit"},
	{Name: "storage.load_features_ms", Unit: "ms", Better: "lower", Moves: "setup_s on feedback-large"},

	{Name: "metrics.write_text_us", Unit: "us", Better: "lower", Moves: "informational"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "cost of recording spans, handler p50 with vs without"},
	{Name: "trace.residual_share.query", Unit: "ratio", Better: "lower", Moves: "error bar of the query layer table"},
	{Name: "trace.residual_share.refine", Unit: "ratio", Better: "lower", Moves: "error bar of the refine layer table"},
	{Name: "trace.residual_share.commit", Unit: "ratio", Better: "lower", Moves: "error bar of the commit layer table"},
	{Name: "trace.residual_share.ingest", Unit: "ratio", Better: "lower", Moves: "error bar of the ingest layer table"},
}
