package main

// The metric catalogue. Every workload reports every metric of the list
// its mode selects, so the driver and the tests can hold each run to the
// same schema. A per-layer metric of a layer the workload bypasses reads
// 0: that is the measured outcome, and it is the "bypassed" half of the
// one-exercises/one-bypasses pairing README.md describes.
//
// BENCHMARK.json at the repository root lists the same names and units;
// TestCatalogMatchesBenchmarkJSON keeps the two in step.

type metricDef struct {
	name string
	unit string
}

// e2eMetrics are defined on every workload (README.md gives each
// workload's reading of "op" and of "request").
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"cpu_us_op", "us"},
	{"p50_ms", "ms"},
}

var layerMetrics = []metricDef{
	// The workloads' own headline figures, taken in the traced run (the
	// untraced run prints them on its text lines).
	{"ingest.ops_s", "1/s"},
	{"ingest.recover_s", "s"},
	{"live.ack_p50_ms", "ms"},
	{"live.ack_p99_ms", "ms"},
	{"live.notify_p50_ms", "ms"},
	{"live.notify_p99_ms", "ms"},
	{"live.notify_samples", "count"},
	{"live.read_p50_ms", "ms"},
	{"solve.solve_s", "s"},
	{"solve.graph_I", "count"},
	{"solve.sinr_I", "count"},

	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},

	{"wire.bytes_in_per_op", "B"},
	{"wire.bytes_out_per_op", "B"},
	{"wire.submit_us", "us"},
	{"wire.events_recv", "count"},
	{"wire.event_gaps", "count"},

	{"serve.batches_per_s", "1/s"},
	{"serve.ops_per_batch", "count"},
	{"serve.coalesced_frac", "frac"},
	{"serve.batch_us_p50", "us"},
	{"serve.batch_us_p99", "us"},
	{"serve.busy_frac", "frac"},
	{"serve.self_us_p50", "us"},

	{"store.bytes_per_op", "B"},
	{"store.write_us_per_op", "us"},
	{"store.writes_per_batch", "count"},
	{"store.fsyncs", "count"},
	{"store.fsync_ms_p50", "ms"},
	{"store.scan_s", "s"},

	{"repl.bytes_per_op", "B"},
	{"repl.lag_p50_ms", "ms"},
	{"repl.lag_p99_ms", "ms"},
	{"repl.catchup_ms", "ms"},
	{"repl.follower_batch_us_p50", "us"},
	{"repl.follower_busy_frac", "frac"},
	{"repl.gaps", "count"},
	{"repl.resyncs", "count"},

	{"recover.replayed_muts", "count"},
	{"recover.verify_s", "s"},

	{"sub.match_us_p50", "us"},
	{"sub.busy_frac", "frac"},
	{"sub.checked_per_batch", "count"},
	{"sub.hit_frac", "frac"},
	{"sub.dropped", "count"},

	{"dynamic.rebuilds", "count"},
	{"dynamic.rebuild_ms_p50", "ms"},
	{"dynamic.churn_batch_ms_p50", "ms"},

	{"core.calls_per_op", "count"},
	{"core.call_us_mean", "us"},
	{"core.move_us_mean", "us"},
	{"core.setradius_us_mean", "us"},
	{"core.busy_frac", "frac"},

	{"phys.calls_per_iter", "count"},
	{"phys.setradius_us_mean", "us"},
	{"phys.busy_frac", "frac"},

	{"opt.anneal_graph_s", "s"},
	{"opt.anneal_sinr_s", "s"},
	{"opt.exact_s", "s"},
	{"opt.exact_visited", "count"},
	{"opt.self_frac", "frac"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_kop", "MiB"},

	{"ledger.notify_explained_frac", "frac"},
	{"ledger.ingest_explained_frac", "frac"},

	{"trace.overhead_cpu_frac", "frac"},
	{"trace.overhead_p50_frac", "frac"},
}

// zeroLayers sets every per-layer metric to 0, the reading of a layer
// the workload bypasses; each workload then overwrites what it measures.
func zeroLayers(rep *report) {
	for _, m := range layerMetrics {
		rep.layer[m.name] = 0
	}
}
