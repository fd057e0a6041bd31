package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; bench_test.go fails when they drift.
type metricDef struct {
	Name, Unit string
	Higher     bool // higher is better
	// Bound is the share of the baseline by which an end-to-end metric
	// may get worse before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd is what a user of the array sees. error_rate is not among
// them because it is 0 on every healthy run and a relative bound on 0
// means nothing; it is printed, written to the result file, and carried
// by the final JSON line as correct/attempted/failed instead.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"mb_s", "MB/s", true, 0.25},
	{"read_p50_us", "us", false, 0.25},
	{"write_p50_us", "us", false, 0.25},
	{"read_p99_us", "us", false, 0.25},
	{"write_p99_us", "us", false, 0.25},
	{"rebuild_s", "s", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
}

// perLayer is the traced run's table: timings are medians of calls into
// a layer's public functions made by the benchmark, counts are diffs of
// the layer's public Stats() snapshots. README.md says which end-to-end
// metric each should move.
var perLayer = []metricDef{
	{Name: "pdl.build_us", Unit: "us"},
	{Name: "pdl.layout_units_per_disk", Unit: "count"},
	{Name: "pdl.map_ns", Unit: "ns"},

	{Name: "code.encode_ns", Unit: "ns"},
	{Name: "code.update_ns", Unit: "ns"},
	{Name: "code.reconstruct_ns", Unit: "ns"},

	{Name: "plan.compile_ns", Unit: "ns"},
	{Name: "plan.steps_per_op", Unit: "count"},

	{Name: "store.read_ns", Unit: "ns"},
	{Name: "store.write_ns", Unit: "ns"},
	{Name: "store.disk_reads_per_op", Unit: "count"},
	{Name: "store.disk_writes_per_op", Unit: "count"},
	{Name: "store.disk_bytes_per_user_byte", Unit: "ratio"},
	{Name: "store.degraded_op_ratio", Unit: "ratio"},

	{Name: "store.rebuild_mb_s", Unit: "MB/s", Higher: true},
	{Name: "store.rebuild_survivor_read_fraction", Unit: "ratio"},
	{Name: "store.rebuild_read_imbalance", Unit: "ratio"},
	{Name: "store.rebuild_allocs", Unit: "count"},

	{Name: "store.backend_read_ns", Unit: "ns"},
	{Name: "store.backend_write_ns", Unit: "ns"},

	{Name: "serve.frontend_do_ns", Unit: "ns"},
	{Name: "serve.batch_mean_ops", Unit: "count", Higher: true},
	{Name: "serve.flush_deadline_ratio", Unit: "ratio"},
	{Name: "serve.rejected", Unit: "count"},

	{Name: "serve.tcp_rtt_ns", Unit: "ns"},
	{Name: "serve.span_ns", Unit: "ns"},

	{Name: "cluster.locate_ns", Unit: "ns"},
	{Name: "cluster.span_ns", Unit: "ns"},
	{Name: "cluster.legs_per_op", Unit: "count"},
	{Name: "cluster.retries", Unit: "count"},
	{Name: "cluster.failures", Unit: "count"},

	{Name: "obs.record_ns", Unit: "ns"},

	{Name: "proc.allocs_per_op", Unit: "count"},
	{Name: "proc.cpu_us_per_op", Unit: "us"},
	{Name: "proc.gc_pause_us", Unit: "us"},
}
