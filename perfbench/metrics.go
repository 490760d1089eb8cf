package main

// metricDef declares one reported metric; BENCHMARK.json at the
// repository root lists the same names and units (a test keeps them in
// step).
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_heap_mb", "MB"},
}

// perLayerMetrics are printed by every traced run.  A workload that does
// not call a layer reports 0 for that layer's metrics.  Time metrics are
// means per call of the layer function named; count metrics are means
// per op unless the name says otherwise.
var perLayerMetrics = []metricDef{
	// static path: ir -> dsa -> trace -> checker -> report
	{"ir.parse_ms", "ms"},
	{"ir.verify_ms", "ms"},
	{"dsa.analyze_ms", "ms"},
	{"dsa.nodes", "count"},
	{"trace.collect_ms", "ms"},
	{"trace.entries", "count"},
	{"trace.alloc_mb", "MB"},
	{"trace.truncated_funcs", "count"},
	{"checker.scan_ms", "ms"},
	{"checker.warnings", "count"},
	{"report.render_ms", "ms"},
	// dynamic path: apps -> pmem tracker -> dynamic checker -> nvm
	{"apps.base_us_per_op", "us"},
	{"apps.read_p50_us", "us"},
	{"apps.write_p50_us", "us"},
	{"dynamic.tracker_us_per_op", "us"},
	{"dynamic.events_per_op", "count"},
	{"dynamic.overhead_pct", "%"},
	{"dynamic.shadow_cells", "count"},
	{"nvm.fences_per_op", "count"},
	{"nvm.lines_flushed_per_op", "count"},
	{"nvm.bytes_written_per_op", "bytes"},
	// crash path: interp -> crashsim -> faultinj, checker as the flag oracle
	{"interp.exec_ms", "ms"},
	{"crashsim.enumerate_ms", "ms"},
	{"crashsim.steps", "count"},
	{"crashsim.crashes_run", "count"},
	{"crashsim.pruned_frac", "fraction"},
	{"faultinj.injections", "count"},
	{"checker.flag_ms", "ms"},
	// service path: serve -> anacache -> report on the wire
	{"serve.handler_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.shed_frac", "fraction"},
	{"serve.coalesced_frac", "fraction"},
	{"anacache.verdict_hit_frac", "fraction"},
	{"anacache.trace_hit_frac", "fraction"},
	{"report.json_kb", "KB"},
	// whole process, and the benchmark itself
	{"go.gc_cpu_frac", "fraction"},
	{"bench.trace_overhead_pct", "%"},
}
