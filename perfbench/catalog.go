package main

// The metric catalog. Every workload prints every metric of the mode it
// runs in; BENCHMARK.json names the same metrics (the self-test checks
// that the two agree). README.md says what each one measures on each
// workload and which end-to-end metric each layer metric should move.

type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_latency_us", "us"},
	{"peak_heap_mb", "MB"},
}

// perLayer come from the traced run.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"trace_overhead_pct", "%"},
		{"fail_ratio", "ratio"},
		{"ops.attempted", "count"},
		{"ops.failed", "count"},
		{"ops.refused", "count"},
		{"ops.cutoff", "count"},
		{"profile.samples", "count"},
		{"allocs_per_op", "count"},
		{"alloc_mb", "MB"},
		{"sim.switch_ns", "ns"},
		{"sim.schedule_ns", "ns"},
		{"sim.resource_cycle_ns", "ns"},
		{"sim.paced_do_ms", "ms"},
		{"sim.paced_max_lag_ms", "ms"},
		{"clouddir.deploy_cycle_ns", "ns"},
		{"clouddir.deploy_cycle_allocs", "count"},
		{"inventory.prepopulate_s", "s"},
		{"inventory.heap_mb", "MB"},
		{"inventory.place_cycle_ns", "ns"},
		{"rng.reseed_ns", "ns"},
		{"faults.decide_ns", "ns"},
		{"reconcile.runs", "count"},
		{"trace.records", "count"},
		{"analysis.report_s", "s"},
		{"metrics.snapshot_ns", "ns"},
	}
	for _, k := range kindNames {
		m = append(m, metricDef{"api." + k + ".server_p50_ms", "ms"}, metricDef{"api." + k + ".server_p99_ms", "ms"})
	}
	m = append(m,
		metricDef{"api.client_p50_ms", "ms"},
		metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.knee_rps", "1/s"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"api.json_encode_ns", "ns"},
		metricDef{"core.frontend_tasks", "count"},
		metricDef{"api.sessions", "count"},
		metricDef{"model.deploys_per_h", "1/h"},
		metricDef{"model.deploy_p99_s", "s"},
		metricDef{"model.deploy_queue_s", "s"},
		metricDef{"model.deploy_cell_s", "s"},
		metricDef{"model.deploy_mgmt_s", "s"},
		metricDef{"model.deploy_db_s", "s"},
		metricDef{"model.deploy_host_s", "s"},
		metricDef{"model.deploy_data_s", "s"},
		metricDef{"model.mgmt_db_util", "ratio"},
		metricDef{"model.mgmt_admission_wait_s", "s"},
		metricDef{"model.mgmt_retries", "count"},
		metricDef{"model.task_errors", "count"},
		metricDef{"model.task_p99_s", "s"},
		metricDef{"model.api_queue_wait_mean_s", "s"},
	)
	for _, b := range cpuBuckets {
		m = append(m, metricDef{b + ".cpu_pct", "%"})
	}
	return m
}()
