package main

// metric names one reported figure. The two tables below are the contract
// BENCHMARK.json describes; TestMetricTablesMatchBenchmarkJSON keeps them
// in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the simulator sees, printed with --trace 0.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"requests_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"mallocs_per_request", "count", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"ok_frac", "fraction", "higher"},
}

// perLayer is printed with --trace 1. A metric a workload does not
// exercise reads 0 (cluster.* off fleet-16, checkpoint.* off faults-ckpt).
var perLayer = []metric{
	{"workload.generate_s", "s", "lower"},
	{"des.events", "count", "lower"},
	{"des.events_per_request", "count", "lower"},
	{"des.host_ns_per_event", "ns", "lower"},
	{"des.ns_per_event", "ns", "lower"},
	{"array.self_ns_per_request", "ns", "lower"},
	{"array.mallocs_per_request", "count", "lower"},
	{"array.background_ops", "count", "lower"},
	{"array.migrations", "count", "lower"},
	{"array.resume_s", "s", "lower"},
	{"policy.epoch_calls", "count", "lower"},
	{"policy.epoch_us", "us", "lower"},
	{"policy.epoch_frac", "fraction", "lower"},
	{"policy.target_ns", "ns", "lower"},
	{"policy.complete_ns", "ns", "lower"},
	{"policy.idle_ns", "ns", "lower"},
	{"policy.failure_hook_us", "us", "lower"},
	{"policy.self_frac", "fraction", "lower"},
	{"experiment.overhead_frac", "fraction", "lower"},
	{"cluster.attempts", "count", "lower"},
	{"cluster.events_per_request", "count", "lower"},
	{"cluster.ns_per_attempt", "ns", "lower"},
	{"cluster.policy_frac", "fraction", "lower"},
	{"cluster.mallocs_per_request", "count", "lower"},
	{"opsserver.scrape_ms", "ms", "lower"},
	{"checkpoint.snapshots", "count", "lower"},
	{"checkpoint.state_mb", "MB", "lower"},
	{"checkpoint.encode_ms_per_mb", "ms/MB", "lower"},
	{"checkpoint.decode_ms_per_mb", "ms/MB", "lower"},
	{"checkpoint.tick_frac", "fraction", "lower"},
	{"faults.failures", "count", "higher"},
	{"faults.repairs", "count", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}
