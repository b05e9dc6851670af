package main

// The benchmark's metric vocabulary. BENCHMARK.json at the repository root
// lists the same names, units and directions, plus the end-to-end bounds
// and why each workload exists; helpers_test.go keeps the two in step.

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_delivery", "us", "lower"},
	{"wall_ms_per_vsec", "ms", "lower"},
	{"deliver_p50_ms", "ms", "lower"},
	{"deliver_p99_ms", "ms", "lower"},
	{"delivery_ratio", "fraction", "higher"},
	{"bytes_per_event", "B", "lower"},
	{"envelopes_per_event", "count", "lower"},
	{"heap_mb_per_node", "MB", "lower"},
}

var perLayer = []metricDef{
	{"core.cpu_share", "fraction", "lower"},
	{"core.tick_round_share", "fraction", "lower"},
	{"core.match_cache_hit_ratio", "fraction", "higher"},
	{"analysis.cpu_share", "fraction", "lower"},
	{"transport.cpu_share", "fraction", "lower"},
	{"transport.messages_dropped", "count", "lower"},
	{"udp.cpu_share", "fraction", "lower"},
	{"udp.syscalls_per_event", "count", "lower"},
	{"udp.datagrams_per_syscall", "count", "higher"},
	{"udp.send_us_per_call", "us", "lower"},
	{"udp.dropped", "count", "lower"},
	{"udp.malformed", "count", "lower"},
	{"wire.cpu_share", "fraction", "lower"},
	{"event.cpu_share", "fraction", "lower"},
	{"binenc.cpu_share", "fraction", "lower"},
	{"wire.bytes_per_envelope", "B", "lower"},
	{"interest.cpu_share", "fraction", "lower"},
	{"interest.match_evals_per_event", "count", "lower"},
	{"interest.match_comparisons_per_event", "count", "lower"},
	{"tree.cpu_share", "fraction", "lower"},
	{"tree.fold_recompiles", "count", "lower"},
	{"tree.fold_cache_hit_ratio", "fraction", "higher"},
	{"membership.cpu_share", "fraction", "lower"},
	{"addr.cpu_share", "fraction", "lower"},
	{"node.cpu_share", "fraction", "lower"},
	{"node.publish_us", "us", "lower"},
	{"node.deliveries_dropped", "count", "lower"},
	{"node.egress_dropped", "count", "lower"},
	{"harness.cpu_share", "fraction", "lower"},
	{"clock.cpu_share", "fraction", "lower"},
	{"harness.clock_events", "count", "lower"},
	{"harness.latency_samples", "count", "higher"},
	{"harness.undelivered", "count", "lower"},
	{"runtime.gc_share", "fraction", "lower"},
	{"runtime.other_share", "fraction", "lower"},
	{"runtime.allocs_per_delivery", "count", "lower"},
	{"runtime.alloc_bytes_per_delivery", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"pmcast.other_share", "fraction", "lower"},
	{"bench.cpu_share", "fraction", "lower"},
	{"bench.generator_late_p99_ms", "ms", "lower"},
	{"trace.overhead_ratio", "fraction", "lower"},
}
