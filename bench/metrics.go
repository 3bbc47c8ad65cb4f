package main

import "strings"

// endToEnd lists the gated end-to-end metrics every workload reports, in
// BENCHMARK.json's order.
var endToEnd = []string{
	"setup_s",
	"programs_per_cpu_s",
	"run_p50_ms",
	"batch_p50_ms",
	"allocs_per_program",
	"peak_rss_mb",
}

// perLayer lists the per-layer metrics every workload's traced run
// reports, in BENCHMARK.json's order. The traced run prints more (server,
// client, cluster, memo, pipeline), but only on the workloads whose path
// has that layer.
var perLayer = []string{
	"aob.and_ns", "aob.xor_ns", "aob.not_ns", "aob.cnot_ns", "aob.ccnot_ns",
	"aob.cswap_ns", "aob.had_ns", "aob.meas_ns", "aob.next_ns", "aob.pop_ns",
	"re.and_ns", "re.or_ns", "re.xor_ns", "re.not_ns", "re.meas_ns", "re.next_ns", "re.pop_ns",
	"qat.ops_per_program", "qat.word_ops_per_program",
	"asm.assemble_us", "lint.analyze_us", "profile.compute_us", "backend.plan_us", "cpu.run_us",
	"farm.self_us", "farm.pool_hit_frac",
	"gc.cpu_frac",
}

// unitOf returns a metric's unit, read from its name's suffix.
func unitOf(name string) string {
	base := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 && (strings.HasSuffix(name, ".run") || strings.HasSuffix(name, ".batch")) {
		base = name[:i]
	}
	switch {
	case name == "sim_cpi":
		return "cycles/inst"
	case strings.HasSuffix(base, "_per_cpu_s"), strings.HasSuffix(base, "_per_s"):
		return "1/s"
	case strings.HasSuffix(base, "_ms"):
		return "ms"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_ns"):
		return "ns"
	case strings.HasSuffix(base, "_s"):
		return "s"
	case strings.HasSuffix(base, "_mb"):
		return "MiB"
	case strings.HasSuffix(base, "_pct"):
		return "%"
	case strings.HasSuffix(base, "_frac"):
		return "ratio"
	}
	return "count"
}
