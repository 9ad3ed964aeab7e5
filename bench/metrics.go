package main

// metric is one reported number, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: BENCHMARK.json is checked against these
// tables by the tests, and the program prints exactly these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the gated metrics, reported by every workload. Each
// bound is at least three times the widest spread (IQR over median)
// seen across ten runs on ten seeds — not across repeats of one seed,
// where allocations repeat to 1e-5; README has the numbers.
var endToEnd = []metricDef{
	{"time_s", "s", "lower", 0.20},
	{"allocs_per_iter", "count", "lower", 0.05},
	{"alloc_mb_per_iter", "MB", "lower", 0.04},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// mustBeZero are printed and folded into the driver's correct/failed
// fields; they cannot be gated as shares of a median that is 0.
var mustBeZero = []metricDef{
	{"failed_frac", "ratio", "lower", 0},
	{"sim_mismatches", "count", "lower", 0},
}

// perLayer are the traced pass's metrics. The first block comes from
// the layer ladder and is the same whatever the workload; the last
// block is measured on the workload being traced.
var perLayer = []metricDef{
	{Name: "clock.step_ns", Unit: "ns", Better: "lower"},
	{Name: "clock.step_ns_32timers", Unit: "ns", Better: "lower"},
	{Name: "clock.afterfunc_ns", Unit: "ns", Better: "lower"},
	{Name: "clock.runfor_empty_ns", Unit: "ns", Better: "lower"},
	{Name: "clock.allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "core.epoch_ns", Unit: "ns", Better: "lower"},
	{Name: "core.epoch_events", Unit: "count", Better: "lower"},
	{Name: "core.epoch_allocs", Unit: "count", Better: "lower"},
	{Name: "core.launch_us", Unit: "us", Better: "lower"},

	{Name: "node.us_per_node_s", Unit: "us", Better: "lower"},
	{Name: "node.events_per_node_s", Unit: "count", Better: "lower"},
	{Name: "memsim.us_per_sim_s", Unit: "us", Better: "lower"},

	{Name: "agents.overclock.us_per_node_s", Unit: "us", Better: "lower"},
	{Name: "agents.overclock.events_per_node_s", Unit: "count", Better: "lower"},
	{Name: "agents.harvest.us_per_node_s", Unit: "us", Better: "lower"},
	{Name: "agents.harvest.events_per_node_s", Unit: "count", Better: "lower"},
	{Name: "agents.memory.us_per_node_s", Unit: "us", Better: "lower"},
	{Name: "agents.memory.events_per_node_s", Unit: "count", Better: "lower"},
	{Name: "agents.sampler.us_per_node_s", Unit: "us", Better: "lower"},
	{Name: "agents.sampler.events_per_node_s", Unit: "count", Better: "lower"},

	{Name: "stats.window_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "ml.qlearn_step_ns", Unit: "ns", Better: "lower"},
	{Name: "ml.linear_update_ns", Unit: "ns", Better: "lower"},
	{Name: "ml.bandit_select_ns", Unit: "ns", Better: "lower"},

	{Name: "fleet.supervisor_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fleet.build_us_per_node", Unit: "us", Better: "lower"},
	{Name: "fleet.build_allocs_per_node", Unit: "count", Better: "lower"},
	{Name: "fleet.live_kb_per_node", Unit: "KB", Better: "lower"},
	{Name: "fleet.report_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.stopall_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.health_poll_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.replace_us", Unit: "us", Better: "lower"},
	{Name: "fleet.stepped_over_batch", Unit: "ratio", Better: "lower"},

	{Name: "shard.span_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.empty_epoch_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.step_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.free_frac", Unit: "ratio", Better: "higher"},
	{Name: "shard.align_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.epochs", Unit: "count", Better: "lower"},
	{Name: "shard.stepped_advances", Unit: "count", Better: "lower"},
	{Name: "shard.free_advances", Unit: "count", Better: "lower"},
	{Name: "shard.parallel_speedup", Unit: "ratio", Better: "higher"},

	{Name: "controlplane.campaign_over_plain", Unit: "ratio", Better: "lower"},
	{Name: "controlplane.classic_over_sharded1", Unit: "ratio", Better: "lower"},
	{Name: "controlplane.decisions", Unit: "count", Better: "lower"},
	{Name: "controlplane.manifest_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.resume_over_run", Unit: "ratio", Better: "lower"},
	{Name: "spec.resolve_us", Unit: "us", Better: "lower"},

	{Name: "obs.profile_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_events", Unit: "count", Better: "lower"},
	{Name: "obs.trace_drops", Unit: "count", Better: "lower"},
	{Name: "obs.chrome_export_ms", Unit: "ms", Better: "lower"},

	{Name: "experiments.fig3_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig6delay_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig7_s", Unit: "s", Better: "lower"},

	{Name: "gc.cycles_per_iter", Unit: "count", Better: "lower"},
	{Name: "gc.pause_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "gc.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadLayer are the perLayer names measured on the traced workload
// rather than by the ladder.
var workloadLayer = map[string]bool{
	"gc.cycles_per_iter":        true,
	"gc.pause_ms_per_iter":      true,
	"gc.cpu_frac":               true,
	"bench.trace_overhead_frac": true,
}

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}
