package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline by which an end-to-end metric may
	// worsen before it counts as a regression (absolute for the two
	// shares in ungated). Per-layer metrics have none.
	bound float64
}

// endToEnd are the gated metrics, one value per workload. The bounds are
// the widest the run contract allows: the shared 2-vCPU box the numbers
// are taken on runs CPU-bound work 1.4–1.8 times slower for minutes at a
// time, and even these timer-dominated figures move by up to 14 % with it
// (README "Steadiness").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "lat_p90_ms", unit: "ms", better: "lower", bound: 0.25},
}

// ungated are end-to-end too and printed beside the others, but stay out
// of BENCHMARK.json's end_to_end list. cpu_ms_per_req is CPU time, which
// the host's slow phases inflate by a quarter and more — past any bound the
// contract allows — so the driver gets it as proc.cpu_ms_per_req of the
// traced run, without a bound. failed_share is 0 on every healthy run (the
// run contract wants metrics that are never 0, and carries failures in its
// own "failed" field), and top1_acc over the ≈ 50 requests of a cold_users
// window cannot hold a 0.02 bound. The shares' bounds are absolute.
var ungated = []metricDef{
	{name: "cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "top1_acc", unit: "share", better: "higher", bound: 0.02},
	{name: "failed_share", unit: "share", better: "lower", bound: 0},
}

// allEndToEnd is everything a run reports per workload.
var allEndToEnd = append(append([]metricDef(nil), endToEnd...), ungated...)

// perLayer are the layer ledger's metrics, layer = module name. A traced
// run prints every one of them; a metric its workload cannot produce
// (the gateway's on warm_direct) reads 0.
var perLayer = []metricDef{
	{name: "client.sent", unit: "count", better: "higher"},
	{name: "client.ok", unit: "count", better: "higher"},
	{name: "client.failed", unit: "count", better: "lower"},
	{name: "client.top1_acc", unit: "share", better: "higher"},
	{name: "client.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "client.lat_max_ms", unit: "ms", better: "lower"},
	{name: "client.wire_self_us", unit: "us", better: "lower"},

	{name: "workload.gen_us_per_event", unit: "us", better: "lower"},
	{name: "workload.distinct_keys", unit: "count", better: "higher"},
	{name: "workload.distinct_users", unit: "count", better: "higher"},

	{name: "cluster.requests", unit: "count", better: "higher"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.wrong_owner", unit: "count", better: "lower"},
	{name: "cluster.shed", unit: "count", better: "lower"},
	{name: "cluster.busiest_shard_share", unit: "share", better: "lower"},
	{name: "cluster.route_key_ns", unit: "ns", better: "lower"},
	{name: "cluster.ring_lookup_ns", unit: "ns", better: "lower"},
	{name: "cluster.hop_self_us", unit: "us", better: "lower"},

	{name: "serve.requests", unit: "count", better: "higher"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.cache_hits", unit: "count", better: "higher"},
	{name: "serve.cache_misses", unit: "count", better: "lower"},
	{name: "serve.singleflight_shared", unit: "count", better: "higher"},
	{name: "serve.cache_evictions", unit: "count", better: "lower"},
	{name: "serve.hit_ratio", unit: "share", better: "higher"},
	{name: "serve.batches", unit: "count", better: "lower"},
	{name: "serve.mean_batch", unit: "count", better: "higher"},
	{name: "serve.queue_wait_mean_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_p99_us", unit: "us", better: "lower"},
	{name: "serve.forward_mean_us", unit: "us", better: "lower"},
	{name: "serve.forward_busy_s", unit: "s", better: "lower"},
	{name: "serve.personalize_runs", unit: "count", better: "lower"},
	{name: "serve.personalize_mean_ms", unit: "ms", better: "lower"},
	{name: "serve.personalize_busy_s", unit: "s", better: "lower"},
	{name: "serve.compiles", unit: "count", better: "lower"},
	{name: "serve.compile_mean_ms", unit: "ms", better: "lower"},
	{name: "serve.compiled_share", unit: "share", better: "higher"},
	{name: "serve.compiled_bytes", unit: "bytes", better: "lower"},
	{name: "serve.guard_trips", unit: "count", better: "lower"},
	{name: "serve.heals", unit: "count", better: "lower"},
	{name: "serve.fallback_served", unit: "count", better: "lower"},
	{name: "serve.wire_self_us", unit: "us", better: "lower"},
	{name: "serve.handle_self_us", unit: "us", better: "lower"},
	{name: "serve.queue_cache_self_us", unit: "us", better: "lower"},

	{name: "core.prune_m_ms_p50", unit: "ms", better: "lower"},
	{name: "core.prune_w_ms_p50", unit: "ms", better: "lower"},
	{name: "core.prune_b_us_p50", unit: "us", better: "lower"},
	{name: "core.cold_request_share", unit: "share", better: "lower"},

	{name: "nn.compile_ms", unit: "ms", better: "lower"},
	{name: "nn.infer_compiled_b1_us", unit: "us", better: "lower"},
	{name: "nn.infer_masked_b1_us", unit: "us", better: "lower"},
	{name: "nn.infer_unpruned_b1_us", unit: "us", better: "lower"},
	{name: "nn.infer_compiled_b8_us", unit: "us", better: "lower"},
	{name: "nn.pruned_unit_share", unit: "share", better: "higher"},

	{name: "tensor.matmul_128_us", unit: "us", better: "lower"},

	{name: "proc.cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "proc.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "proc.alloc_mb_per_s", unit: "MB/s", better: "lower"},
	{name: "proc.allocs_per_req", unit: "count", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},

	{name: "trace.r0_vs_timed_pct", unit: "%", better: "lower"},
	{name: "trace.r0_p50_us", unit: "us", better: "lower"},
	{name: "trace.r1_p50_us", unit: "us", better: "lower"},
	{name: "trace.r2_p50_us", unit: "us", better: "lower"},
	{name: "trace.r3_p50_us", unit: "us", better: "lower"},
	{name: "trace.r4_p50_us", unit: "us", better: "lower"},
	{name: "trace.r5_p50_us", unit: "us", better: "lower"},
}

// value is one reported number with its unit, as the run contract spells it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named shapes raw numbers into the reported form, in defs' units; a
// metric the run did not produce reads 0.
func named(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: raw[d.name], Unit: d.unit}
	}
	return out
}
