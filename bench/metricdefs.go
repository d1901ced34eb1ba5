package main

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// lists the same names, units and directions; a test holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share by which an end-to-end metric may worsen before
	// a change counts as a regression (end-to-end metrics only).
	Bound float64
}

// endToEnd are the metrics a user of the system sees, the same five on
// every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers. The ladder rows come from the
// traced in-process run and are the same whichever workload is named; the
// rows a workload lists as its Layers come from that workload's children
// and read 0 on a workload that does not start them, which is the statement
// that the workload bypasses the layer.
var perLayer = []metricDef{
	{Name: "population.build_accounts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "persist.write_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "persist.read_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "persist.read_range_s", Unit: "s", Better: "lower"},
	{Name: "persist.snapshot_bytes_per_account", Unit: "B", Better: "lower"},

	{Name: "twitter.followers_page_us", Unit: "us", Better: "lower"},
	{Name: "twitter.followers_page_allocs", Unit: "count", Better: "lower"},
	{Name: "twitter.profiles_100_us", Unit: "us", Better: "lower"},
	{Name: "twitter.timeline_200_us", Unit: "us", Better: "lower"},
	{Name: "twitter.add_follower_ns", Unit: "ns", Better: "lower"},
	{Name: "twitter.remove_followers_ms", Unit: "ms", Better: "lower"},
	{Name: "twitter.unfollow_ms", Unit: "ms", Better: "lower"},
	{Name: "twitter.edge_bytes_per_edge", Unit: "B", Better: "lower"},

	{Name: "twitterapi.service_follower_ids_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.http_follower_ids_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.http_follower_ids_allocs", Unit: "count", Better: "lower"},
	{Name: "twitterapi.http_users_lookup_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.http_user_timeline_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.http_friends_ids_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.http_users_show_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.loopback_follower_ids_us", Unit: "us", Better: "lower"},
	{Name: "twitterapi.response_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "twitterd.handler_mean_us", Unit: "us", Better: "lower"},
	{Name: "twitterd.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "twitterd.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "ratelimit.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "ratelimit.allow_unlimited_ns", Unit: "ns", Better: "lower"},
	{Name: "ratelimit.reserve_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.middleware_overhead_us", Unit: "us", Better: "lower"},

	{Name: "router.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "router.forward_follower_ids_us", Unit: "us", Better: "lower"},
	{Name: "router.scatter_lookup_us", Unit: "us", Better: "lower"},
	{Name: "router.resolve_name_us", Unit: "us", Better: "lower"},
	{Name: "routerd.handler_mean_us", Unit: "us", Better: "lower"},
	{Name: "routerd.upstream_mean_us", Unit: "us", Better: "lower"},
	{Name: "router.upstream_per_request", Unit: "count", Better: "lower"},
	{Name: "router.hedges_per_1k", Unit: "count", Better: "lower"},
	{Name: "router.hedge_wins_per_1k", Unit: "count", Better: "higher"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.ejections", Unit: "count", Better: "lower"},
	{Name: "routerd.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "routerd.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "wal.append_follow_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_purge_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.compactions", Unit: "count", Better: "lower"},
	{Name: "wal.compaction_s_mean", Unit: "s", Better: "lower"},
	{Name: "wal.open_seeded_s", Unit: "s", Better: "lower"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower"},
	{Name: "wal.recovery_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.always_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "churn.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "churn.settled_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "auditd.job_ms.fakeproject-fc", Unit: "ms", Better: "lower"},
	{Name: "auditd.job_ms.twitteraudit", Unit: "ms", Better: "lower"},
	{Name: "auditd.job_ms.statuspeople", Unit: "ms", Better: "lower"},
	{Name: "auditd.job_ms.socialbakers", Unit: "ms", Better: "lower"},
	{Name: "auditd.api_calls_per_job", Unit: "count", Better: "lower"},
	{Name: "auditd.api_share_pct", Unit: "%", Better: "lower"},
	{Name: "auditd.engine_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "auditd.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "auditd.cached_submit_us", Unit: "us", Better: "lower"},
	{Name: "auditd.jobs_failed", Unit: "count", Better: "lower"},
	{Name: "auditd.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "auditd.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.slo_miss_pct", Unit: "%", Better: "lower"},
	{Name: "client.ops_timed", Unit: "count", Better: "higher"},
	{Name: "host.quiet_window_share", Unit: "share", Better: "higher"},
	{Name: "host.steal_pct", Unit: "%", Better: "lower"},
	{Name: "host.clock_scale", Unit: "share", Better: "higher"},
	{Name: "host.windows_used", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) (string, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}
