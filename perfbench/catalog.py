"""The benchmark's metric catalogue, mirrored by ``BENCHMARK.json``.

``tests/test_perfbench.py`` checks that the two agree, so a metric is
added or renamed here and in ``BENCHMARK.json`` together.
"""

#: name -> (unit, better, bound): what every untraced run prints.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "req_per_s": ("1/s", "higher", 0.25),
    "warm_mean_ms": ("ms", "lower", 0.25),
    "warm_p99_ms": ("ms", "lower", 0.25),
    "cold_p50_ms": ("ms", "lower", 0.25),
    "cold_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, better): what every traced run prints.  A layer that
#: a workload does not run reports 0.
PER_LAYER = {
    "uts.nodes": ("count", "higher"),
    "uts.self_s": ("s", "lower"),
    "uts.ns_per_node": ("ns", "lower"),
    "net.placement_s": ("s", "lower"),
    "net.latency_lookups": ("count", "lower"),
    "net.self_s": ("s", "lower"),
    "select.draws": ("count", "lower"),
    "select.self_s": ("s", "lower"),
    "protocol.messages": ("count", "lower"),
    "protocol.self_s": ("s", "lower"),
    "protocol.us_per_message": ("us", "lower"),
    "protocol.steal_requests": ("count", "lower"),
    "protocol.failed_steals": ("count", "lower"),
    "protocol.success_ratio": ("ratio", "higher"),
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.windows": ("count", "lower"),
    "sim.events_per_window": ("count", "higher"),
    "mp.rounds": ("count", "lower"),
    "mp.round_trips": ("count", "lower"),
    "mp.coordinator_wait_s": ("s", "lower"),
    "mp.max_worker_busy_s": ("s", "lower"),
    "mp.sum_worker_busy_s": ("s", "lower"),
    "mp.bytes": ("B", "lower"),
    "ws.finalize_s": ("s", "lower"),
    "exec.executions": ("count", "lower"),
    "exec.fingerprint_us": ("us", "lower"),
    "exec.pool_overhead_ms": ("ms", "lower"),
    "service.submit_us": ("us", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.exec_ms": ("ms", "lower"),
    "service.hit_ratio": ("ratio", "higher"),
    "service.dedup_joins": ("count", "higher"),
    "store.gets": ("count", "lower"),
    "store.get_us": ("us", "lower"),
    "store.puts": ("count", "lower"),
    "store.put_ms": ("ms", "lower"),
    "store.evictions": ("count", "lower"),
    "store.bytes_written": ("B", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}
