"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names and units; a test keeps the two
in step.  A traced run reports every per-layer metric: a layer a
workload does not exercise (the WAL on ``da-reads``, the event loop on
``offline-opt``) reads 0.
"""

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "kernel_rps": "req/s",
    "opt_solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

RECOVERY_TIERS = ("volatile", "log-fresh", "log-stale", "log-empty", "log-unverified")

PER_LAYER = {
    "loop.tasks_per_req": "1/req",
    "loop.timers_per_req": "1/req",
    "loop.lag_p99_ms": "ms",
    "gc.pause_ms_per_kreq": "ms/kreq",
    "loadgen.client_overhead_us": "us",
    "node.service_p50_ms": "ms",
    "node.service_p99_ms": "ms",
    "node.io_per_req": "1/req",
    "rpc.frames_per_req": "1/req",
    "rpc.bytes_per_req": "B/req",
    "rpc.encode_us_per_req": "us",
    "rpc.decode_us_per_req": "us",
    "transport.send_us_p50": "us",
    "transport.done_per_req": "1/req",
    "transport.ctrl_per_req": "1/req",
    "transport.data_per_req": "1/req",
    "protocol.self_us_per_req": "us",
    "resilience.dedup_us_per_req": "us",
    "resilience.retries_sent": "count",
    "resilience.dedup_hits": "count",
    "wal.appends_per_write": "1/write",
    "wal.bytes_per_write": "B/write",
    "wal.append_us_p50": "us",
    "wal.append_us_p99": "us",
    "snapshot.saves_per_kreq": "1/kreq",
    "snapshot.save_ms_p50": "ms",
    "durability.recover_ms_p50": "ms",
    **{f"durability.recoveries.{tier}": "count" for tier in RECOVERY_TIERS},
    "kernel.compile_s": "s",
    "kernel.eval_s": "s",
    "dp.solve_ms_p50": "ms",
    "trace.throughput_rps_untraced": "req/s",
    "trace.throughput_rps_traced": "req/s",
    "trace.overhead_ratio": "ratio",
}
