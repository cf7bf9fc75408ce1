"""Metric names and units, in the order the benchmark prints them.

``GATED`` is what the last output line carries in an untraced run: the
metrics every workload has that stay steady from run to run. Times are at
reference speed (see ``reference.py``).
``REPORT`` is the full end-to-end report printed above it, where a metric
reads ``n/a`` on workloads without that kind of operation. ``LAYER`` is what a traced run carries; a layer that a workload
does not run reads 0 there.
"""

GATED = {
    "setup_s": "s",          # build + save + load of every served index, median of reps
    "p50_us": "us",          # median latency of the workload's query mode
    "p99_us": "us",          # 99th percentile latency of the workload's query mode
    "index_bytes": "B",      # saved RQEIDX1 files
    "peak_rss_mb": "MB",     # ru_maxrss of the workload process
}

REPORT = {
    "setup_s": "s",
    "exact_p50_us": "us",
    "exact_p99_us": "us",
    "deterministic_p50_us": "us",
    "deterministic_p99_us": "us",
    "approx_p50_us": "us",
    "approx_p99_us": "us",
    "queries_per_s": "1/s",
    "partition_s": "s",
    "index_bytes": "B",
    "peak_rss_mb": "MB",
    "error_frac": "ratio",
    "approx_miss_frac": "ratio",
}

LAYER = {
    "exact1d.build_s": "s",
    "exact1d.table_entries": "count",
    "exact1d.query_us": "us",
    "exact1d.fringe_points": "count",
    "exact1d.table_hit_frac": "ratio",
    "exact1d.speedup_vs_brute": "ratio",
    "exactnd.build_s": "s",
    "exactnd.query_us": "us",
    "exactnd.bucket_visits": "count",
    "exactnd.memo_hit_frac": "ratio",
    "exactnd.memo_entries": "count",
    "exactnd.speedup_vs_brute": "ratio",
    "rangetree.build_s": "s",
    "rangetree.canonical_nodes": "count",
    "rangetree.canonical_us": "us",
    "rangetree.eval_us": "us",
    "approx_shannon.additive_us": "us",
    "approx_shannon.multiplicative_us": "us",
    "approx_shannon.samples": "count",
    "approx_shannon.us_per_sample": "us",
    "approx_shannon.fallback_frac": "ratio",
    "approx_shannon.heavy_frac": "ratio",
    "approx_renyi.additive_us": "us",
    "approx_renyi.multiplicative_us": "us",
    "approx_renyi.samples": "count",
    "approx_renyi.samples_only_frac": "ratio",
    "sweep1d.shannon_build_s": "s",
    "sweep1d.renyi_build_s": "s",
    "sweep1d.ladder_entries": "count",
    "sweep1d.qualifying_nodes": "count",
    "sweep1d.query_us": "us",
    "partition.maxpart_dp_s": "s",
    "partition.maxpart_approx_s": "s",
    "partition.sumpart_s": "s",
    "partition.tree_split_s": "s",
    "partition.backend_calls": "count",
    "partition.backend_s": "s",
    "partition.self_s": "s",
    "storage.save_s": "s",
    "storage.load_s": "s",
    "storage.bytes_per_point": "B/point",
    "oracle.brute_us": "us",
    "trace.overhead_frac": "ratio",
}
