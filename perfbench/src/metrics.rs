//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares the same names; a self-test keeps the two in step.

/// Metrics of the untraced run (`--trace 0`), on every workload.
/// `latency_ms_p90` is printed beside them, but only where a run holds at
/// least [`P90_MIN_SAMPLES`] items, so it is not part of the result line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Fewest items for which a 90th percentile is reported: at least ten
/// samples lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Metrics of the traced run (`--trace 1`), on every workload. A layer a
/// workload does not pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prefs.build_ms", "ms"),
    ("prefs.probes", "count"),
    ("prefs.ns_per_probe", "ns"),
    ("prefs.oracle_bytes", "bytes"),
    ("gs.proposals", "count"),
    ("gs.rounds", "count"),
    ("gs.solve_ms", "ms"),
    ("gs.ns_per_proposal", "ns"),
    ("gs.arena_bytes", "bytes"),
    ("roommates.attempts", "count"),
    ("roommates.final_cut", "count"),
    ("roommates.partition_share", "ratio"),
    ("roommates.decide_ms", "ms"),
    ("roommates.verify_ms", "ms"),
    ("roommates.verify_probes", "count"),
    ("roommates.escalation_share", "ratio"),
    ("roommates.arena_bytes", "bytes"),
    ("parallel.batch_ms", "ms"),
    ("parallel.busy_share", "ratio"),
    ("parallel.steal_count", "count"),
    ("parallel.straggler_ratio", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.bind_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.verify_bitset_ms", "ms"),
    ("obs.metered_overhead_pct", "%"),
    ("incremental.build_ms", "ms"),
    ("incremental.edit_us", "us"),
    ("incremental.rebind_ms", "ms"),
    ("incremental.dirty_edge_share", "ratio"),
    ("split.prefs_ms", "ms"),
    ("split.gs_ms", "ms"),
    ("split.roommates_ms", "ms"),
    ("split.core_ms", "ms"),
    ("split.parallel_ms", "ms"),
    ("split.obs_ms", "ms"),
    ("split.incremental_ms", "ms"),
    ("split.unaccounted_ms", "ms"),
    ("trace.item_ms", "ms"),
    ("trace.untraced_item_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Layers the traced run splits item time across, as span-name prefixes.
pub const LAYERS: [&str; 7] = [
    "prefs",
    "gs",
    "roommates",
    "core",
    "parallel",
    "obs",
    "incremental",
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
