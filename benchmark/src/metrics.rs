//! Every metric the benchmark prints, declared once. `BENCHMARK.json` at
//! the repository root repeats this table for the pipeline; a unit test
//! holds the two together.

/// An end-to-end metric: what a user of the stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

// The issue asked for timing bounds of a tenth. Under the sustained load of
// a benchmark session this box's speed itself moves by more than that from
// one 15 s run to the next (README.md, "Why these estimators"), so the
// timing bounds are the widest the pipeline allows; the memory bounds are
// three times the widest spread measured.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "get_p50_ns", unit: "ns", better: "lower", bound: 0.25 },
    EndToEnd { name: "set_p50_ns", unit: "ns", better: "lower", bound: 0.25 },
    EndToEnd { name: "get_hit_share", unit: "share", better: "higher", bound: 0.01 },
    // The issue asks for a bound of 0; the contract's "spread below a
    // third of the bound" cannot be met by 0, and a run with any failed
    // op exits non-zero anyway, so the printed value is always exactly 1.
    EndToEnd { name: "ok_share", unit: "share", better: "higher", bound: 0.001 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "bytes_per_user_byte", unit: "B/B", better: "lower", bound: 0.12 },
];

/// A per-layer metric: `(name, unit, better)`. The part of the name before
/// the first dot is the module (layer) it belongs to.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 63] = [
    ("core.get_ns", "ns", "lower"),
    ("core.set_ns", "ns", "lower"),
    ("core.atomics_per_set", "count", "lower"),
    ("core.stores_per_set", "count", "lower"),
    ("core.nodes_per_get", "count", "lower"),
    ("core.cas_fail_share", "share", "lower"),
    ("core.restarts_per_op", "count", "lower"),
    ("map.get_ns", "ns", "lower"),
    ("map.set_ns", "ns", "lower"),
    ("map.self_get_ns", "ns", "lower"),
    ("map.self_set_ns", "ns", "lower"),
    ("blob.get_ns", "ns", "lower"),
    ("blob.set_ns", "ns", "lower"),
    ("blob.self_get_ns", "ns", "lower"),
    ("blob.self_set_ns", "ns", "lower"),
    ("hotkey.get_ns", "ns", "lower"),
    ("hotkey.set_ns", "ns", "lower"),
    ("hotkey.self_get_ns", "ns", "lower"),
    ("hotkey.self_set_ns", "ns", "lower"),
    ("hotkey.front_hit_share", "share", "higher"),
    ("hotkey.delegated_share", "share", "higher"),
    ("hotkey.avg_batch", "count", "higher"),
    ("hotkey.poisons_per_set", "count", "lower"),
    ("cache.get_ns", "ns", "lower"),
    ("cache.set_ns", "ns", "lower"),
    ("cache.self_get_ns", "ns", "lower"),
    ("cache.self_set_ns", "ns", "lower"),
    ("cache.evictions_per_set", "count", "lower"),
    ("cache.forced_share", "share", "lower"),
    ("cache.live_over_budget", "share", "lower"),
    ("store.get_ns", "ns", "lower"),
    ("store.set_ns", "ns", "lower"),
    ("store.self_get_ns", "ns", "lower"),
    ("store.self_set_ns", "ns", "lower"),
    ("ssmem.alloc_retire_ns", "ns", "lower"),
    ("ssmem.reuse_share", "share", "higher"),
    ("ssmem.gc_passes_per_kop", "count", "lower"),
    ("ssmem.pending_max", "count", "lower"),
    ("protocol.req_encode_ns", "ns", "lower"),
    ("protocol.req_parse_ns", "ns", "lower"),
    ("protocol.reply_encode_ns", "ns", "lower"),
    ("protocol.reply_parse_ns", "ns", "lower"),
    ("protocol.bytes_per_get", "B", "lower"),
    ("protocol.bytes_per_set", "B", "lower"),
    ("client.encode_ns", "ns", "lower"),
    ("client.write_ns", "ns", "lower"),
    ("client.wait_ns", "ns", "lower"),
    ("client.parse_ns", "ns", "lower"),
    ("server.parse_ns", "ns", "lower"),
    ("server.execute_ns", "ns", "lower"),
    ("server.flush_ns", "ns", "lower"),
    ("server.wakeups_per_op", "count", "lower"),
    ("server.frames_per_wakeup", "count", "higher"),
    ("server.partial_writes", "count", "lower"),
    ("server.dispatch_self_ns", "ns", "lower"),
    ("telemetry.clock_ns", "ns", "lower"),
    ("telemetry.hist_record_ns", "ns", "lower"),
    ("tail.get_p99_ns", "ns", "lower"),
    ("tail.set_p99_ns", "ns", "lower"),
    ("tail.samples", "count", "higher"),
    ("gen.late_p99_ns", "ns", "lower"),
    ("ops_per_s_mean", "1/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}
