//! Shared support code for the figure-reproduction benchmarks.
//!
//! Each `benches/fig*.rs` binary reproduces one table or figure of the ASCY
//! paper (the README's *Running the figure benchmarks* shows how to run
//! them). They all follow the same pattern: pick the algorithms and
//! workload parameters the paper used, run them through
//! [`ascylib_harness::run_benchmark`], and print the same rows/series the
//! paper reports (plus a CSV copy under `target/ascylib/`).

use std::sync::Arc;

use ascylib::api::{ConcurrentMap, StructureKind};
use ascylib::ordered::OrderedMap;
use ascylib::registry::{self, AlgorithmEntry};
use ascylib_harness::{
    bench_millis, run_benchmark, run_benchmark_ordered, BenchmarkResult, OpMix, Workload,
    WorkloadBuilder,
};

/// Builds the paper's workload for a given structure size / update rate /
/// thread count, using the harness-wide duration setting.
pub fn workload(initial_size: usize, update_percent: u32, threads: usize) -> Workload {
    WorkloadBuilder::new()
        .initial_size(initial_size)
        .update_percent(update_percent)
        .threads(threads)
        .duration_ms(bench_millis())
        .build()
}

/// Runs one algorithm (by registry entry) under a workload.
pub fn run_entry(entry: &AlgorithmEntry, w: Workload) -> BenchmarkResult {
    let map = (entry.construct)(w.initial_size * 2);
    run_benchmark(map, w)
}

/// Runs an explicitly constructed map under a workload.
pub fn run_map(map: Arc<dyn ConcurrentMap>, w: Workload) -> BenchmarkResult {
    run_benchmark(map, w)
}

/// Builds a scan-mix workload (used by `fig11_scans`): an [`OpMix`] preset
/// over a given structure size / key distribution / thread count, with the
/// harness-wide duration.
pub fn scan_workload(
    initial_size: usize,
    mix: OpMix,
    dist: ascylib_harness::KeyDist,
    threads: usize,
) -> Workload {
    WorkloadBuilder::new()
        .initial_size(initial_size)
        .op_mix(mix)
        .key_dist(dist)
        .threads(threads)
        .duration_ms(bench_millis())
        .build()
}

/// Runs an ordered map under a workload whose mix may contain scans.
pub fn run_ordered(map: Arc<dyn OrderedMap>, w: Workload) -> BenchmarkResult {
    run_benchmark_ordered(map, w)
}

/// All algorithms for one structure kind (async baselines included).
pub fn algorithms(kind: StructureKind) -> Vec<AlgorithmEntry> {
    registry::by_structure(kind)
}

/// Short display name (strips the structure prefix used in the registry).
pub fn display_name(entry: &AlgorithmEntry) -> &'static str {
    entry
        .name
        .split_once('-')
        .map(|(_, rest)| rest)
        .unwrap_or(entry.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_uses_env_duration() {
        let w = workload(1024, 20, 2);
        assert_eq!(w.initial_size, 1024);
        assert_eq!(w.update_percent(), 20);
        assert_eq!(w.threads, 2);
    }

    #[test]
    fn scan_workload_carries_the_mix() {
        let w = scan_workload(2048, OpMix::ycsb_e(), ascylib_harness::KeyDist::Uniform, 4);
        assert!(w.mix.has_scans());
        assert_eq!(w.threads, 4);
    }

    #[test]
    fn display_names_match_paper() {
        let e = registry::by_name("ht-clht-lb").unwrap();
        assert_eq!(display_name(&e), "clht-lb");
        let e = registry::by_name("ll-harris-opt").unwrap();
        assert_eq!(display_name(&e), "harris-opt");
    }
}
