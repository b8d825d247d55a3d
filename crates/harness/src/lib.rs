//! # ascylib-harness — the evaluation harness for ASCYLIB-RS
//!
//! Reproduces the methodology of §4 of the ASCY paper:
//!
//! * [`workload`] — workload generation: the structure is initialized with
//!   `N` elements and operations pick keys from `[1, 2N]`. Operation kinds
//!   are drawn from an extensible [`OpMix`] (reads / inserts / removes /
//!   range scans, with YCSB A–E presets); the paper's `update_percent` knob
//!   survives as sugar that splits updates into half insertions / half
//!   removals, so on average half of the updates succeed and the structure
//!   size stays near `N`.
//! * [`dist`] — key distributions: the paper's uniform draws plus
//!   Zipfian(θ) and hotspot generators for skewed, production-style
//!   traffic, selected per workload via [`KeyDist`].
//! * [`runner`] — the multi-threaded measurement loop: per-thread operation
//!   counters, sampled operation latencies with 1/25/50/75/99 percentiles,
//!   and aggregation of the [`ascylib::stats`] instrumentation counters.
//!   Scan-free mixes run over any [`ascylib::ConcurrentMap`]
//!   ([`run_benchmark`]); mixes with scans need an
//!   [`ascylib::OrderedMap`] ([`run_benchmark_ordered`]), which also
//!   reports scan throughput and keys-returned distributions.
//! * [`model`] — the energy model and the platform profiles used to project
//!   measured coherence traffic onto the paper's six machines (its module
//!   docs give the substitution rationale).
//! * [`report`] — plain-text table and CSV emitters used by the `fig*`
//!   benchmark binaries.

#![warn(missing_docs)]

pub mod dist;
pub mod model;
pub mod report;
pub mod runner;
pub mod workload;

pub use dist::{KeyDist, KeySampler};
pub use model::{EnergyModel, PlatformProfile};
pub use runner::{run_benchmark, run_benchmark_ordered, BenchmarkResult, LatencyStats, OpKind};
pub use workload::{OpMix, Operation, Workload, WorkloadBuilder};

/// Reads an unsigned integer knob from the environment, falling back to
/// `default` when the variable is unset.
///
/// # Panics
///
/// If the variable is set to something that does not parse as a `u64`
/// (`ASCYLIB_BENCH_MILLIS=50ms`): a typo must not silently run the default.
pub fn env_or(name: &str, default: u64) -> u64 {
    parse_env_or(name, std::env::var(name).ok(), default)
}

fn parse_env_or(name: &str, value: Option<String>, default: u64) -> u64 {
    match value {
        Some(v) => v.parse().unwrap_or_else(|_| panic!("bad {name} value {v:?}")),
        None => default,
    }
}

/// Looks up a command-line flag's value: `--flag value` or `--flag=value`.
/// Shared by the example binaries so their flag handling stays uniform
/// (environment variables configure defaults, flags override per run).
pub fn arg_value(flag: &str) -> Option<String> {
    arg_value_in(std::env::args().skip(1), flag)
}

fn arg_value_in(args: impl Iterator<Item = String>, flag: &str) -> Option<String> {
    let mut args = args;
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Some(value.to_string());
        }
    }
    None
}

/// Duration (milliseconds) of a single measurement, controlled by
/// `ASCYLIB_BENCH_MILLIS` (default 300 ms so that the full figure suite
/// completes quickly; the paper uses 5 s runs).
pub fn bench_millis() -> u64 {
    env_or("ASCYLIB_BENCH_MILLIS", 300)
}

/// Maximum number of threads to sweep, controlled by
/// `ASCYLIB_BENCH_THREADS` (default: the number of available cores, capped
/// at 16).
pub fn max_threads() -> usize {
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    env_or("ASCYLIB_BENCH_THREADS", available.min(16) as u64) as usize
}

/// The thread counts used for thread-sweep figures: 1, 2, 4, ... up to
/// [`max_threads`].
pub fn thread_sweep() -> Vec<usize> {
    let max = max_threads().max(1);
    let mut v = vec![1];
    let mut t = 2;
    while t < max {
        v.push(t);
        t *= 2;
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_increasing_and_ends_at_max() {
        let sweep = thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sweep.last().unwrap(), max_threads());
    }

    #[test]
    fn env_or_falls_back_to_default() {
        assert_eq!(env_or("ASCYLIB_DOES_NOT_EXIST", 42), 42);
        assert_eq!(parse_env_or("ASCYLIB_BENCH_MILLIS", None, 300), 300);
        assert_eq!(parse_env_or("ASCYLIB_BENCH_MILLIS", Some("50".into()), 300), 50);
    }

    #[test]
    #[should_panic(expected = "bad ASCYLIB_BENCH_MILLIS value \"50ms\"")]
    fn env_or_rejects_a_malformed_value() {
        parse_env_or("ASCYLIB_BENCH_MILLIS", Some("50ms".into()), 300);
    }

    #[test]
    fn arg_values_parse_in_both_spellings() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let got = |list: &[&str], flag: &str| arg_value_in(args(list).into_iter(), flag);
        assert_eq!(got(&["--mode", "open:4000"], "--mode").as_deref(), Some("open:4000"));
        assert_eq!(got(&["--mode=open:4000"], "--mode").as_deref(), Some("open:4000"));
        assert_eq!(got(&["--conns", "8", "--mode", "closed"], "--mode").as_deref(), Some("closed"));
        assert_eq!(got(&["--mode"], "--mode"), None, "flag with no value");
        assert_eq!(got(&["--moderate=x"], "--mode"), None, "prefix must not match");
        assert_eq!(got(&[], "--mode"), None);
    }
}
