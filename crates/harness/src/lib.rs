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

/// Reads one configuration knob. Each of `names` is a command-line flag if
/// it starts with `--` (given as `--flag value` or `--flag=value`), else an
/// environment variable; the first one set wins, so list a knob's flag
/// before its variable. `None` if none is set; the caller applies the
/// default. This is the only place the workspace reads the environment:
/// the binaries read every knob here once and hand libraries parsed values.
///
/// # Panics
///
/// If the winning value is one `parse` rejects (`ASCYLIB_BENCH_MILLIS=50ms`,
/// `--budget 12tb`), naming the flag or variable and the accepted `forms`:
/// a typo must not silently run the default.
pub fn knob<T>(names: &[&str], forms: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    knob_in(names, &args, |var| std::env::var(var).ok(), forms, parse)
}

fn knob_in<T>(
    names: &[&str],
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
    forms: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let (name, spec) = names.iter().find_map(|&name| {
        let value = if name.starts_with("--") { flag_in(args, name, forms) } else { env(name) };
        value.map(|v| (name, v))
    })?;
    Some(parse(&spec).unwrap_or_else(|| panic!("bad {name} spec {spec:?} (want {forms})")))
}

/// `true` if the switch `flag` (`--self`, `--demo`) is on the command line.
pub fn switch(flag: &str) -> bool {
    std::env::args().skip(1).any(|arg| arg == flag)
}

/// The value of `flag` in `args`; panics if `flag` comes last, with none.
fn flag_in(args: &[String], flag: &str, forms: &str) -> Option<String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == flag {
            let value = args.next().unwrap_or_else(|| {
                panic!("bad {flag} spec: no value (want {forms})");
            });
            return Some(value.clone());
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
    knob(&["ASCYLIB_BENCH_MILLIS"], "a whole number of ms", |s| s.parse().ok()).unwrap_or(300)
}

/// Maximum number of threads to sweep, controlled by
/// `ASCYLIB_BENCH_THREADS` (default: the number of available cores, capped
/// at 16).
pub fn max_threads() -> usize {
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads = knob(&["ASCYLIB_BENCH_THREADS"], "a thread count", |s| s.parse().ok());
    threads.unwrap_or(available.min(16))
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

    /// Reads `--budget`, else `ASCYLIB_BUDGET`, as a plain count from
    /// `argv` and an environment where the variable holds `var`.
    fn read(argv: &[&str], var: Option<&str>) -> Option<u64> {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let env = |name: &str| {
            assert_eq!(name, "ASCYLIB_BUDGET", "only the knob's own variable is read");
            var.map(String::from)
        };
        knob_in(&["--budget", "ASCYLIB_BUDGET"], &args, env, "a count", |s| s.parse().ok())
    }

    #[test]
    fn arg_values_parse_in_both_spellings() {
        assert_eq!(read(&["--budget", "7"], None), Some(7));
        assert_eq!(read(&["--budget=7"], None), Some(7));
        assert_eq!(read(&["--conns", "8", "--budget", "7"], None), Some(7));
        assert_eq!(read(&["--budgets=7"], None), None, "prefix must not match");
        assert_eq!(read(&["--conns", "7"], None), None, "another knob's flag");
    }

    #[test]
    fn the_flag_beats_the_variable_and_unset_gives_the_default() {
        assert_eq!(read(&["--budget", "7"], Some("9")), Some(7));
        assert_eq!(read(&["--budget=7"], Some("9")), Some(7));
        assert_eq!(read(&["--conns", "7"], Some("9")), Some(9), "no flag: the variable");
        assert_eq!(read(&[], None).unwrap_or(300), 300);
        let unset = knob(&["ASCYLIB_DOES_NOT_EXIST"], "a count", |s| s.parse::<u64>().ok());
        assert_eq!(unset.unwrap_or(42), 42);
    }

    #[test]
    #[should_panic(expected = "bad --budget spec \"12tb\" (want a count)")]
    fn a_malformed_flag_panics_with_its_name_and_the_forms() {
        read(&["--budget", "12tb"], Some("9"));
    }

    #[test]
    #[should_panic(expected = "bad --budget spec: no value (want a count)")]
    fn a_flag_given_last_with_no_value_panics_with_its_name() {
        read(&["--conns", "8", "--budget"], Some("9"));
    }

    #[test]
    #[should_panic(expected = "bad ASCYLIB_BUDGET spec \"50ms\" (want a count)")]
    fn a_malformed_variable_panics_with_its_name_and_the_forms() {
        read(&[], Some("50ms"));
    }
}
