//! `--selfcheck N`: does the benchmark agree with itself?
//!
//! Two interleaved sets (A, B) of N untraced runs of every workload on the
//! current build, each run its own process with its own seed. For every
//! end-to-end metric of every workload it prints each set's median and
//! quartiles, and fails if the two medians differ by more than the
//! metric's bound or if a set's interquartile spread exceeds it (`setup_s`
//! is exempt from the spread rule) — the rules the pipeline applies before
//! it trusts a before/after comparison.
//! The diagnostics a run prints beside its metrics (plain mean throughput,
//! tails) get the same table without a verdict: it shows why they are not
//! metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::estimate::quartiles;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::ops::WORKLOADS;
use crate::run::DIAGNOSTICS;

/// Every run's numbers, for `benchmark/baseline/`.
pub struct Outcome {
    pub report: String,
    /// One JSON line per run: set, workload, seed, and the result line.
    pub runs: String,
    pub passed: bool,
}

/// Per-run values of one number, by set.
type Sets = [Vec<f64>; 2];

/// `median [q1 .. q3] spread` of each set and the drift between medians.
fn row(sets: &Sets) -> (String, f64, f64) {
    let stats = [quartiles(&sets[0]), quartiles(&sets[1])];
    let spread = |(q1, q2, q3): (f64, f64, f64)| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
    let drift = if stats[0].1 == 0.0 {
        0.0
    } else {
        (stats[1].1 - stats[0].1).abs() / stats[0].1
    };
    let mut text = String::new();
    for (label, s) in ["A", "B"].iter().zip(stats) {
        write!(
            text,
            "{label} {:>14.4} [{:.4} .. {:.4}] {:5.2}%  ",
            s.1,
            s.0,
            s.2,
            spread(s) * 100.0
        )
        .expect("string write");
    }
    write!(text, "drift {:5.2}%", drift * 100.0).expect("string write");
    (text, drift, spread(stats[0]).max(spread(stats[1])))
}

pub fn run(n: usize, seconds: u64, base_seed: u64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut metrics: Vec<Vec<Sets>> =
        vec![vec![Sets::default(); END_TO_END.len()]; WORKLOADS.len()];
    let mut diagnostics: Vec<BTreeMap<String, Sets>> = vec![BTreeMap::new(); WORKLOADS.len()];
    let mut runs = String::new();
    let mut failures: Vec<String> = Vec::new();
    let mut seed = base_seed;
    for round in 0..n {
        for (set, label) in ["A", "B"].into_iter().enumerate() {
            for (w, spec) in WORKLOADS.iter().enumerate() {
                seed += 1;
                eprintln!(
                    "selfcheck: round {}/{n} set {label} {} seed {seed}",
                    round + 1,
                    spec.name
                );
                let out = Command::new(&exe)
                    .args(["--workload", spec.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .stdin(Stdio::null())
                    .stderr(Stdio::piped())
                    .output()
                    .map_err(|e| format!("spawn: {e}"))?;
                let stderr = String::from_utf8_lossy(&out.stderr);
                if !out.status.success() {
                    // An invalid run fails the check, but the other runs
                    // still have something to say.
                    failures.push(format!(
                        "{} seed {seed} exited with {}: {}",
                        spec.name,
                        out.status,
                        stderr.trim()
                    ));
                    continue;
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let doc =
                    Json::parse(line).map_err(|e| format!("{} result line: {e}", spec.name))?;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = doc
                        .get("metrics")
                        .and_then(|ms| ms.get(metric.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| {
                            format!("{}: no {} in the result line", spec.name, metric.name)
                        })?;
                    metrics[w][m][set].push(value);
                }
                let pairs = stderr
                    .lines()
                    .find_map(|l| l.strip_prefix(DIAGNOSTICS))
                    .unwrap_or_default()
                    .split_whitespace()
                    .filter_map(|pair| pair.split_once('='));
                for (name, value) in pairs {
                    if let Ok(value) = value.parse::<f64>() {
                        diagnostics[w].entry(name.to_string()).or_default()[set].push(value);
                    }
                }
                writeln!(runs, "{{\"set\": \"{label}\", \"workload\": \"{}\", \"seed\": {seed}, \"result\": {line}}}", spec.name)
                    .expect("string write");
            }
        }
    }

    let mut report = String::new();
    let mut passed = failures.is_empty();
    for failure in &failures {
        writeln!(report, "INVALID RUN: {failure}").expect("string write");
    }
    writeln!(
        report,
        "selfcheck: 2 interleaved sets x {n} runs x {} workloads, {seconds} s timed phase\n\
         per set: median [q1 .. q3] spread=(q3-q1)/median; drift=|median B - median A|/median A",
        WORKLOADS.len()
    )
    .expect("string write");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        writeln!(report, "\n{}", spec.name).expect("string write");
        for (metric, sets) in END_TO_END.iter().zip(&metrics[w]) {
            let (text, drift, spread) = row(sets);
            // As in the pipeline, set-up time answers for its drift only:
            // three set-ups a run cannot make its spread a tight one.
            let ok = drift <= metric.bound && (spread <= metric.bound || metric.name == "setup_s");
            passed &= ok;
            writeln!(
                report,
                "  {:<20} {:>6} {:<6} {text} bound {:4.1}% {}",
                metric.name,
                metric.unit,
                metric.better,
                metric.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            )
            .expect("string write");
        }
        for (name, sets) in &diagnostics[w] {
            writeln!(
                report,
                "  {name:<20} {:>6} {:<6} {} (diagnostic, no bound)",
                "",
                "",
                row(sets).0
            )
            .expect("string write");
        }
    }
    writeln!(
        report,
        "\nselfcheck {}",
        if passed { "passed" } else { "FAILED" }
    )
    .expect("string write");
    Ok(Outcome {
        report,
        runs,
        passed,
    })
}
