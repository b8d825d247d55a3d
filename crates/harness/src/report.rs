//! Plain-text table, CSV, and JSON emitters for the figure benchmarks.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use crate::runner::{BenchmarkResult, LatencyStats};

/// A simple column-aligned table printer.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (values are formatted by the caller).
    pub fn row(&mut self, values: Vec<String>) {
        self.rows.push(values);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV under `target/ascylib/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/ascylib");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Renders a labelled ASCII bar chart (used for per-shard load histograms:
/// the bars make a skew-induced hot shard visible at a glance). Bars are
/// scaled so the largest value spans `width` characters.
pub fn histogram(title: &str, entries: &[(String, f64)], width: usize) -> String {
    let mut out = format!("\n== {title} ==\n");
    let max = entries.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_width = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in entries {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:>label_width$}  {:<width$}  {value:.0}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Clamps every quantile at the recorded maximum. `from_samples` stats are
/// already consistent, but histogram-derived ones report each quantile as
/// its bucket's upper bound, and for tiny sample counts an under-resolved
/// tail quantile (p999/p9999) can land in a bucket *above* the one holding
/// the true maximum. The structures that build such stats clamp at the
/// source; the report layer clamps again so hand-assembled or older stats
/// can never print `p9999 > max`.
fn clamp_at_max(s: &LatencyStats) -> LatencyStats {
    let mut c = *s;
    c.p1 = c.p1.min(c.max);
    c.p25 = c.p25.min(c.max);
    c.p50 = c.p50.min(c.max);
    c.p75 = c.p75.min(c.max);
    c.p99 = c.p99.min(c.max);
    c.p999 = c.p999.min(c.max);
    c.p9999 = c.p9999.min(c.max);
    c
}

/// Renders one labelled percentile line for a sampled distribution
/// (latencies in nanoseconds, scan lengths in keys, ... — the unit is the
/// caller's). Prints alongside the latency panels of the figure benches.
/// Quantiles are clamped at the recorded max (see `clamp_at_max`).
pub fn distribution_line(label: &str, unit: &str, s: &LatencyStats) -> String {
    if s.samples == 0 {
        return format!("{label}: no samples\n");
    }
    let s = clamp_at_max(s);
    format!(
        "{label}: p1={} p25={} p50={} p75={} p99={} mean={:.1} {unit} ({} samples)\n",
        s.p1, s.p25, s.p50, s.p75, s.p99, s.mean, s.samples
    )
}

/// Buckets raw per-scan key counts into powers of two and renders them with
/// [`histogram`], so a scan-heavy run shows its length distribution at a
/// glance next to the latency stats.
pub fn scan_length_histogram(title: &str, samples: &[u64], width: usize) -> String {
    if samples.is_empty() {
        return format!("\n== {title} ==\n(no scans sampled)\n");
    }
    // Bucket 0 holds empty scans; bucket i >= 1 holds lengths in
    // [2^(i-1), 2^i - 1] (i.e. i is the bit length of the count).
    let max = samples.iter().copied().max().unwrap_or(0);
    let buckets = (64 - max.leading_zeros()) as usize + 1;
    let mut counts = vec![0u64; buckets];
    for &len in samples {
        counts[(64 - len.leading_zeros()) as usize] += 1;
    }
    let entries: Vec<(String, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let label = match i {
                0 => "0 keys".to_string(),
                1 => "1 key".to_string(),
                _ => format!("{}-{} keys", 1u64 << (i - 1), (1u64 << i) - 1),
            };
            (label, c as f64)
        })
        .collect();
    histogram(title, &entries, width)
}

/// Bytes over a duration as MB/s (10⁶ bytes per second — bandwidth, like
/// NIC and memory-subsystem figures, uses decimal units).
pub fn mbps(bytes: u64, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6
}

/// Renders one labelled payload-bandwidth line (read and written sides),
/// printed by the serving benches next to their latency panels.
pub fn bandwidth_line(
    label: &str,
    bytes_read: u64,
    bytes_written: u64,
    elapsed: std::time::Duration,
) -> String {
    format!(
        "{label}: read {:.2} MB/s ({bytes_read} B), wrote {:.2} MB/s ({bytes_written} B)\n",
        mbps(bytes_read, elapsed),
        mbps(bytes_written, elapsed),
    )
}

/// Escapes a string for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: finite floats print as-is, non-finite ones (which JSON
/// cannot represent) degrade to `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_latency(s: &LatencyStats) -> String {
    let s = &clamp_at_max(s);
    format!(
        concat!(
            "{{\"p1\":{},\"p25\":{},\"p50\":{},\"p75\":{},\"p99\":{},",
            "\"p999\":{},\"p9999\":{},\"max\":{},\"mean\":{},\"samples\":{}}}"
        ),
        s.p1,
        s.p25,
        s.p50,
        s.p75,
        s.p99,
        s.p999,
        s.p9999,
        s.max,
        json_num(s.mean),
        s.samples
    )
}

/// Serializes a [`BenchmarkResult`] as one machine-readable JSON object.
///
/// Field names are **stable**: downstream tooling records bench
/// trajectories as `BENCH_*.json` files (see [`write_json`]) and compares
/// across commits, so renaming a key is a breaking change. Everything the
/// text emitters print is here: the workload (`initial_size`, `threads`,
/// `duration_ms`, `dist`, the full `mix`), the counts, the derived rates,
/// and all five latency/length distributions.
pub fn to_json(r: &BenchmarkResult) -> String {
    let w = &r.workload;
    format!(
        concat!(
            "{{",
            "\"workload\":{{",
            "\"initial_size\":{},\"threads\":{},\"duration_ms\":{},\"dist\":\"{}\",",
            "\"mix\":{{\"read\":{},\"insert\":{},\"remove\":{},\"scan\":{},\"scan_len\":{}}}",
            "}},",
            "\"total_ops\":{},\"throughput\":{},\"mops\":{},",
            "\"successful_inserts\":{},\"successful_removes\":{},\"unsuccessful_updates\":{},",
            "\"scans\":{},\"scan_keys_returned\":{},\"scan_throughput\":{},\"keys_per_scan\":{},",
            "\"transfers_per_op\":{},\"atomics_per_successful_update\":{},",
            "\"final_size\":{},\"elapsed_ms\":{},",
            "\"latency\":{{",
            "\"search\":{},\"successful_update\":{},\"unsuccessful_update\":{},\"scan\":{},",
            "\"scan_length\":{}",
            "}}",
            "}}"
        ),
        w.initial_size,
        w.threads,
        w.duration_ms,
        escape_json(&w.dist.to_string()),
        w.mix.read,
        w.mix.insert,
        w.mix.remove,
        w.mix.scan,
        w.mix.scan_len,
        r.total_ops,
        json_num(r.throughput),
        json_num(r.mops),
        r.successful_inserts,
        r.successful_removes,
        r.unsuccessful_updates,
        r.scans,
        r.scan_keys_returned,
        json_num(r.scan_throughput()),
        json_num(r.keys_per_scan()),
        json_num(r.transfers_per_op()),
        json_num(r.atomics_per_successful_update()),
        r.final_size,
        json_num(r.elapsed.as_secs_f64() * 1e3),
        json_latency(&r.search_latency),
        json_latency(&r.successful_update_latency),
        json_latency(&r.unsuccessful_update_latency),
        json_latency(&r.scan_latency),
        json_latency(&r.scan_length),
    )
}

/// Writes a JSON document under `target/ascylib/BENCH_<name>.json` (the
/// bench-trajectory convention: one file per figure/config, overwritten per
/// run).
pub fn write_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/ascylib");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{json}")?;
    Ok(path)
}

/// Formats a floating point value with two decimals.
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats a floating point value with three decimals.
pub fn f3(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "mops"]);
        t.row(vec!["clht-lb".into(), f2(12.5)]);
        t.row(vec!["lazy".into(), f2(3.25)]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("clht-lb"));
        assert!(s.contains("12.50"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn histogram_scales_bars_to_the_maximum() {
        let s = histogram(
            "shard load",
            &[("shard-0".into(), 100.0), ("shard-1".into(), 50.0), ("shard-2".into(), 0.0)],
            20,
        );
        assert!(s.contains("shard load"));
        assert!(s.contains(&"#".repeat(20)), "max bar should span the full width");
        assert!(s.contains(&"#".repeat(10)), "half value should get a half bar");
        let zero_line = s.lines().find(|l| l.contains("shard-2")).unwrap();
        assert!(!zero_line.contains('#'), "zero value must have no bar");
    }

    #[test]
    fn histogram_of_empty_entries_is_just_the_title() {
        let s = histogram("empty", &[], 10);
        assert!(s.contains("empty"));
        assert_eq!(s.lines().filter(|l| !l.trim().is_empty()).count(), 1);
    }

    #[test]
    fn distribution_line_prints_percentiles_or_absence() {
        let s = LatencyStats::from_samples(vec![1, 2, 3, 4, 100]);
        let line = distribution_line("scan len", "keys", &s);
        assert!(line.contains("p50="));
        assert!(line.contains("keys"));
        assert!(line.contains("5 samples"));
        let empty = distribution_line("scan len", "keys", &LatencyStats::default());
        assert!(empty.contains("no samples"));
    }

    #[test]
    fn report_layer_clamps_quantiles_at_the_recorded_max() {
        // A histogram-derived stats block for a tiny sample count can carry
        // under-resolved tail quantiles as bucket upper bounds above the
        // bucket holding the true max; the report layer must not print them.
        let mangled = LatencyStats {
            p1: 10,
            p25: 20,
            p50: 30,
            p75: 40,
            p99: 8_192,
            p999: 8_192,
            p9999: 16_384,
            max: 5_000,
            mean: 35.0,
            samples: 3,
        };
        let line = distribution_line("lat", "ns", &mangled);
        assert!(line.contains("p99=5000"), "p99 must clamp at max: {line}");
        assert!(!line.contains("8192"), "bucket bound leaked past max: {line}");
        let json = json_latency(&mangled);
        assert!(json.contains("\"p999\":5000"), "{json}");
        assert!(json.contains("\"p9999\":5000"), "{json}");
        assert!(json.contains("\"max\":5000"), "{json}");
        // Consistent stats pass through untouched.
        let clean = LatencyStats::from_samples(vec![1, 2, 3, 4, 100]);
        assert_eq!(clamp_at_max(&clean), clean);
    }

    #[test]
    fn scan_length_histogram_buckets_powers_of_two() {
        let samples = vec![0, 1, 1, 2, 3, 4, 7, 8, 15];
        let s = scan_length_histogram("scan lengths", &samples, 20);
        assert!(s.contains("0 keys"));
        assert!(s.contains("1 key"));
        assert!(s.contains("2-3 keys"));
        assert!(s.contains("4-7 keys"));
        assert!(s.contains("8-15 keys"));
        // The 1-key bucket has two entries; 2-3 has two; 4-7 has two.
        let empty = scan_length_histogram("none", &[], 20);
        assert!(empty.contains("no scans sampled"));
    }

    #[test]
    fn bandwidth_helpers_report_decimal_megabytes() {
        use std::time::Duration;
        assert_eq!(mbps(2_000_000, Duration::from_secs(1)), 2.0);
        assert_eq!(mbps(1_000_000, Duration::from_millis(500)), 2.0);
        assert_eq!(mbps(0, Duration::from_secs(1)), 0.0);
        // Zero elapsed degrades gracefully instead of dividing by zero.
        assert!(mbps(100, Duration::ZERO).is_finite());
        let line = bandwidth_line("payload", 3_000_000, 1_500_000, Duration::from_secs(1));
        assert!(line.contains("payload:"), "{line}");
        assert!(line.contains("read 3.00 MB/s"), "{line}");
        assert!(line.contains("wrote 1.50 MB/s"), "{line}");
        assert!(line.contains("3000000 B"), "{line}");
    }

    /// Minimal JSON well-formedness scanner for the emitter tests: checks
    /// string escaping and brace/bracket balance without a full parser.
    fn assert_wellformed_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                } else {
                    assert!((c as u32) >= 0x20, "raw control char inside JSON string: {c:?}");
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced braces in {s}");
    }

    fn sample_result() -> crate::runner::BenchmarkResult {
        use crate::workload::{OpMix, WorkloadBuilder};
        use ascylib::hashtable::ClhtLb;
        use std::sync::Arc;
        let w = WorkloadBuilder::new()
            .initial_size(64)
            .op_mix(OpMix::update(20))
            .threads(1)
            .duration_ms(10)
            .zipfian(0.99)
            .build();
        crate::runner::run_benchmark(Arc::new(ClhtLb::with_capacity(128)), w)
    }

    #[test]
    fn to_json_has_the_stable_field_names_and_parses() {
        let r = sample_result();
        let json = to_json(&r);
        assert_wellformed_json(&json);
        for key in [
            "\"workload\":", "\"initial_size\":", "\"threads\":", "\"duration_ms\":",
            "\"dist\":", "\"mix\":", "\"read\":", "\"insert\":", "\"remove\":", "\"scan\":",
            "\"scan_len\":", "\"total_ops\":", "\"throughput\":", "\"mops\":",
            "\"successful_inserts\":", "\"successful_removes\":", "\"unsuccessful_updates\":",
            "\"scans\":", "\"scan_keys_returned\":", "\"scan_throughput\":",
            "\"keys_per_scan\":", "\"transfers_per_op\":", "\"atomics_per_successful_update\":",
            "\"final_size\":", "\"elapsed_ms\":", "\"latency\":", "\"search\":",
            "\"successful_update\":", "\"unsuccessful_update\":", "\"scan_length\":",
            "\"p1\":", "\"p25\":", "\"p50\":", "\"p75\":", "\"p99\":", "\"mean\":",
            "\"samples\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The dist display string round-trips inside the JSON.
        assert!(json.contains("\"dist\":\"zipf(0.99)\""), "{json}");
        // Concrete values survive: total_ops appears verbatim.
        assert!(json.contains(&format!("\"total_ops\":{}", r.total_ops)));
        assert!(json.contains(&format!("\"final_size\":{}", r.final_size)));
    }

    #[test]
    fn escape_json_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("uniform"), "uniform");
        // A hostile label embedded in a JSON string stays well-formed.
        let hostile = format!("{{\"label\":\"{}\"}}", escape_json("x\"},{\"y\n"));
        assert_wellformed_json(&hostile);
    }

    #[test]
    fn json_numbers_degrade_nonfinite_to_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn bench_json_is_written_under_the_trajectory_name() {
        let r = sample_result();
        let path = write_json("unit_test_result", &to_json(&r)).unwrap();
        assert!(path.ends_with("BENCH_unit_test_result.json"), "{path:?}");
        let contents = std::fs::read_to_string(path).unwrap();
        assert_wellformed_json(contents.trim());
        assert!(contents.contains("\"total_ops\""));
    }

    #[test]
    fn csv_is_written() {
        let mut t = Table::new("csv", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let path = t.write_csv("unit_test_table").unwrap();
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.starts_with("a,b"));
        assert!(contents.contains("1,2"));
    }
}
