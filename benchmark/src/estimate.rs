//! The estimators every reported number goes through.
//!
//! Two rules, both chosen from measured run-to-run spread on a shared
//! 2-vCPU box (see README.md, "Why these estimators"):
//!
//! * A latency is the **median** of its samples; tails are diagnostics.
//! * A throughput is `ops in a batch / lower-quartile batch time`.
//!   Interference from a neighbour only ever makes a batch slower, so the
//!   fast quartile of many batch times repeats where total/elapsed does
//!   not.

/// Ops per timed batch in every closed loop and every ladder rung.
pub const BATCH: usize = 4096;

/// One op in this many is timed individually (and, traced, gets a span).
pub const SAMPLE_EVERY: usize = 16;

/// The `q`-quantile of `samples` by the nearest-rank rule on the sorted
/// values (`q = 0.5` is the lower median). Sorts in place. Empty input
/// yields 0.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    *v
}

/// Median shorthand.
pub fn p50(samples: &mut [u64]) -> u64 {
    quantile(samples, 0.5)
}

/// Ops per second from the times of equal-sized batches: `lanes` callers
/// each completing `batch_ops` per batch, at the lower-quartile batch time.
pub fn rate_from_batches(batch_ns: &mut [u64], batch_ops: usize, lanes: usize) -> f64 {
    let q = quantile(batch_ns, 0.25);
    if q == 0 {
        return 0.0;
    }
    (lanes * batch_ops) as f64 * 1e9 / q as f64
}

/// Nanoseconds per op from `(batch time, ops in that batch)` pairs of
/// unequal batches: the lower quartile of the per-batch quotients. Batches
/// with no ops are skipped.
pub fn ns_per_op(batches: &[(u64, u32)]) -> f64 {
    let mut per_op_milli: Vec<u64> = batches
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(ns, n)| ns * 1000 / *n as u64)
        .collect();
    quantile(&mut per_op_milli, 0.25) as f64 / 1000.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median and quartiles of a set of per-run values, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the pipeline applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The oracle: sort, then index by nearest rank.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    #[test]
    fn quantile_matches_sorted_vector_oracle() {
        let mut rng = SmallRng::seed_from_u64(11);
        for len in [1usize, 2, 3, 4, 7, 100, 1001] {
            let data: Vec<u64> = (0..len)
                .map(|_| rng.random_range(0..1_000_000u64))
                .collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
                assert_eq!(
                    quantile(&mut data.clone(), q),
                    oracle(&data, q),
                    "len {len} q {q}"
                );
            }
        }
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(p50(&mut [5, 1, 9]), 5);
        assert_eq!(p50(&mut [4, 1, 9, 7]), 4, "even length: lower median");
    }

    #[test]
    fn batch_rate_uses_the_lower_quartile_time() {
        // 8 batches; sorted times 10..80 µs; lower quartile (rank 2) = 20 µs.
        let mut times: Vec<u64> = vec![
            80_000, 10_000, 30_000, 20_000, 50_000, 40_000, 70_000, 60_000,
        ];
        let want = 2.0 * 4096.0 * 1e9 / oracle(&times, 0.25) as f64;
        assert_eq!(oracle(&times, 0.25), 20_000);
        assert!((rate_from_batches(&mut times, 4096, 2) - want).abs() < 1e-6);
        // A stall in a minority of batches does not move the estimate.
        let mut stalled = vec![20_000u64; 30];
        stalled.extend([9_000_000u64; 10]);
        assert!((rate_from_batches(&mut stalled, 4096, 1) - 4096.0 * 1e9 / 20_000.0).abs() < 1e-6);
        assert_eq!(rate_from_batches(&mut [], 4096, 1), 0.0);
    }

    #[test]
    fn ns_per_op_takes_the_lower_quartile_quotient_and_skips_empty_batches() {
        let batches = [(4000u64, 4u32), (0, 0), (3000, 2), (8000, 4), (9000, 3)];
        // Quotients: 1000, 1500, 2000, 3000 → lower quartile (rank 1) = 1000.
        assert!((ns_per_op(&batches) - 1000.0).abs() < 1e-9);
        assert_eq!(ns_per_op(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // n=5: [1,2,3,4,5] → [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
    }
}
