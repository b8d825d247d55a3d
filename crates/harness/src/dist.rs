//! Key distributions for skewed workloads.
//!
//! The paper's microbenchmarks draw keys uniformly from `[1, 2N]`. Production
//! serving systems see *skewed* traffic: a few keys absorb most requests.
//! This module adds a [`KeyDist`] abstraction with three generators, all
//! deterministic under a fixed seed:
//!
//! * [`KeyDist::Uniform`] — the paper's original setting.
//! * [`KeyDist::Zipfian`] — rank-frequency skew `p(k) ∝ k^{-θ}` (θ = 0.99 is
//!   the YCSB default), sampled in O(1) per draw with Hörmann's
//!   rejection-inversion method (*"Rejection-inversion to generate variates
//!   from monotone discrete distributions"*, ACM TOMACS 1996), the same
//!   algorithm behind Apache Commons' `RejectionInversionZipfSampler` and
//!   `rand_distr::Zipf`.
//! * [`KeyDist::Hotspot`] — a YCSB-style hot set: a fraction of the keyspace
//!   receives a (much larger) fraction of the traffic, uniform within each
//!   region.
//!
//! A [`KeySampler`] precomputes the distribution's constants once per
//! thread; `sample` then costs one or two `f64` draws from the vendored
//! `SmallRng`.

use rand::Rng;

/// How operation keys are drawn from the key range `[1, range]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key is equally likely (the paper's §4 setting).
    Uniform,
    /// Zipfian rank-frequency skew: the `k`-th most popular key has
    /// probability proportional to `k^{-theta}`. `theta` must be positive;
    /// YCSB uses 0.99, higher values are more skewed.
    Zipfian {
        /// The skew exponent θ (must be `> 0` and finite).
        theta: f64,
    },
    /// A hot set: `hot_fraction` of the keyspace receives `hot_prob` of the
    /// requests, with uniform draws inside the hot and cold regions.
    Hotspot {
        /// Fraction of the keyspace that is hot, in `(0, 1]`.
        hot_fraction: f64,
        /// Probability that a request targets the hot set, in `[0, 1]`.
        hot_prob: f64,
    },
}

impl KeyDist {
    /// The forms [`parse`](Self::parse) accepts, for error messages.
    pub const FORMS: &'static str = "uniform | zipf:<theta> | hotspot:<frac>:<prob>";

    /// Parses a CLI/environment spec: `uniform`, `zipf:<theta>`, or
    /// `hotspot:<hot_fraction>:<hot_prob>`. Returns `None` on anything else
    /// (out-of-domain parameters included).
    pub fn parse(spec: &str) -> Option<KeyDist> {
        if spec.eq_ignore_ascii_case("uniform") {
            return Some(KeyDist::Uniform);
        }
        let (kind, args) = spec.split_once(':')?;
        match kind {
            "zipf" => {
                let theta: f64 = args.trim().parse().ok()?;
                (theta > 0.0 && theta.is_finite()).then_some(KeyDist::Zipfian { theta })
            }
            "hotspot" => {
                let (frac_str, prob_str) = args.split_once(':')?;
                let hot_fraction: f64 = frac_str.trim().parse().ok()?;
                let hot_prob: f64 = prob_str.trim().parse().ok()?;
                (hot_fraction > 0.0 && hot_fraction <= 1.0 && (0.0..=1.0).contains(&hot_prob))
                    .then_some(KeyDist::Hotspot { hot_fraction, hot_prob })
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyDist::Uniform => write!(f, "uniform"),
            KeyDist::Zipfian { theta } => write!(f, "zipf({theta})"),
            KeyDist::Hotspot { hot_fraction, hot_prob } => {
                write!(f, "hotspot({:.0}%@{:.0}%)", hot_fraction * 100.0, hot_prob * 100.0)
            }
        }
    }
}

/// Precomputed sampler for one [`KeyDist`] over the key range `[1, range]`.
#[derive(Debug, Clone, Copy)]
pub struct KeySampler {
    range: u64,
    kind: SamplerKind,
}

#[derive(Debug, Clone, Copy)]
enum SamplerKind {
    Uniform,
    Zipfian(ZipfSampler),
    Hotspot {
        /// Number of keys in the hot region `[1, hot_count]`.
        hot_count: u64,
        hot_prob: f64,
    },
}

impl KeySampler {
    /// Builds a sampler for `dist` over `[1, range]`.
    ///
    /// # Panics
    ///
    /// If `range == 0`, if a Zipfian θ is not positive and finite, or if a
    /// hotspot fraction/probability is outside its documented domain.
    pub fn new(dist: KeyDist, range: u64) -> Self {
        assert!(range >= 1, "key range must be non-empty");
        let kind = match dist {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipfian { theta } => SamplerKind::Zipfian(ZipfSampler::new(range, theta)),
            KeyDist::Hotspot { hot_fraction, hot_prob } => {
                assert!(
                    hot_fraction > 0.0 && hot_fraction <= 1.0,
                    "hot_fraction must be in (0, 1], got {hot_fraction}"
                );
                assert!(
                    (0.0..=1.0).contains(&hot_prob),
                    "hot_prob must be in [0, 1], got {hot_prob}"
                );
                // At least one hot key, never more than the whole range.
                let hot_count = ((range as f64 * hot_fraction).ceil() as u64).clamp(1, range);
                SamplerKind::Hotspot { hot_count, hot_prob }
            }
        };
        KeySampler { range, kind }
    }

    /// The key range this sampler draws from (`[1, range]`).
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Draws one key in `[1, range]`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self.kind {
            SamplerKind::Uniform => rng.random_range(1..=self.range),
            SamplerKind::Zipfian(z) => z.sample(rng),
            SamplerKind::Hotspot { hot_count, hot_prob } => {
                if rng.random::<f64>() < hot_prob || hot_count == self.range {
                    rng.random_range(1..=hot_count)
                } else {
                    rng.random_range(hot_count + 1..=self.range)
                }
            }
        }
    }
}

/// Hörmann rejection-inversion sampler for `p(k) ∝ k^{-theta}` on `[1, n]`.
///
/// `H(x) = ∫₁ˣ t^{-θ} dt` extends the discrete mass to a continuous envelope;
/// a uniform draw on `(H(0.5), H(n + 0.5)]` is mapped back through `H⁻¹` and
/// accepted unless it falls in the (small) gap between the envelope and the
/// discrete mass. Acceptance probability is high for all θ, so the expected
/// number of iterations is close to 1 — no O(n) zeta precomputation needed.
#[derive(Debug, Clone, Copy)]
struct ZipfSampler {
    n: u64,
    theta: f64,
    /// `H(1.5) - 1` — the top of the acceptance window.
    h_x1: f64,
    /// `H(n + 0.5)` — the bottom of the acceptance window.
    h_n: f64,
    /// Shortcut threshold: `x` within `s` of its rounded integer is always
    /// accepted (`s = 2 - H⁻¹(H(2.5) - 2^{-θ})`).
    s: f64,
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta.is_finite(),
            "zipfian theta must be positive and finite, got {theta}"
        );
        let h_x1 = h_integral(1.5, theta) - 1.0;
        let h_n = h_integral(n as f64 + 0.5, theta);
        let s = 2.0 - h_integral_inverse(h_integral(2.5, theta) - h(2.0, theta), theta);
        ZipfSampler { n, theta, h_x1, h_n, s }
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            // Uniform in (h_x1, h_n]: random::<f64>() is in [0, 1) so the
            // h_x1 endpoint itself is excluded, as the method requires.
            let u = self.h_n + rng.random::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.theta);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // Accept k when it is close enough to the continuous inverse, or
            // when u lies under the discrete probability mass of k.
            if k - x <= self.s || u >= h_integral(k + 0.5, self.theta) - h(k, self.theta) {
                return k as u64;
            }
        }
    }
}

/// `H(x) = (x^{1-θ} - 1) / (1 - θ)` (and `ln x` as θ → 1), computed through
/// `expm1`/`log1p` so the θ ≈ 1 neighbourhood stays accurate.
fn h_integral(x: f64, theta: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - theta) * log_x) * log_x
}

/// The density `h(x) = x^{-θ}`.
fn h(x: f64, theta: f64) -> f64 {
    (-theta * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(x: f64, theta: f64) -> f64 {
    let mut t = x * (1.0 - theta);
    // Clamp to the domain edge (t < -1 can only arise from rounding).
    if t < -1.0 {
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log1p(x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x / 3.0)
    }
}

/// `expm1(x) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * (0.5 + x / 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn draw_many(dist: KeyDist, range: u64, count: usize, seed: u64) -> Vec<u64> {
        let sampler = KeySampler::new(dist, range);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count).map(|_| sampler.sample(&mut rng)).collect()
    }

    #[test]
    fn all_distributions_stay_in_range() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.99 },
            KeyDist::Zipfian { theta: 1.0 },
            KeyDist::Zipfian { theta: 2.5 },
            KeyDist::Hotspot { hot_fraction: 0.1, hot_prob: 0.9 },
        ] {
            for range in [1u64, 2, 7, 1000] {
                for key in draw_many(dist, range, 5_000, 42) {
                    assert!(
                        (1..=range).contains(&key),
                        "{dist}: key {key} outside [1, {range}]"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_under_a_fixed_seed() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.99 },
            KeyDist::Hotspot { hot_fraction: 0.2, hot_prob: 0.8 },
        ] {
            assert_eq!(draw_many(dist, 512, 2_000, 7), draw_many(dist, 512, 2_000, 7));
            assert_ne!(draw_many(dist, 512, 2_000, 7), draw_many(dist, 512, 2_000, 8));
        }
    }

    #[test]
    fn zipfian_concentrates_mass_on_low_ranks() {
        let n = 1000u64;
        let draws = draw_many(KeyDist::Zipfian { theta: 0.99 }, n, 200_000, 1234);
        let mut counts = vec![0u64; n as usize + 1];
        for k in draws {
            counts[k as usize] += 1;
        }
        let total = 200_000f64;
        let top10: u64 = counts[1..=10].iter().sum();
        // Analytically ~40% of the mass is on ranks 1–10 for θ=0.99, n=1000;
        // uniform would put 1% there.
        assert!(
            top10 as f64 / total > 0.25,
            "top-10 ranks got only {:.1}% of draws",
            100.0 * top10 as f64 / total
        );
        // Rank 1 vs rank 2 frequency ratio ≈ 2^0.99 ≈ 1.99.
        let ratio = counts[1] as f64 / counts[2].max(1) as f64;
        assert!((1.5..2.6).contains(&ratio), "p(1)/p(2) ratio off: {ratio}");
    }

    #[test]
    fn zipfian_theta_one_is_handled_by_the_stable_helpers() {
        let draws = draw_many(KeyDist::Zipfian { theta: 1.0 }, 100, 50_000, 77);
        let ones = draws.iter().filter(|&&k| k == 1).count() as f64 / 50_000.0;
        // For θ=1, n=100: p(1) = 1/H_100 ≈ 19.3%.
        assert!((0.15..0.25).contains(&ones), "p(1) for θ=1 off: {ones}");
    }

    #[test]
    fn hotspot_routes_the_configured_fraction_to_the_hot_set() {
        let range = 1000u64;
        let draws =
            draw_many(KeyDist::Hotspot { hot_fraction: 0.1, hot_prob: 0.9 }, range, 100_000, 3);
        let hot = draws.iter().filter(|&&k| k <= 100).count() as f64 / 100_000.0;
        assert!((0.88..0.93).contains(&hot), "hot-set fraction off: {hot}");
    }

    #[test]
    fn hotspot_with_full_hot_fraction_is_uniform() {
        let draws =
            draw_many(KeyDist::Hotspot { hot_fraction: 1.0, hot_prob: 0.0 }, 50, 10_000, 11);
        // hot_count == range: every draw must come from the "hot" branch.
        assert!(draws.iter().all(|&k| (1..=50).contains(&k)));
    }

    #[test]
    fn display_names_are_compact() {
        assert_eq!(KeyDist::Uniform.to_string(), "uniform");
        assert_eq!(KeyDist::Zipfian { theta: 0.99 }.to_string(), "zipf(0.99)");
        assert_eq!(
            KeyDist::Hotspot { hot_fraction: 0.1, hot_prob: 0.9 }.to_string(),
            "hotspot(10%@90%)"
        );
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn zipfian_rejects_nonpositive_theta() {
        KeySampler::new(KeyDist::Zipfian { theta: 0.0 }, 10);
    }

    #[test]
    fn parse_accepts_the_documented_specs() {
        assert_eq!(KeyDist::parse("uniform"), Some(KeyDist::Uniform));
        assert_eq!(KeyDist::parse("UNIFORM"), Some(KeyDist::Uniform));
        assert_eq!(KeyDist::parse("zipf:0.99"), Some(KeyDist::Zipfian { theta: 0.99 }));
        assert_eq!(KeyDist::parse("zipf: 1.2 "), Some(KeyDist::Zipfian { theta: 1.2 }));
        assert_eq!(
            KeyDist::parse("hotspot:0.1:0.9"),
            Some(KeyDist::Hotspot { hot_fraction: 0.1, hot_prob: 0.9 })
        );
    }

    #[test]
    fn parse_rejects_malformed_and_out_of_domain_specs() {
        for bad in [
            "", "zipf", "zipf:", "zipf:0", "zipf:-1", "zipf:inf", "zipf:abc", "hotspot:0.1",
            "hotspot:0:0.9", "hotspot:1.5:0.9", "hotspot:0.1:1.5", "pareto:1.0", "uniform:1",
        ] {
            assert_eq!(KeyDist::parse(bad), None, "spec {bad:?} must be rejected");
        }
    }
}
