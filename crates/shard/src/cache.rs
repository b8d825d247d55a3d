//! Cache-tier policy knobs for [`crate::BlobMap`]: byte budgets, TTLs, and
//! the millisecond clock that drives expiry.
//!
//! The mechanism (CLOCK eviction, lazy expiry, the piggybacked sweep) lives
//! in [`crate::blob`]; this module holds the *policy* surface — the config
//! a server or load generator threads down to the store, the spec parsers
//! shared by `kv_server` and `kv_loadgen` (`ASCYLIB_BUDGET` / `--budget`,
//! `ASCYLIB_TTL` / `--ttl`), the swappable clock (a [`FakeClock`] lets the
//! differential tests drive expiry deterministically), and the counter
//! snapshot every scrape surface renders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A millisecond clock the cache tier reads expiry deadlines against.
///
/// Production uses [`WallClock`] (monotonic, process-relative); tests use
/// [`FakeClock`] to hit exact expiry boundaries deterministically. The only
/// contract is monotonicity — deadlines are stored as absolute `now + ttl`
/// milliseconds, so a clock that jumps backwards would resurrect expired
/// values.
pub trait MsClock: Send + Sync + std::fmt::Debug {
    /// Milliseconds on this clock's (arbitrary, monotone) timeline.
    fn now_ms(&self) -> u64;
}

/// The default clock: milliseconds since the first observation, measured on
/// the OS monotonic clock (immune to wall-time adjustments).
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock;

/// Process-wide origin for [`WallClock`], fixed at first use so every arena
/// sharing the default clock agrees on the timeline.
static WALL_EPOCH: OnceLock<Instant> = OnceLock::new();

impl MsClock for WallClock {
    fn now_ms(&self) -> u64 {
        WALL_EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
    }
}

/// A hand-cranked clock for tests: time only moves when the test says so,
/// so "expiry at the exact boundary" is a reachable state, not a race.
#[derive(Debug, Default)]
pub struct FakeClock {
    ms: AtomicU64,
}

impl FakeClock {
    /// A fake clock starting at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute reading. Must not move backwards
    /// (the cache tier's deadlines assume monotone time).
    pub fn set(&self, ms: u64) {
        self.ms.store(ms, Ordering::Relaxed);
    }
}

impl MsClock for FakeClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::Relaxed)
    }
}

/// Policy for a [`crate::BlobMap`]'s cache tier.
///
/// The default config is fully inert: no byte budget (the store grows
/// without bound, as before this tier existed), no default TTL (values
/// live until deleted), wall clock. `EXPIRE`/`SET … EX` still work against
/// an inert config — per-value TTLs don't need a policy, only the budget
/// and the *default* TTL are policy.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total payload-byte budget across all shards (`None` = unbounded).
    /// Enforced on the SET path by CLOCK eviction; split evenly over
    /// shards, so per-shard skew can evict before the global sum fills.
    pub budget_bytes: Option<u64>,
    /// TTL applied to plain `set` calls (`None` = values don't expire
    /// unless stored via `set_ex` or aged via `expire`).
    pub default_ttl_ms: Option<u64>,
    /// The clock expiry deadlines are measured against.
    pub clock: Arc<dyn MsClock>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { budget_bytes: None, default_ttl_ms: None, clock: Arc::new(WallClock) }
    }
}

impl CacheConfig {
    /// The inert config: unbounded, no default TTL (see type docs).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the total byte budget (`0` means unbounded).
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget_bytes = (bytes != 0).then_some(bytes);
        self
    }

    /// Sets the default TTL for plain `set` calls (`0` means none).
    pub fn with_ttl_ms(mut self, ms: u64) -> Self {
        self.default_ttl_ms = (ms != 0).then_some(ms);
        self
    }

    /// Swaps the clock (tests pass a [`FakeClock`] here).
    pub fn with_clock(mut self, clock: Arc<dyn MsClock>) -> Self {
        self.clock = clock;
        self
    }

    /// `true` if any policy (budget or default TTL) is configured.
    pub fn is_active(&self) -> bool {
        self.budget_bytes.is_some() || self.default_ttl_ms.is_some()
    }

    /// Human-readable policy summary for startup banners.
    pub fn describe(&self) -> String {
        let budget = match self.budget_bytes {
            Some(b) => format!("budget {b} B"),
            None => "no budget".to_string(),
        };
        match self.default_ttl_ms {
            Some(t) => format!("{budget}, default ttl {t} ms"),
            None => budget,
        }
    }
}

/// The forms [`parse_budget`] accepts, for error messages.
pub const BUDGET_FORMS: &str = "e.g. 64mb, 512kb, 1048576, or off";

/// The forms [`parse_ttl`] accepts, for error messages.
pub const TTL_FORMS: &str = "e.g. 500ms, 30s, 5m, 2h, or off";

/// Parses a byte-budget spec: a decimal count with an optional `kb`/`mb`/
/// `gb` suffix (case-insensitive), or `off`/`none`/`0` for unbounded.
/// Outer `None` = malformed; inner `None` = explicitly unbounded.
pub fn parse_budget(spec: &str) -> Option<Option<u64>> {
    let (k, m, g) = (1 << 10, 1 << 20, 1 << 30);
    let units = [("", 1), ("b", 1), ("kb", k), ("k", k), ("mb", m), ("m", m), ("gb", g), ("g", g)];
    parse_scaled(spec, &units)
}

/// Parses a TTL spec: a decimal count with an optional `ms`/`s`/`m`/`h`
/// suffix (no suffix = seconds), or `off`/`none`/`0` for no default TTL.
/// Outer `None` = malformed; inner `None` = explicitly no TTL.
pub fn parse_ttl(spec: &str) -> Option<Option<u64>> {
    parse_scaled(spec, &[("ms", 1), ("", 1_000), ("s", 1_000), ("m", 60_000), ("h", 3_600_000)])
}

/// A decimal count times the multiplier of its (case-insensitive) unit in
/// `units`, or `off`/`none`/`0` for "no limit" (inner `None`); outer
/// `None` on anything else, overflow included.
fn parse_scaled(spec: &str, units: &[(&str, u64)]) -> Option<Option<u64>> {
    let s = spec.trim().to_ascii_lowercase();
    if s == "off" || s == "none" || s == "0" {
        return Some(None);
    }
    let (digits, unit) = match s.find(|c: char| !c.is_ascii_digit()) {
        Some(0) => return None,
        Some(i) => s.split_at(i),
        None => (s.as_str(), ""),
    };
    let n: u64 = digits.parse().ok()?;
    let &(_, mul) = units.iter().find(|(u, _)| *u == unit)?;
    let value = n.checked_mul(mul)?;
    Some((value != 0).then_some(value))
}

/// Point-in-time cache-tier counters (summed over shards by
/// [`crate::BlobMap::cache_stats`]).
///
/// # Counters vs. gauges
///
/// `budget_bytes` and `live_bytes` are **gauges** (current state);
/// everything else is a monotone **counter**. [`merge`](Self::merge) sums
/// all fields — per-shard budgets and live bytes legitimately add up to
/// the store totals, unlike cross-*snapshot* gauge merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Configured payload-byte budget (0 = unbounded). Gauge.
    pub budget_bytes: u64,
    /// Payload bytes currently reserved/live (headers and size-class
    /// padding excluded). Gauge; with a budget configured this never
    /// exceeds it unless `forced` admissions occurred.
    pub live_bytes: u64,
    /// Values evicted by CLOCK to make room under the budget.
    pub evictions: u64,
    /// Index entries CLOCK's hand examined to choose those victims (the
    /// victims included): the hand's work, per eviction.
    pub clock_visits: u64,
    /// Expired values reclaimed lazily by a read that found them dead.
    pub expired_lazy: u64,
    /// Expired values reclaimed by the piggybacked write/scan sweep.
    pub expired_swept: u64,
    /// Admissions forced through over budget because nothing was
    /// evictable (e.g. a single value larger than a shard's budget).
    pub forced: u64,
    /// Values currently carrying an expiry deadline. Gauge.
    pub ttl_live: u64,
}

impl CacheStatsSnapshot {
    /// Adds another shard's snapshot into this one (saturating).
    pub fn merge(&mut self, other: &CacheStatsSnapshot) {
        self.budget_bytes = self.budget_bytes.saturating_add(other.budget_bytes);
        self.live_bytes = self.live_bytes.saturating_add(other.live_bytes);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.clock_visits = self.clock_visits.saturating_add(other.clock_visits);
        self.expired_lazy = self.expired_lazy.saturating_add(other.expired_lazy);
        self.expired_swept = self.expired_swept.saturating_add(other.expired_swept);
        self.forced = self.forced.saturating_add(other.forced);
        self.ttl_live = self.ttl_live.saturating_add(other.ttl_live);
    }

    /// Total expired values reclaimed (lazy + swept).
    pub fn expired(&self) -> u64 {
        self.expired_lazy.saturating_add(self.expired_swept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_specs_parse_units_and_reject_garbage() {
        assert_eq!(parse_budget("1048576"), Some(Some(1 << 20)));
        assert_eq!(parse_budget("512kb"), Some(Some(512 << 10)));
        assert_eq!(parse_budget("64MB"), Some(Some(64 << 20)));
        assert_eq!(parse_budget(" 2gb "), Some(Some(2 << 30)));
        assert_eq!(parse_budget("16k"), Some(Some(16 << 10)));
        assert_eq!(parse_budget("off"), Some(None));
        assert_eq!(parse_budget("0"), Some(None));
        assert_eq!(parse_budget("0kb"), Some(None));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("mb"), None);
        assert_eq!(parse_budget("12tb"), None);
        assert_eq!(parse_budget("1.5mb"), None);
        assert_eq!(parse_budget("-1"), None);
        assert_eq!(parse_budget("99999999999999999999"), None, "overflowing count");
        assert_eq!(parse_budget("99999999999gb"), None, "overflowing multiply");
    }

    #[test]
    fn ttl_specs_parse_units_and_reject_garbage() {
        assert_eq!(parse_ttl("500ms"), Some(Some(500)));
        assert_eq!(parse_ttl("30s"), Some(Some(30_000)));
        assert_eq!(parse_ttl("30"), Some(Some(30_000)), "bare count is seconds");
        assert_eq!(parse_ttl("5M"), Some(Some(300_000)));
        assert_eq!(parse_ttl("2h"), Some(Some(7_200_000)));
        assert_eq!(parse_ttl("off"), Some(None));
        assert_eq!(parse_ttl("none"), Some(None));
        assert_eq!(parse_ttl("0ms"), Some(None));
        assert_eq!(parse_ttl(""), None);
        assert_eq!(parse_ttl("s"), None);
        assert_eq!(parse_ttl("10d"), None);
        assert_eq!(parse_ttl("ten"), None);
    }

    #[test]
    fn fake_clock_is_hand_cranked() {
        let c = FakeClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance(250);
        assert_eq!(c.now_ms(), 250);
        c.set(1000);
        assert_eq!(c.now_ms(), 1000);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let a = WallClock.now_ms();
        let b = WallClock.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn config_builders_and_activity() {
        let inert = CacheConfig::unbounded();
        assert!(!inert.is_active());
        assert!(CacheConfig::unbounded().with_budget(1024).is_active());
        assert!(CacheConfig::unbounded().with_ttl_ms(500).is_active());
        assert!(!CacheConfig::unbounded().with_budget(0).with_ttl_ms(0).is_active());
    }

    #[test]
    fn describe_renders_the_policy() {
        assert_eq!(CacheConfig::unbounded().describe(), "no budget");
        let cfg = CacheConfig::unbounded().with_budget(64 << 10).with_ttl_ms(30_000);
        assert_eq!(cfg.describe(), "budget 65536 B, default ttl 30000 ms");
        assert_eq!(CacheConfig::unbounded().with_budget(0).with_ttl_ms(0).describe(), "no budget");
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let mut a = CacheStatsSnapshot {
            budget_bytes: 100,
            live_bytes: 40,
            evictions: 1,
            clock_visits: 5,
            expired_lazy: 2,
            expired_swept: 3,
            forced: 0,
            ttl_live: 4,
        };
        let b = CacheStatsSnapshot {
            budget_bytes: 100,
            live_bytes: 60,
            evictions: 10,
            clock_visits: 50,
            expired_lazy: 20,
            expired_swept: 30,
            forced: 1,
            ttl_live: 40,
        };
        a.merge(&b);
        assert_eq!(a.budget_bytes, 200);
        assert_eq!(a.live_bytes, 100);
        assert_eq!(a.evictions, 11);
        assert_eq!(a.clock_visits, 55);
        assert_eq!(a.expired(), 55);
        assert_eq!(a.forced, 1);
        assert_eq!(a.ttl_live, 44);
    }
}
