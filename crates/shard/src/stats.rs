//! Per-shard serving statistics.
//!
//! Each shard owns one cache-line-padded block of atomic counters, so a hot
//! shard's bookkeeping never false-shares with its neighbours — the same
//! discipline the paper applies to the structures themselves. Counters are
//! bumped with `Relaxed` fetch-adds (they are independent event counts with
//! no ordering relationship to the data they describe) and read through
//! [`ShardStats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Atomic per-shard counters (one padded block per shard).
#[derive(Debug, Default)]
pub struct ShardStats {
    inner: CachePadded<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    searches: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    inserts_ok: AtomicU64,
    removes: AtomicU64,
    removes_ok: AtomicU64,
    scans: AtomicU64,
    scan_keys: AtomicU64,
}

/// A plain-value copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// `search` calls routed to this shard.
    pub searches: u64,
    /// Searches that found their key.
    pub hits: u64,
    /// `insert` calls routed to this shard.
    pub inserts: u64,
    /// Inserts that succeeded (key was absent).
    pub inserts_ok: u64,
    /// `remove` calls routed to this shard.
    pub removes: u64,
    /// Removes that succeeded (key was present).
    pub removes_ok: u64,
    /// Range scans that touched this shard (every shard participates in a
    /// scatter-gather scan, so this counts per-shard sub-scans).
    pub scans: u64,
    /// Keys this shard contributed to scatter-gather scan results.
    pub scan_keys: u64,
}

impl ShardStatsSnapshot {
    /// Total operations routed to the shard.
    pub fn operations(&self) -> u64 {
        // Saturating: these are sums of long-running monotonic counters (see
        // ascylib::stats::OpCounters::merge for the rationale).
        self.searches
            .saturating_add(self.inserts)
            .saturating_add(self.removes)
            .saturating_add(self.scans)
    }

    /// Fraction of searches that hit, in `[0, 1]` (0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.hits as f64 / self.searches as f64
        }
    }

    /// Adds another snapshot (used to aggregate across shards).
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.searches = self.searches.saturating_add(other.searches);
        self.hits = self.hits.saturating_add(other.hits);
        self.inserts = self.inserts.saturating_add(other.inserts);
        self.inserts_ok = self.inserts_ok.saturating_add(other.inserts_ok);
        self.removes = self.removes.saturating_add(other.removes);
        self.removes_ok = self.removes_ok.saturating_add(other.removes_ok);
        self.scans = self.scans.saturating_add(other.scans);
        self.scan_keys = self.scan_keys.saturating_add(other.scan_keys);
    }
}

impl ShardStats {
    /// Records one search and whether it hit.
    #[inline]
    pub fn record_search(&self, hit: bool) {
        self.inner.searches.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one insert and whether it succeeded.
    #[inline]
    pub fn record_insert(&self, ok: bool) {
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.inner.inserts_ok.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one remove and whether it succeeded.
    #[inline]
    pub fn record_remove(&self, ok: bool) {
        self.inner.removes.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.inner.removes_ok.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a batch of `n` searches of which `hits` found their key (one
    /// fetch-add per counter instead of per key).
    #[inline]
    pub fn record_searches(&self, n: u64, hits: u64) {
        self.inner.searches.fetch_add(n, Ordering::Relaxed);
        if hits > 0 {
            self.inner.hits.fetch_add(hits, Ordering::Relaxed);
        }
    }

    /// Records one per-shard sub-scan that contributed `keys` keys.
    #[inline]
    pub fn record_scan(&self, keys: u64) {
        self.inner.scans.fetch_add(1, Ordering::Relaxed);
        if keys > 0 {
            self.inner.scan_keys.fetch_add(keys, Ordering::Relaxed);
        }
    }

    /// Reads the counters (not an atomic cross-counter snapshot: each value
    /// is individually exact, which is all reporting needs).
    pub fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            searches: self.inner.searches.load(Ordering::Relaxed),
            hits: self.inner.hits.load(Ordering::Relaxed),
            inserts: self.inner.inserts.load(Ordering::Relaxed),
            inserts_ok: self.inner.inserts_ok.load(Ordering::Relaxed),
            removes: self.inner.removes.load(Ordering::Relaxed),
            removes_ok: self.inner.removes_ok.load(Ordering::Relaxed),
            scans: self.inner.scans.load(Ordering::Relaxed),
            scan_keys: self.inner.scan_keys.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_reflected_in_snapshots() {
        let s = ShardStats::default();
        s.record_search(true);
        s.record_search(false);
        s.record_insert(true);
        s.record_insert(false);
        s.record_remove(true);
        let snap = s.snapshot();
        assert_eq!(snap.searches, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.inserts_ok, 1);
        assert_eq!(snap.removes, 1);
        assert_eq!(snap.removes_ok, 1);
        assert_eq!(snap.operations(), 5);
        assert_eq!(snap.hit_rate(), 0.5);
    }

    #[test]
    fn merge_aggregates_and_hit_rate_handles_zero() {
        let mut a = ShardStatsSnapshot { searches: 4, hits: 2, ..Default::default() };
        let b = ShardStatsSnapshot { searches: 6, hits: 4, inserts: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.searches, 10);
        assert_eq!(a.hits, 6);
        assert_eq!(a.operations(), 11);
        assert_eq!(ShardStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn stats_blocks_are_cache_padded() {
        let pair = [ShardStats::default(), ShardStats::default()];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 64, "adjacent shard stats share a cache line ({})", b - a);
    }

    #[test]
    fn concurrent_recording_loses_no_updates() {
        let s = std::sync::Arc::new(ShardStats::default());
        let threads = 4;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        s.record_search(i % 2 == 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.searches, (threads * per_thread) as u64);
        assert_eq!(snap.hits, (threads * per_thread / 2) as u64);
    }
}
