//! The sharded map itself.

use std::sync::Arc;

use ascylib::api::{ConcurrentMap, ReplaceMap};

use crate::router::ShardRouter;
use crate::stats::{ShardStats, ShardStatsSnapshot};

/// Hash-routed sharding over `N` independent [`ConcurrentMap`] instances.
///
/// Every key deterministically routes to one shard (see
/// [`crate::router::ShardRouter`]), so per-key operations inherit the
/// backing structure's linearizability: two operations on the same key
/// always contend inside the same linearizable shard, and operations on
/// different keys were independent to begin with. There is deliberately *no*
/// cross-shard coordination — no global lock, no counter shared across
/// shards — which is exactly what lets shards scale independently
/// (aggregate views like [`ConcurrentMap::size`] compose per-shard answers
/// and are as non-linearizable as the underlying `size` already was). The
/// one shared write an operation does make is its shard's own padded stats
/// block ([`ShardStats`]): relaxed fetch-adds per single-key operation, one
/// per shard touched for a batch.
///
/// `ShardedMap` itself implements [`ConcurrentMap`], so it drops into the
/// harness, the registry-driven benchmarks, and anywhere else a single
/// structure would go.
pub struct ShardedMap<M> {
    shards: Box<[M]>,
    stats: Box<[ShardStats]>,
    router: ShardRouter,
}

impl<M: ConcurrentMap> ShardedMap<M> {
    /// Builds a sharded map over `shards` instances; `make(i)` constructs
    /// the `i`-th shard (size hash-table shards for `capacity / shards`).
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn new(shards: usize, mut make: impl FnMut(usize) -> M) -> Self {
        let router = ShardRouter::new(shards);
        ShardedMap {
            shards: (0..shards).map(&mut make).collect(),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            router,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// The shard index a key routes to.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// Direct access to one shard (for inspection/tests).
    pub fn shard(&self, index: usize) -> &M {
        &self.shards[index]
    }

    #[inline]
    pub(crate) fn shard_and_stats(&self, key: u64) -> (&M, &ShardStats) {
        let idx = self.router.route(key);
        (&self.shards[idx], &self.stats[idx])
    }

    #[inline]
    pub(crate) fn stats_of(&self, index: usize) -> &ShardStats {
        &self.stats[index]
    }

    /// Per-shard element counts (same consistency caveat as
    /// [`ConcurrentMap::size`]).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.size()).collect()
    }

    /// Per-shard traffic counters.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Traffic counters aggregated over all shards.
    pub fn total_stats(&self) -> ShardStatsSnapshot {
        let mut total = ShardStatsSnapshot::default();
        for s in &self.stats {
            total.merge(&s.snapshot());
        }
        total
    }
}

impl ShardedMap<Arc<dyn ConcurrentMap>> {
    /// Builds a sharded map whose shards come from an
    /// [`ascylib::registry`] entry, each sized for `capacity / shards`
    /// elements.
    pub fn from_registry(
        entry: &ascylib::registry::AlgorithmEntry,
        shards: usize,
        capacity: usize,
    ) -> Self {
        let per_shard = (capacity / shards.max(1)).max(1);
        ShardedMap::new(shards, |_| (entry.construct)(per_shard))
    }
}

impl<M: ConcurrentMap> ConcurrentMap for ShardedMap<M> {
    fn search(&self, key: u64) -> Option<u64> {
        let (shard, stats) = self.shard_and_stats(key);
        let found = shard.search(key);
        stats.record_search(found.is_some());
        found
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        let (shard, stats) = self.shard_and_stats(key);
        let ok = shard.insert(key, value);
        stats.record_insert(ok);
        ok
    }

    fn remove(&self, key: u64) -> Option<u64> {
        let (shard, stats) = self.shard_and_stats(key);
        let removed = shard.remove(key);
        stats.record_remove(removed.is_some());
        removed
    }

    /// Sum of the shard sizes (each shard's `size` is already only a
    /// sanity-check view; the sum composes those views).
    fn size(&self) -> usize {
        self.shards.iter().map(|s| s.size()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Routes to the owning shard's `contains` (no stats recorded: the
    /// harness counts `search`, and `contains` is its wrapper).
    fn contains(&self, key: u64) -> bool {
        self.shards[self.router.route(key)].contains(key)
    }
}

impl<M: ReplaceMap> ReplaceMap for ShardedMap<M> {
    /// Routes to the owning shard's `replace`. A swap is recorded as one
    /// insert attempt that did not create a key (so `inserts_ok −
    /// removes_ok` keeps tracking `size`); a miss records nothing, the
    /// caller's follow-up `insert` is the attempt.
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        let (shard, stats) = self.shard_and_stats(key);
        let old = shard.replace(key, value);
        if old.is_some() {
            stats.record_insert(false);
        }
        old
    }
}

impl<M: ConcurrentMap> std::fmt::Debug for ShardedMap<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shard_count())
            .field("sizes", &self.shard_sizes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascylib::hashtable::ClhtLb;
    use ascylib::list::HarrisList;
    use ascylib::registry;

    #[test]
    fn basic_semantics_route_through_shards() {
        let map = ShardedMap::new(8, |_| ClhtLb::with_capacity(64));
        for k in 1..=200u64 {
            assert!(map.insert(k, k * 7));
            assert!(!map.insert(k, 0), "duplicate insert must fail");
        }
        assert_eq!(map.size(), 200);
        assert!(!map.is_empty());
        for k in 1..=200u64 {
            assert_eq!(map.search(k), Some(k * 7));
            assert!(map.contains(k));
        }
        assert_eq!(map.search(201), None);
        for k in 1..=200u64 {
            assert_eq!(map.remove(k), Some(k * 7));
            assert_eq!(map.remove(k), None);
        }
        assert!(map.is_empty());
        // All 200 elements were spread over the shards.
        let stats = map.total_stats();
        assert_eq!(stats.inserts_ok, 200);
        assert_eq!(stats.removes_ok, 200);
        assert_eq!(stats.hits, 200);
    }

    #[test]
    fn replace_swaps_in_place_and_counts_as_a_non_creating_insert() {
        let map = ShardedMap::new(4, |_| ClhtLb::with_capacity(16));
        assert_eq!(map.replace(9, 90), None, "absent key: no-op");
        assert_eq!(map.size(), 0);
        assert!(map.insert(9, 90));
        assert_eq!(map.replace(9, 91), Some(90));
        assert_eq!(map.search(9), Some(91));
        let stats = map.total_stats();
        assert_eq!((stats.inserts, stats.inserts_ok, stats.removes), (2, 1, 0));
        assert_eq!(stats.inserts_ok - stats.removes_ok, map.size() as u64);
    }

    #[test]
    fn shard_sizes_sum_to_total() {
        let map = ShardedMap::new(5, |_| HarrisList::new());
        for k in 1..=97u64 {
            map.insert(k, k);
        }
        let sizes = map.shard_sizes();
        assert_eq!(sizes.len(), 5);
        assert_eq!(sizes.iter().sum::<usize>(), 97);
        assert_eq!(map.size(), 97);
        // Dense keys must not pile into one shard.
        assert!(sizes.iter().all(|&s| s > 0), "empty shard under dense keys: {sizes:?}");
    }

    #[test]
    fn keys_always_find_their_shard_again() {
        let map = ShardedMap::new(7, |_| ClhtLb::with_capacity(32));
        for k in (1..=500u64).step_by(13) {
            let idx = map.shard_of(k);
            map.insert(k, k);
            // The element is in exactly the routed shard.
            assert_eq!(map.shard(idx).search(k), Some(k));
            for other in 0..map.shard_count() {
                if other != idx {
                    assert_eq!(map.shard(other).search(k), None);
                }
            }
        }
    }

    #[test]
    fn registry_backed_construction_works() {
        let entry = registry::by_name("ht-clht-lb").unwrap();
        let map = ShardedMap::from_registry(&entry, 4, 1024);
        assert_eq!(map.shard_count(), 4);
        assert!(map.insert(11, 110));
        assert_eq!(map.search(11), Some(110));
        assert_eq!(map.remove(11), Some(110));
    }

    #[test]
    fn partitioned_concurrency_over_shards() {
        // Reuses the core test battery: the sharded map must behave like any
        // other ConcurrentMap under concurrent disjoint-key traffic.
        ascylib::testing::partitioned_concurrency(
            || ShardedMap::new(4, |_| ClhtLb::with_capacity(256)),
            4,
            128,
        );
    }

    #[test]
    fn balance_stress_over_shards() {
        ascylib::testing::balance_stress(
            || ShardedMap::new(3, |_| HarrisList::new()),
            4,
            2_000,
            96,
        );
    }
}
