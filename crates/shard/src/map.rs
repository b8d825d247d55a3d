//! The sharded map itself.

use std::sync::Arc;

use ascylib::api::{ConcurrentMap, ReplaceMap};

use crate::hotkey::{FrontReadU64, HotKeyConfig, HotKeyEngine, HotKeyStatsSnapshot, HotOp, HotOpKind, HotOpResult};
use crate::router::ShardRouter;
use crate::stats::{ShardStats, ShardStatsSnapshot};

/// Hash-routed sharding over `N` independent [`ConcurrentMap`] instances.
///
/// Every key deterministically routes to one shard (see
/// [`crate::router::ShardRouter`]), so per-key operations inherit the
/// backing structure's linearizability: two operations on the same key
/// always contend inside the same linearizable shard, and operations on
/// different keys were independent to begin with. There is deliberately *no*
/// cross-shard coordination — no global lock, no shared counter on the
/// operation path — which is exactly what lets shards scale independently
/// (aggregate views like [`ConcurrentMap::size`] compose per-shard answers
/// and are as non-linearizable as the underlying `size` already was).
///
/// `ShardedMap` itself implements [`ConcurrentMap`], so it drops into the
/// harness, the registry-driven benchmarks, and anywhere else a single
/// structure would go.
pub struct ShardedMap<M> {
    shards: Box<[M]>,
    stats: Box<[ShardStats]>,
    router: ShardRouter,
    /// The optional hot-key engine (see [`crate::hotkey`]). `None` — the
    /// default — keeps every path exactly as it was before the engine
    /// existed; [`Self::with_hotkeys`] opts in.
    hot: Option<Box<HotKeyEngine>>,
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
            hot: None,
        }
    }

    /// Like [`new`](Self::new), additionally attaching a hot-key engine
    /// (detection + front cache + flat-combining delegation, see
    /// [`crate::hotkey`]). `cfg.k == 0` — or building without the `hotkey`
    /// cargo feature — yields a plain map, so callers can thread an
    /// environment knob straight through.
    pub fn with_hotkeys(shards: usize, cfg: HotKeyConfig, make: impl FnMut(usize) -> M) -> Self {
        let mut map = Self::new(shards, make);
        map.hot = HotKeyEngine::new(shards, cfg);
        map
    }

    /// The attached hot-key engine, if any.
    pub fn hotkey_engine(&self) -> Option<&HotKeyEngine> {
        self.hot.as_deref()
    }

    /// Hot-key engine counters, when an engine is attached.
    pub fn hotkey_stats(&self) -> Option<HotKeyStatsSnapshot> {
        self.hot.as_deref().map(HotKeyEngine::stats)
    }

    /// Current top-k hot keys (empty without an engine).
    pub fn hot_keys(&self) -> Vec<(u64, u64)> {
        self.hot.as_deref().map(HotKeyEngine::hot_keys).unwrap_or_default()
    }

    pub(crate) fn hot(&self) -> Option<&HotKeyEngine> {
        self.hot.as_deref()
    }

    /// Applies a delegated op against the backing shard, *without* stats
    /// (each delegating thread records its own outcome, so the combiner
    /// applying a batch must not double-count).
    fn apply_hot(&self, op: &HotOp) -> HotOpResult {
        let shard = &self.shards[self.router.route(op.key)];
        match op.kind {
            HotOpKind::Insert => HotOpResult { ok: shard.insert(op.key, op.val_u64), old: 0 },
            HotOpKind::Del => match shard.remove(op.key) {
                Some(old) => HotOpResult { ok: true, old },
                None => HotOpResult { ok: false, old: 0 },
            },
            HotOpKind::Set => unreachable!("ShardedMap never publishes blob ops"),
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

    /// Traffic counters aggregated over all shards, plus the reads the
    /// hot-key front cache answered without touching a shard (folded into
    /// `searches`/`hits` here so a fronted search still counts; the
    /// per-shard snapshots deliberately exclude them).
    pub fn total_stats(&self) -> ShardStatsSnapshot {
        let mut total = ShardStatsSnapshot::default();
        for s in &self.stats {
            total.merge(&s.snapshot());
        }
        if let Some(h) = self.hotkey_stats() {
            total.searches = total.searches.saturating_add(h.front_hits + h.front_absent);
            total.hits = total.hits.saturating_add(h.front_hits);
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
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            match hot.read_u64(key) {
                // Front-served reads skip the shard-stats RMWs;
                // `total_stats` folds the engine counters back in.
                FrontReadU64::Hit(v) => return Some(v),
                FrontReadU64::Absent => return None,
                FrontReadU64::Pending(ticket) => {
                    let (shard, stats) = self.shard_and_stats(key);
                    let found = shard.search(key);
                    stats.record_search(found.is_some());
                    hot.fill_u64(&ticket, found);
                    return found;
                }
                FrontReadU64::Miss => {}
            }
        }
        let (shard, stats) = self.shard_and_stats(key);
        let found = shard.search(key);
        stats.record_search(found.is_some());
        found
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            if hot.fronted(key) {
                let res = hot.delegate(HotOp::insert(key, value), &mut |op| self.apply_hot(op));
                self.stats[self.router.route(key)].record_insert(res.ok);
                return res.ok;
            }
            let (shard, stats) = self.shard_and_stats(key);
            let ok = shard.insert(key, value);
            stats.record_insert(ok);
            // The key may have been promoted while we wrote: drop any
            // cached copy so no reader sees a value older than this write.
            hot.poison(key);
            return ok;
        }
        let (shard, stats) = self.shard_and_stats(key);
        let ok = shard.insert(key, value);
        stats.record_insert(ok);
        ok
    }

    fn remove(&self, key: u64) -> Option<u64> {
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            if hot.fronted(key) {
                let res = hot.delegate(HotOp::del(key), &mut |op| self.apply_hot(op));
                self.stats[self.router.route(key)].record_remove(res.ok);
                return res.ok.then_some(res.old);
            }
            let (shard, stats) = self.shard_and_stats(key);
            let removed = shard.remove(key);
            stats.record_remove(removed.is_some());
            hot.poison(key);
            return removed;
        }
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
    /// harness counts `search`, and `contains` is its wrapper). Cached
    /// front-cache answers are honoured; a pending slot just falls through
    /// (the backing is always current — writes land there first).
    fn contains(&self, key: u64) -> bool {
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            match hot.read_u64(key) {
                FrontReadU64::Hit(_) => return true,
                FrontReadU64::Absent => return false,
                FrontReadU64::Pending(_) | FrontReadU64::Miss => {}
            }
        }
        self.shards[self.router.route(key)].contains(key)
    }
}

impl<M: ReplaceMap> ReplaceMap for ShardedMap<M> {
    /// Routes to the owning shard's `replace`. A swap is recorded as one
    /// insert attempt that did not create a key (so `inserts_ok −
    /// removes_ok` keeps tracking `size`); a miss records nothing, the
    /// caller's follow-up `insert` is the attempt. With a hot-key engine
    /// attached the swap takes the plain path and poisons the front slot
    /// afterwards, exactly like a non-fronted `insert`.
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        if let Some(hot) = &self.hot {
            hot.record_access(key);
        }
        let (shard, stats) = self.shard_and_stats(key);
        let old = shard.replace(key, value);
        if old.is_some() {
            stats.record_insert(false);
        }
        if let Some(hot) = &self.hot {
            hot.poison(key);
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
        let map = ShardedMap::with_hotkeys(4, HotKeyConfig::eager(8), |_| ClhtLb::with_capacity(16));
        assert_eq!(map.replace(9, 90), None, "absent key: no-op");
        assert_eq!(map.size(), 0);
        assert!(map.insert(9, 90));
        // Front the key and fill its slot, so a swap that skipped the
        // poison would leave a stale copy to serve.
        map.hotkey_engine().expect("engine attached").pin(9);
        assert_eq!(map.search(9), Some(90));
        assert_eq!(map.replace(9, 91), Some(90));
        assert_eq!(map.search(9), Some(91), "front copy outlived the swap");
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
