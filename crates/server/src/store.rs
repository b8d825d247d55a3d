//! What the server serves: a byte-valued keyspace abstraction over the
//! blob layer.
//!
//! The connection loop dispatches frames against a [`KvStore`] trait object.
//! Values are variable-length byte strings stored in
//! [`ascylib_shard::BlobMap`] (per-shard ssmem arenas, epoch-guarded
//! copy-out reads); the sharded index itself moves only 64-bit handles.
//! One adapter covers the library: [`BlobStore`] over any [`ReplaceMap`]
//! backing (CLHT-LB, the Fraser skip lists). Built with
//! [`BlobStore::ordered`] over a backing that is ordered as well (the
//! Fraser skip lists) it answers `SCAN` with payload copy-out via the shard
//! layer's k-way-merged scans; built with [`BlobStore::new`] it answers
//! `SCAN` with an error — a hash backing has no key order to scan in.
//!
//! The store holds an `Arc` to the blob map, so the process that started
//! the server keeps a handle for direct inspection (the loopback tests
//! compare final server state against a sequential model through that
//! handle). `MGET`, and every run of consecutive pipelined `GET`s, goes
//! through the shard layer's batched `multi_get_into` (one interleaved
//! lookup across shards, every value copied into one [`BatchValues`]
//! buffer, no per-batch allocation).

use std::sync::Arc;

use ascylib::api::{ReplaceMap, KEY_MAX, KEY_MIN};
use ascylib::ordered::OrderedMap;
use ascylib_shard::{BatchValues, BlobMap, CacheStatsSnapshot, HotKeyStatsSnapshot};

/// The serving-side keyspace interface: what a wire frame can do to the
/// data. All methods are `&self` and thread-safe; worker threads share one
/// store. Reads have copy-out semantics (the caller's buffers are cleared
/// and refilled), so the store never hands out references into epoch-managed
/// memory.
pub trait KvStore: Send + Sync + 'static {
    /// Point lookup (`GET`): copies the value into `out`; `true` if found.
    fn get(&self, key: u64, out: &mut Vec<u8>) -> bool;

    /// Upsert (`SET`); `true` if the key was newly created, `false` if an
    /// existing value was replaced.
    fn set(&self, key: u64, value: &[u8]) -> bool;

    /// Remove (`DEL`); `true` if the key was present.
    fn del(&self, key: u64) -> bool;

    /// Batched lookup (`MGET`, and a run of pipelined `GET`s): refills
    /// `out` with per-key answers in input order.
    fn multi_get(&self, keys: &[u64], out: &mut BatchValues);

    /// Batched upsert (`MSET`), outcomes in input order.
    fn multi_set(&self, entries: &[(u64, Vec<u8>)]) -> Vec<bool>;

    /// Ordered scan (`SCAN`): up to `n` `(key, value)` pairs with key
    /// `>= from` in ascending key order, or `None` if the backing is
    /// unordered (the server answers with an error frame).
    fn scan(&self, from: u64, n: usize) -> Option<Vec<(u64, Vec<u8>)>>;

    /// Element count (`STATS`; same non-linearizable caveat as
    /// [`ascylib::api::ConcurrentMap::size`]).
    fn size(&self) -> usize;

    /// Number of shards behind this store (`STATS`).
    fn shard_count(&self) -> usize;

    /// Aggregate operation/hit counters for `STATS` (shard-layer traffic
    /// counters).
    fn ops_and_hits(&self) -> (u64, u64);

    /// Live payload bytes currently stored (`STATS`).
    fn value_bytes(&self) -> u64;

    /// The shard index `key` routes to — observability surfaces
    /// (`SLOWLOG`, `MONITOR`) use it to attribute a slow request to a
    /// contended shard.
    fn shard_of(&self, key: u64) -> usize;

    /// Hot-key engine counters (`STATS`/`INFO hotkeys`/`METRICS`), or
    /// `None` when the map runs without an engine (`k = 0`).
    fn hotkey_stats(&self) -> Option<HotKeyStatsSnapshot>;

    /// Current top-k hot keys as `(key, frequency estimate)` pairs,
    /// hottest first (`INFO hotkeys`); empty without an engine.
    fn hot_keys(&self) -> Vec<(u64, u64)>;

    /// Upsert with a relative expiry (`SET … EX`): the value expires
    /// `ttl_ms` milliseconds after the store.
    fn set_ex(&self, key: u64, value: &[u8], ttl_ms: u64) -> bool;

    /// Re-arm (or arm) the expiry of a live key (`EXPIRE`); `true` if the
    /// key was present and alive.
    fn expire(&self, key: u64, ttl_ms: u64) -> bool;

    /// Remaining lifetime (`TTL`): `None` = missing, `Some(None)` =
    /// present without expiry, `Some(Some(ms))` = milliseconds left.
    fn ttl_ms(&self, key: u64) -> Option<Option<u64>>;

    /// Clear the expiry of a live key (`PERSIST`); `true` if the key was
    /// present and alive.
    fn persist(&self, key: u64) -> bool;

    /// Cache-tier counters (budget/live gauges, eviction/expiry counters)
    /// for `STATS`/`INFO cache`/`METRICS`. A store without a byte budget
    /// reports a zero budget and zero policy counters but a live
    /// `live_bytes` gauge.
    fn cache_stats(&self) -> CacheStatsSnapshot;
}

/// The usable key interval servers enforce before touching the store
/// (protocol arguments are raw `u64`s; the structures reserve `0` and
/// `u64::MAX` for sentinels).
pub const KEY_RANGE: (u64, u64) = (KEY_MIN, KEY_MAX);

/// [`BlobMap::scan_bounded`], which exists only for ordered backings:
/// `(map, from, n, max_payload_bytes)`.
type ScanFn<M> = fn(&BlobMap<M>, u64, usize, usize) -> Vec<(u64, Vec<u8>)>;

/// [`KvStore`] over a [`BlobMap`] of any point-operation backing; `SCAN`
/// is served when the store was built with [`ordered`](Self::ordered).
pub struct BlobStore<M> {
    map: Arc<BlobMap<M>>,
    scan: Option<ScanFn<M>>,
}

impl<M: ReplaceMap + 'static> BlobStore<M> {
    /// Wraps a shared blob map (the caller keeps its handle); `SCAN` is
    /// answered with an error.
    pub fn new(map: Arc<BlobMap<M>>) -> Self {
        Self { map, scan: None }
    }

    /// The underlying map handle.
    pub fn map(&self) -> &Arc<BlobMap<M>> {
        &self.map
    }
}

impl<M: OrderedMap + ReplaceMap + 'static> BlobStore<M> {
    /// Wraps a shared blob map over an ordered backing, adding `SCAN`
    /// through the shard layer's merged range scans with payload copy-out.
    pub fn ordered(map: Arc<BlobMap<M>>) -> Self {
        Self { map, scan: Some(BlobMap::scan_bounded) }
    }
}

/// Kept for `benchmark/`, which this repository's PRs may not edit and
/// which calls `BlobOrderedStore::new(map)`: the name of
/// [`BlobStore::ordered`] as it was when ordered backings had an adapter of
/// their own. ROADMAP item 1(e) deletes it.
pub enum BlobOrderedStore {}

impl BlobOrderedStore {
    /// [`BlobStore::ordered`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new<M: OrderedMap + ReplaceMap + 'static>(map: Arc<BlobMap<M>>) -> BlobStore<M> {
        BlobStore::ordered(map)
    }
}

impl<M: ReplaceMap + 'static> KvStore for BlobStore<M> {
    fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
        self.map.get(key, out)
    }

    fn set(&self, key: u64, value: &[u8]) -> bool {
        self.map.set(key, value)
    }

    fn del(&self, key: u64) -> bool {
        self.map.del(key)
    }

    fn multi_get(&self, keys: &[u64], out: &mut BatchValues) {
        self.map.multi_get_into(keys, out)
    }

    fn multi_set(&self, entries: &[(u64, Vec<u8>)]) -> Vec<bool> {
        self.map.multi_set(entries)
    }

    fn scan(&self, from: u64, n: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        // Bound the reply's materialized payload, the outbound analogue of
        // the request-side batch cap: a keyspace of maximum-size values
        // must not let one SCAN frame collect hundreds of megabytes.
        // Truncation is transparent to paging clients (resume from the
        // last returned key + 1, same as the count cap).
        let scan = self.scan?;
        Some(scan(
            &self.map,
            from.clamp(KEY_MIN, KEY_MAX),
            n,
            crate::protocol::MAX_SCAN_REPLY_PAYLOAD,
        ))
    }

    fn size(&self) -> usize {
        self.map.len()
    }

    fn shard_count(&self) -> usize {
        self.map.shard_count()
    }

    fn ops_and_hits(&self) -> (u64, u64) {
        let s = self.map.total_stats();
        (s.operations(), s.hits)
    }

    fn value_bytes(&self) -> u64 {
        self.map.total_arena_stats().live_bytes()
    }

    fn shard_of(&self, key: u64) -> usize {
        self.map.shard_of(key)
    }

    fn hotkey_stats(&self) -> Option<HotKeyStatsSnapshot> {
        self.map.hotkey_stats()
    }

    fn hot_keys(&self) -> Vec<(u64, u64)> {
        self.map.hot_keys()
    }

    fn set_ex(&self, key: u64, value: &[u8], ttl_ms: u64) -> bool {
        self.map.set_ex(key, value, ttl_ms)
    }

    fn expire(&self, key: u64, ttl_ms: u64) -> bool {
        self.map.expire(key, ttl_ms)
    }

    fn ttl_ms(&self, key: u64) -> Option<Option<u64>> {
        self.map.ttl_ms(key)
    }

    fn persist(&self, key: u64) -> bool {
        self.map.persist(key)
    }

    fn cache_stats(&self) -> CacheStatsSnapshot {
        self.map.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascylib::hashtable::ClhtLb;
    use ascylib::skiplist::FraserOptSkipList;

    #[test]
    fn blob_store_serves_point_and_batched_ops() {
        let map = Arc::new(BlobMap::new(4, |_| ClhtLb::with_capacity(64)));
        let store = BlobStore::new(Arc::clone(&map));
        assert!(store.set(1, b"ten"));
        assert!(!store.set(1, b"ten, revised"), "SET is an upsert");
        let mut out = Vec::new();
        assert!(store.get(1, &mut out));
        assert_eq!(out, b"ten, revised");
        assert_eq!(
            store.multi_set(&[(2, b"twenty".to_vec()), (1, b"again".to_vec())]),
            vec![true, false]
        );
        let mut batch = BatchValues::default();
        store.multi_get(&[1, 2, 3], &mut batch);
        assert_eq!(
            batch.to_vec(),
            vec![Some(b"again".to_vec()), Some(b"twenty".to_vec()), None]
        );
        assert!(store.del(2));
        assert!(!store.del(2));
        assert_eq!(store.size(), 1);
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.value_bytes(), b"again".len() as u64);
        assert!(store.scan(1, 8).is_none(), "hash shards have no order to scan");
        // Shard attribution agrees with the map's own routing.
        assert_eq!(store.shard_of(1), map.shard_of(1));
        assert!(store.shard_of(1) < store.shard_count());
        // The outside handle observes the same data.
        assert_eq!(map.get_owned(1), Some(b"again".to_vec()));
        let (ops, hits) = store.ops_and_hits();
        assert!(ops >= 8);
        assert!(hits >= 3);
    }

    #[test]
    fn expiry_verbs_round_trip_through_the_trait() {
        let map = Arc::new(BlobMap::new(2, |_| ClhtLb::with_capacity(64)));
        let store = BlobStore::new(Arc::clone(&map));
        assert!(store.set_ex(1, b"lease", 60_000));
        match store.ttl_ms(1) {
            Some(Some(ms)) => assert!(ms <= 60_000 && ms > 50_000, "ttl {ms}ms"),
            other => panic!("expected a live TTL, got {other:?}"),
        }
        assert!(store.expire(1, 120_000));
        assert!(matches!(store.ttl_ms(1), Some(Some(ms)) if ms > 60_000));
        assert!(store.persist(1));
        assert_eq!(store.ttl_ms(1), Some(None));
        assert!(!store.expire(99, 1000), "missing key");
        assert!(!store.persist(99));
        assert_eq!(store.ttl_ms(99), None);
        // A plain set has no expiry.
        store.set(2, b"v");
        assert_eq!(store.ttl_ms(2), Some(None));
    }

    #[test]
    fn ordered_store_scans_across_shards_in_key_order() {
        let map = Arc::new(BlobMap::new(3, |_| FraserOptSkipList::new()));
        let store = BlobStore::ordered(Arc::clone(&map));
        for k in (2..=40u64).step_by(2) {
            assert!(store.set(k, format!("v{k}").as_bytes()));
        }
        let got = store.scan(7, 3).expect("ordered backing supports scans");
        assert_eq!(
            got,
            vec![
                (8, b"v8".to_vec()),
                (10, b"v10".to_vec()),
                (12, b"v12".to_vec())
            ]
        );
        // `from = 0` is clamped into the usable key range instead of
        // tripping the structures' sentinel assertions.
        let from_start = store.scan(0, 2).unwrap();
        assert_eq!(from_start, vec![(2, b"v2".to_vec()), (4, b"v4".to_vec())]);
        assert_eq!(store.scan(41, 10).unwrap(), vec![]);
    }

    #[test]
    fn the_benchmarks_constructor_name_builds_an_ordered_store() {
        // `benchmark/src/stack.rs` verbatim: the shim's `new` must coerce
        // to the trait object and must scan.
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let store: Arc<dyn KvStore> = Arc::new(BlobOrderedStore::new(Arc::clone(&map)));
        assert!(store.set(3, b"three"));
        assert_eq!(store.scan(1, 8), Some(vec![(3, b"three".to_vec())]));
    }

    #[test]
    fn scan_replies_are_bounded_by_the_payload_budget() {
        use crate::protocol::{MAX_SCAN_REPLY_PAYLOAD, MAX_VALUE};
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let store = BlobStore::ordered(Arc::clone(&map));
        // 70 maximum-size values = ~4.4 MiB stored; one SCAN frame must
        // stop at the 4 MiB reply budget instead of materializing it all.
        let value = vec![0x5Au8; MAX_VALUE];
        for k in 1..=70u64 {
            store.set(k, &value);
        }
        let got = store.scan(1, 4096).unwrap();
        let full_values = MAX_SCAN_REPLY_PAYLOAD / MAX_VALUE;
        assert_eq!(got.len(), full_values, "soft cap: stop once the budget is reached");
        let payload: usize = got.iter().map(|(_, v)| v.len()).sum();
        assert!(payload <= MAX_SCAN_REPLY_PAYLOAD + MAX_VALUE);
        // Paging from the last key + 1 reaches the rest.
        let last = got.last().unwrap().0;
        let rest = store.scan(last + 1, 4096).unwrap();
        assert_eq!(got.len() + rest.len(), 70);
    }
}
