//! Property-based differential tests: a `ShardedMap` over any backing
//! structure must be indistinguishable, per key, from the sequential model
//! (`BTreeMap`). Covers the singular API, the batched API, and mixes of the
//! two, for a lock-based hash backing (`clht_lb`) and a lock-free list
//! backing (`harris`) as the two representative shard types.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ascylib::api::ConcurrentMap;
use ascylib::bst::BstTk;
use ascylib::hashtable::ClhtLb;
use ascylib::list::HarrisList;
use ascylib::ordered::OrderedMap;
use ascylib::skiplist::FraserOptSkipList;
use ascylib_shard::ShardedMap;

/// Applies a mixed singular/batched operation sequence to the sharded map
/// and the model, asserting agreement step by step.
///
/// `ops` entries decode as: selector % 4 → 0 insert, 1 remove, 2 search,
/// 3 multi_get; the batch consumes a window of subsequent keys so it
/// overlaps the singular traffic.
fn check_against_model<M: ConcurrentMap>(
    map: ShardedMap<M>,
    ops: &[(u8, u64)],
    key_space: u64,
) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &(op, raw)) in ops.iter().enumerate() {
        let key = 1 + raw % key_space;
        match op % 4 {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(map.insert(key, i as u64), expected, "insert({key}) step {i}");
                model.entry(key).or_insert(i as u64);
            }
            1 => {
                assert_eq!(map.remove(key), model.remove(&key), "remove({key}) step {i}");
            }
            2 => {
                assert_eq!(map.search(key), model.get(&key).copied(), "search({key}) step {i}");
            }
            _ => {
                let keys: Vec<u64> =
                    (0..1 + raw % 9).map(|j| 1 + (raw + j * 17) % key_space).collect();
                let outcomes = map.multi_get(&keys);
                for (j, &k) in keys.iter().enumerate() {
                    assert_eq!(
                        outcomes[j],
                        model.get(&k).copied(),
                        "multi_get[{j}]({k}) step {i}"
                    );
                }
            }
        }
    }
    // Final state: aggregate size composes the shard views; every surviving
    // key is found with its model value and every absent probe misses.
    assert_eq!(map.size(), model.len());
    for (&k, &v) in &model {
        assert_eq!(map.search(k), Some(v));
    }
    for k in 1..=key_space {
        if !model.contains_key(&k) {
            assert_eq!(map.search(k), None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_sharded_clht_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300)) {
        check_against_model(ShardedMap::new(8, |_| ClhtLb::with_capacity(32)), &ops, 96);
    }

    #[test]
    fn prop_sharded_harris_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300)) {
        check_against_model(ShardedMap::new(5, |_| HarrisList::new()), &ops, 96);
    }

    #[test]
    fn prop_single_shard_degenerates_to_the_backing_structure(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)) {
        // shards = 1 must still satisfy the model: the layer adds routing
        // and stats but no semantics.
        check_against_model(ShardedMap::new(1, |_| ClhtLb::with_capacity(64)), &ops, 48);
    }

    #[test]
    fn prop_shard_count_is_transparent(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)) {
        // The same op sequence over different shard counts yields identical
        // observable behaviour (per-key linearizability is routing-invariant).
        check_against_model(ShardedMap::new(3, |_| ClhtLb::with_capacity(32)), &ops, 64);
        check_against_model(ShardedMap::new(13, |_| ClhtLb::with_capacity(16)), &ops, 64);
    }
}

/// Range-operation differential check: scatter-gather `range_search`/`scan`
/// over an ordered backing must agree with the `BTreeMap` model — in
/// particular the k-way merge must deliver *globally* key-ordered results
/// even though each shard holds an arbitrary hash-routed subset. The op
/// decoding and step-by-step model comparison live in the shared
/// `testing::ordered_ops_check` driver; this adds the shard-specific
/// assertions on top.
fn check_ranges_against_model<M: OrderedMap>(map: ShardedMap<M>, ops: &[(u8, u64, u64)]) {
    ascylib::testing::ordered_ops_check(&map, ops, 128);
    // Whole-range sweep: globally ordered.
    let mut out = Vec::new();
    map.range_search(1, u64::MAX, &mut out);
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "global key order violated");
    assert_eq!(out.len(), map.size());
    // Every shard participated in the scans (the final sweep alone touches
    // each one).
    let stats = map.total_stats();
    assert!(stats.scans >= map.shard_count() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_sharded_harris_ranges_match_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..250)) {
        check_ranges_against_model(ShardedMap::new(5, |_| HarrisList::new()), &ops);
    }

    #[test]
    fn prop_sharded_fraser_opt_ranges_match_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..250)) {
        check_ranges_against_model(ShardedMap::new(8, |_| FraserOptSkipList::new()), &ops);
    }

    #[test]
    fn prop_sharded_bst_tk_ranges_match_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..250)) {
        check_ranges_against_model(ShardedMap::new(3, |_| BstTk::new()), &ops);
    }
}

/// Concurrent per-key linearizability: threads hammer a small shared key set
/// with inserts/removes; every individual outcome must be consistent with
/// *some* per-key history (checked via per-key success balancing), and the
/// final size must equal the global insert/remove balance.
#[test]
fn concurrent_per_key_balance_holds() {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    let map = Arc::new(ShardedMap::new(4, |_| ClhtLb::with_capacity(64)));
    let key_space = 32u64;
    let per_key_balance: Arc<Vec<AtomicI64>> =
        Arc::new((0..=key_space).map(|_| AtomicI64::new(0)).collect());
    let threads = 4;
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        let balance = Arc::clone(&per_key_balance);
        handles.push(std::thread::spawn(move || {
            let mut state = 0x51AB_u64.wrapping_mul(t + 1);
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = 1 + state % key_space;
                if state & 1 == 0 {
                    if map.insert(key, key) {
                        balance[key as usize].fetch_add(1, Ordering::Relaxed);
                    }
                } else if map.remove(key).is_some() {
                    balance[key as usize].fetch_sub(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut expected = 0usize;
    for key in 1..=key_space {
        let bal = per_key_balance[key as usize].load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            bal == 0 || bal == 1,
            "key {key}: successful inserts minus removes must be 0 or 1, got {bal}"
        );
        assert_eq!(
            map.search(key).is_some(),
            bal == 1,
            "key {key}: presence disagrees with its op balance"
        );
        expected += bal as usize;
    }
    assert_eq!(map.size(), expected);
    // The recorded stats agree with the balances too.
    let stats = map.total_stats();
    assert_eq!(stats.inserts_ok - stats.removes_ok, expected as u64);
}
