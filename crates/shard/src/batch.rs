//! Batched operations: reads as lanes in input order, writes grouped by
//! shard.
//!
//! A serving front-end rarely asks for one key at a time; it accumulates a
//! request batch and wants all answers.
//!
//! * **Reads** are memory-latency bound: a skip-list search is a chain of
//!   dependent cache misses. `multi_get` hands the whole batch, in input
//!   order, to the backing's [`ConcurrentMap::search_lanes`] — each key a
//!   lane on the shard it routes to — so a backing that interleaves its
//!   traversals overlaps the misses of every key, across shards. Stats are
//!   one `record_searches` per shard touched.
//! * **Writes** group first: each shard is visited once with all of its
//!   keys, so the shard's top-level cache lines (bucket array, list head,
//!   lock words) are touched while still warm, and the per-visit routing
//!   cost is amortized over the group.
//!
//! Batched operations are **not** atomic across keys: each key's operation
//! linearizes individually in its shard (the same guarantee a loop of
//! single-key calls gives, minus the cache misses). Results are returned in
//! the caller's input order regardless of the dispatch order.
//!
//! # Duplicate keys in one batch
//!
//! A batch may name the same key more than once. The write grouping pass is
//! a *stable* counting sort: within a shard, items keep their input order,
//! and duplicates of a key always land in the same shard. Per-duplicate
//! results therefore match a sequential loop of single-key calls exactly:
//!
//! * `multi_insert` — the **first** occurrence (in input order) inserts and
//!   reports `true`; later occurrences report `false` and do not overwrite.
//! * `multi_remove` — the first occurrence removes and reports the value;
//!   later occurrences report `None`.
//! * `multi_get` — every occurrence is its own lane and is answered (all
//!   see the same shard state unless a concurrent writer intervenes).

use std::cell::RefCell;

use ascylib::api::{ConcurrentMap, MAX_LANES};

use crate::map::ShardedMap;

thread_local! {
    /// `(searches, hits)` per shard for the batch `multi_get_into` is
    /// answering, so it records one stats RMW per shard touched without
    /// allocating per batch.
    static SEARCH_TALLY: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A reusable per-shard grouping of `(input position, payload)` pairs.
///
/// Grouping is a counting sort by shard index: one routing pass to count,
/// one pass to place. Both passes are O(batch); no per-shard `Vec`s are
/// allocated.
struct Grouped<T> {
    /// `(original index, payload)` sorted by shard.
    slots: Vec<(usize, T)>,
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s slice of `slots`.
    bounds: Vec<usize>,
}

fn group_by_shard<M: ConcurrentMap, T: Copy>(
    map: &ShardedMap<M>,
    items: &[T],
    key_of: impl Fn(&T) -> u64,
) -> Grouped<T> {
    let shards = map.shard_count();
    let mut counts = vec![0usize; shards + 1];
    for item in items {
        counts[map.shard_of(key_of(item)) + 1] += 1;
    }
    for s in 0..shards {
        counts[s + 1] += counts[s];
    }
    let bounds = counts.clone();
    // Place each item at its shard's cursor; every slot is written exactly
    // once, so the placeholder (item 0) never survives.
    let mut slots: Vec<(usize, T)> = vec![(0, items[0]); items.len()];
    let mut cursors = counts;
    for (i, item) in items.iter().enumerate() {
        let s = map.shard_of(key_of(item));
        slots[cursors[s]] = (i, *item);
        cursors[s] += 1;
    }
    Grouped { slots, bounds }
}

impl<M: ConcurrentMap> ShardedMap<M> {
    /// The group → dispatch → scatter loop behind the batched writes: visit
    /// each shard once with its slice of the batch, apply `op` per item,
    /// scatter results back to input positions, and record one
    /// `(attempts, successes)` stats batch per shard.
    fn dispatch<T: Copy, R: Clone + Default>(
        &self,
        items: &[T],
        key_of: impl Fn(&T) -> u64,
        op: impl Fn(&M, T) -> R,
        succeeded: impl Fn(&R) -> bool,
        record: impl Fn(&crate::stats::ShardStats, u64, u64),
    ) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let grouped = group_by_shard(self, items, key_of);
        let mut results = vec![R::default(); items.len()];
        for s in 0..self.shard_count() {
            let shard = self.shard(s);
            let slice = &grouped.slots[grouped.bounds[s]..grouped.bounds[s + 1]];
            let mut ok = 0u64;
            for &(pos, item) in slice {
                let outcome = op(shard, item);
                if succeeded(&outcome) {
                    ok += 1;
                }
                results[pos] = outcome;
            }
            record(self.stats_of(s), slice.len() as u64, ok);
        }
        results
    }

    /// Looks up every key as one batch of lanes; results are in input
    /// order (`result[i]` answers `keys[i]`), duplicates included.
    pub fn multi_get(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.multi_get_into(keys, &mut out);
        out
    }

    /// Buffer-reusing variant of [`multi_get`](Self::multi_get): clears
    /// `out` and refills it with the per-key answers in input order. Keys
    /// become lanes of [`ConcurrentMap::search_lanes`] in input order,
    /// [`MAX_LANES`] at a time, each on the shard it routes to; nothing is
    /// allocated once `out` and this thread's tally have grown to size.
    pub fn multi_get_into(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.resize(keys.len(), None);
        SEARCH_TALLY.with(|tally| {
            let mut tally = tally.borrow_mut();
            tally.clear();
            tally.resize(self.shard_count(), (0, 0));
            for (keys, answers) in keys.chunks(MAX_LANES).zip(out.chunks_mut(MAX_LANES)) {
                let mut shards = [0usize; MAX_LANES];
                let mut lanes = [(self.shard(0), 0u64); MAX_LANES];
                for (i, &key) in keys.iter().enumerate() {
                    shards[i] = self.shard_of(key);
                    lanes[i] = (self.shard(shards[i]), key);
                }
                M::search_lanes(&lanes[..keys.len()], answers);
                for (&s, answer) in shards.iter().zip(answers.iter()) {
                    tally[s].0 += 1;
                    tally[s].1 += u64::from(answer.is_some());
                }
            }
            for (s, &(searches, hits)) in tally.iter().enumerate() {
                if searches > 0 {
                    self.stats_of(s).record_searches(searches, hits);
                }
            }
        });
    }

    /// Inserts every `(key, value)` pair, visiting each shard once;
    /// `result[i]` tells whether `entries[i]` was newly inserted. A duplicate
    /// key inside one batch inserts once (the first occurrence in input
    /// order within its shard wins, matching a loop of single inserts).
    pub fn multi_insert(&self, entries: &[(u64, u64)]) -> Vec<bool> {
        self.dispatch(
            entries,
            |&(k, _)| k,
            |shard, (k, v)| shard.insert(k, v),
            |&ok| ok,
            |stats, n, ok| stats.record_inserts(n, ok),
        )
    }

    /// Removes every key, visiting each shard once; `result[i]` is the value
    /// removed for `keys[i]` (a duplicate key removes once).
    pub fn multi_remove(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.dispatch(
            keys,
            |&k| k,
            |shard, k| shard.remove(k),
            Option::is_some,
            |stats, n, ok| stats.record_removes(n, ok),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascylib::hashtable::ClhtLb;
    use ascylib::list::HarrisList;

    fn sharded() -> ShardedMap<ClhtLb> {
        ShardedMap::new(6, |_| ClhtLb::with_capacity(64))
    }

    #[test]
    fn multi_get_preserves_input_order() {
        let map = sharded();
        for k in (2..=100u64).step_by(2) {
            map.insert(k, k * 3);
        }
        let keys: Vec<u64> = (1..=100).rev().collect();
        let got = map.multi_get(&keys);
        assert_eq!(got.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            let expect = if k % 2 == 0 { Some(k * 3) } else { None };
            assert_eq!(got[i], expect, "key {k} at position {i}");
        }
    }

    #[test]
    fn multi_get_into_reuses_the_buffer_and_matches_the_allocating_wrapper() {
        let map = sharded();
        for k in 1..=40u64 {
            map.insert(k, k + 7);
        }
        let mut out: Vec<Option<u64>> = Vec::new();
        let keys_a: Vec<u64> = (1..=50u64).collect();
        map.multi_get_into(&keys_a, &mut out);
        assert_eq!(out, map.multi_get(&keys_a));
        let cap = out.capacity();
        // A second, smaller batch through the same buffer: cleared, refilled
        // in input order, no reallocation.
        let keys_b = [40u64, 3, 99, 3];
        map.multi_get_into(&keys_b, &mut out);
        assert_eq!(out, vec![Some(47), Some(10), None, Some(10)]);
        assert_eq!(out.capacity(), cap, "smaller batch must reuse the allocation");
        // Empty batch clears the buffer.
        map.multi_get_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_insert_reports_per_entry_outcomes() {
        let map = sharded();
        map.insert(5, 50);
        let outcomes = map.multi_insert(&[(4, 40), (5, 51), (6, 60), (4, 41)]);
        assert_eq!(outcomes, vec![true, false, true, false]);
        assert_eq!(map.search(4), Some(40), "first duplicate in input order wins");
        assert_eq!(map.search(5), Some(50));
    }

    #[test]
    fn multi_remove_matches_singular_semantics() {
        let map = sharded();
        for k in 1..=20u64 {
            map.insert(k, k + 100);
        }
        let removed = map.multi_remove(&[3, 3, 21, 7]);
        assert_eq!(removed, vec![Some(103), None, None, Some(107)]);
        assert_eq!(map.size(), 18);
    }

    #[test]
    fn empty_batches_are_noops() {
        let map = sharded();
        assert!(map.multi_get(&[]).is_empty());
        assert!(map.multi_insert(&[]).is_empty());
        assert!(map.multi_remove(&[]).is_empty());
        assert_eq!(map.total_stats().operations(), 0);
    }

    #[test]
    fn duplicate_keys_in_one_insert_batch_follow_input_order() {
        // All duplicates of a key route to one shard, and grouping is a
        // stable counting sort, so the first occurrence in *input* order
        // wins — even when the duplicates are interleaved with other shards'
        // keys and the batch is dispatched shard by shard.
        let map = sharded();
        let entries: Vec<(u64, u64)> =
            vec![(9, 1), (3, 1), (9, 2), (14, 1), (9, 3), (3, 2), (27, 1), (9, 4)];
        let outcomes = map.multi_insert(&entries);
        assert_eq!(outcomes, vec![true, true, false, true, false, false, true, false]);
        assert_eq!(map.search(9), Some(1), "first occurrence's value survives");
        assert_eq!(map.search(3), Some(1));
        assert_eq!(map.size(), 4);
        // A sequential loop agrees exactly.
        let singular = sharded();
        let loop_outcomes: Vec<bool> =
            entries.iter().map(|&(k, v)| singular.insert(k, v)).collect();
        assert_eq!(outcomes, loop_outcomes);
    }

    #[test]
    fn duplicate_keys_in_one_remove_batch_remove_once() {
        let map = sharded();
        for k in [5u64, 6, 7] {
            map.insert(k, k * 10);
        }
        let removed = map.multi_remove(&[6, 5, 6, 6, 8, 5]);
        assert_eq!(removed, vec![Some(60), Some(50), None, None, None, None]);
        assert_eq!(map.size(), 1);
        assert_eq!(map.search(7), Some(70));
    }

    #[test]
    fn duplicate_keys_in_one_get_batch_are_each_answered() {
        let map = sharded();
        map.insert(11, 110);
        assert_eq!(map.multi_get(&[11, 11, 12, 11]), vec![Some(110), Some(110), None, Some(110)]);
    }

    #[test]
    fn single_shard_batches_degenerate_to_the_backing_structure() {
        // shard_count = 1: the counting sort has one bucket; everything
        // must still dispatch, scatter back in input order, and count stats.
        let map = ShardedMap::new(1, |_| ClhtLb::with_capacity(64));
        let keys: Vec<u64> = (1..=32u64).rev().collect();
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1000)).collect();
        assert!(map.multi_insert(&entries).iter().all(|&ok| ok));
        let got = map.multi_get(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(got[i], Some(k + 1000), "input order preserved for key {k}");
        }
        let removed = map.multi_remove(&keys);
        assert!(removed.iter().all(Option::is_some));
        assert!(map.is_empty());
        assert_eq!(map.total_stats().inserts_ok, 32);
        assert_eq!(map.total_stats().removes_ok, 32);
    }

    #[test]
    fn one_batch_spanning_every_shard_visits_each_once() {
        // Enough dense keys to hit all 6 shards in a single batch; per-shard
        // stats must account for every key exactly once.
        let map = sharded();
        let entries: Vec<(u64, u64)> = (1..=60u64).map(|k| (k, k)).collect();
        map.multi_insert(&entries);
        let per_shard = map.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.inserts).sum::<u64>(), 60);
        assert!(
            per_shard.iter().all(|s| s.inserts > 0),
            "dense batch must touch every shard: {per_shard:?}"
        );
        assert_eq!(map.size(), 60);
    }

    #[test]
    fn batches_update_shard_stats() {
        let map = sharded();
        map.multi_insert(&[(1, 1), (2, 2), (3, 3)]);
        map.multi_get(&[1, 2, 3, 4]);
        let total = map.total_stats();
        assert_eq!(total.inserts, 3);
        assert_eq!(total.inserts_ok, 3);
        assert_eq!(total.searches, 4);
        assert_eq!(total.hits, 3);
    }

    #[test]
    fn batched_and_singular_agree_on_list_shards() {
        let batched = ShardedMap::new(4, |_| HarrisList::new());
        let singular = ShardedMap::new(4, |_| HarrisList::new());
        let entries: Vec<(u64, u64)> = (1..=64u64).map(|k| (k * 3 % 97 + 1, k)).collect();
        let b = batched.multi_insert(&entries);
        let s: Vec<bool> = entries.iter().map(|&(k, v)| singular.insert(k, v)).collect();
        assert_eq!(b, s);
        let keys: Vec<u64> = (1..=100u64).collect();
        assert_eq!(
            batched.multi_get(&keys),
            keys.iter().map(|&k| singular.search(k)).collect::<Vec<_>>()
        );
        assert_eq!(
            batched.multi_remove(&keys),
            keys.iter().map(|&k| singular.remove(k)).collect::<Vec<_>>()
        );
    }
}
