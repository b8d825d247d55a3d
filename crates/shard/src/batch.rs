//! Batched reads: a batch's searches as lanes, answers in input order.
//!
//! A serving front-end rarely asks for one key at a time; it accumulates a
//! request batch and wants all answers. Reads are memory-latency bound: a
//! skip-list search is a chain of dependent cache misses. `multi_get` hands
//! the whole batch, in input order, to the backing's
//! [`ConcurrentMap::search_lanes`] — each key a lane on the shard it routes
//! to — so a backing that interleaves its traversals overlaps the misses of
//! every key, across shards. Stats are one `record_searches` per shard
//! touched.
//!
//! A batch is **not** atomic across keys: each search linearizes
//! individually in its shard (the same guarantee a loop of `search` calls
//! gives, minus the cache misses). A key named more than once is its own
//! lane each time and is answered each time.

use std::cell::RefCell;

use ascylib::api::{ConcurrentMap, MAX_LANES};

use crate::map::ShardedMap;

thread_local! {
    /// `(searches, hits)` per shard for the batch `multi_get_into` is
    /// answering, so it records one stats RMW per shard touched without
    /// allocating per batch.
    static SEARCH_TALLY: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl<M: ConcurrentMap> ShardedMap<M> {
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
    fn empty_batches_are_noops() {
        let map = sharded();
        assert!(map.multi_get(&[]).is_empty());
        assert_eq!(map.total_stats().operations(), 0);
    }

    #[test]
    fn duplicate_keys_in_one_get_batch_are_each_answered() {
        let map = sharded();
        map.insert(11, 110);
        assert_eq!(map.multi_get(&[11, 11, 12, 11]), vec![Some(110), Some(110), None, Some(110)]);
    }

    #[test]
    fn single_shard_batches_degenerate_to_the_backing_structure() {
        // shard_count = 1: every lane runs on the one shard; answers must
        // still come back in input order, and stats must count every key.
        let map = ShardedMap::new(1, |_| ClhtLb::with_capacity(64));
        let keys: Vec<u64> = (1..=32u64).rev().collect();
        for &k in &keys[..16] {
            assert!(map.insert(k, k + 1000));
        }
        let got = map.multi_get(&keys);
        for (i, &k) in keys.iter().enumerate() {
            let expect = (i < 16).then_some(k + 1000);
            assert_eq!(got[i], expect, "input order preserved for key {k}");
        }
        assert_eq!(map.total_stats().searches, 32);
        assert_eq!(map.total_stats().hits, 16);
    }

    #[test]
    fn one_batch_spanning_every_shard_visits_each_once() {
        // Enough dense keys to hit all 6 shards in a single batch; per-shard
        // stats must account for every key exactly once.
        let map = sharded();
        let keys: Vec<u64> = (1..=60u64).collect();
        map.multi_get(&keys);
        let per_shard = map.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.searches).sum::<u64>(), 60);
        assert!(
            per_shard.iter().all(|s| s.searches > 0),
            "dense batch must touch every shard: {per_shard:?}"
        );
    }

    #[test]
    fn batches_update_shard_stats() {
        let map = sharded();
        for k in 1..=3u64 {
            map.insert(k, k);
        }
        map.multi_get(&[1, 2, 3, 4]);
        let total = map.total_stats();
        assert_eq!(total.inserts, 3);
        assert_eq!(total.inserts_ok, 3);
        assert_eq!(total.searches, 4);
        assert_eq!(total.hits, 3);
    }

    #[test]
    fn batched_and_singular_agree_on_list_shards() {
        let map = ShardedMap::new(4, |_| HarrisList::new());
        for k in 1..=64u64 {
            map.insert(k * 3 % 97 + 1, k);
        }
        let keys: Vec<u64> = (1..=100u64).collect();
        assert_eq!(
            map.multi_get(&keys),
            keys.iter().map(|&k| map.search(k)).collect::<Vec<_>>()
        );
    }
}
