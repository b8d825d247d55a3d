//! Scatter-gather range scans over the shards.
//!
//! Hash routing spreads a key *range* across every shard, so a range query
//! must fan out: each shard answers over its own (key-sorted) subset, and a
//! k-way merge stitches the per-shard results back into one globally
//! key-ordered sequence. Shards partition the key space, so the merged
//! streams never contain the same key twice and the merge needs no
//! deduplication.
//!
//! The consistency contract is inherited from
//! [`ascylib::ordered`]: each shard's sub-scan is a
//! non-snapshot scan, and the scatter adds no cross-shard atomicity — a pair
//! from shard 0 and a pair from shard 1 may never have coexisted. This is
//! the same trade the per-key operations already make (no cross-shard
//! coordination on the hot path).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ascylib::api::KEY_MAX;
use ascylib::ordered::OrderedMap;

use crate::map::ShardedMap;

/// Pairs per page of [`ShardedMap`]'s walk.
const WALK_PAGE: usize = 64;

/// K-way merge of per-shard, individually key-sorted result vectors into
/// `out`. Returns the number of pairs appended. `limit` truncates the merged
/// output (for `scan`); pass `usize::MAX` for no limit.
fn merge_sorted(mut parts: Vec<Vec<(u64, u64)>>, out: &mut Vec<(u64, u64)>, limit: usize) -> usize {
    let start_len = out.len();
    // Heap of (key, part index); each part is consumed front to back via a
    // per-part cursor. Reverse turns the max-heap into a min-heap on key.
    let mut cursors = vec![0usize; parts.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        if let Some(&(k, _)) = part.first() {
            heap.push(Reverse((k, i)));
        }
    }
    while let Some(Reverse((key, i))) = heap.pop() {
        if out.len() - start_len >= limit {
            break;
        }
        let cursor = cursors[i];
        let (_, value) = parts[i][cursor];
        out.push((key, value));
        cursors[i] += 1;
        if let Some(&(next_key, _)) = parts[i].get(cursors[i]) {
            heap.push(Reverse((next_key, i)));
        } else {
            parts[i].clear();
        }
    }
    out.len() - start_len
}

/// Range scans over a sharded deployment of any ordered backing: scatter to
/// every shard, gather with a k-way merge, so the serving tier exposes the
/// same [`OrderedMap`] surface as a single structure.
impl<M: OrderedMap> OrderedMap for ShardedMap<M> {
    /// Pages through the merged [`scan_into`](OrderedMap::scan_into), so
    /// `visit` runs between pages, outside every shard's traversal, and each
    /// page counts as one scan per shard.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let (mut page, mut from) = (Vec::with_capacity(WALK_PAGE), lo);
        loop {
            page.clear();
            self.scan_into(from, WALK_PAGE, &mut page);
            if !page.iter().all(|&(key, value)| visit(key, value)) {
                return;
            }
            match page.last() {
                Some(&(key, _)) if page.len() == WALK_PAGE && key < KEY_MAX => from = key + 1,
                _ => return,
            }
        }
    }

    fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        let parts: Vec<Vec<(u64, u64)>> = (0..self.shard_count())
            .map(|i| {
                let mut part = Vec::new();
                self.shard(i).range_search(lo, hi, &mut part);
                self.stats_of(i).record_scan(part.len() as u64);
                part
            })
            .collect();
        merge_sorted(parts, out, usize::MAX)
    }

    fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        // Every shard may hold up to `n` of the globally-first `n` keys, so
        // each sub-scan must fetch `n`; the merge then keeps the first `n`.
        // (The per-shard gather buffers still allocate — the scatter is
        // inherently a collect step — but the caller's buffer is reused.)
        let parts: Vec<Vec<(u64, u64)>> = (0..self.shard_count())
            .map(|i| {
                let part = self.shard(i).scan(from, n);
                self.stats_of(i).record_scan(part.len() as u64);
                part
            })
            .collect();
        merge_sorted(parts, out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_interleaves_sorted_parts_in_global_order() {
        let parts = vec![
            vec![(1, 10), (5, 50), (9, 90)],
            vec![(2, 20), (3, 30)],
            vec![],
            vec![(4, 40), (8, 80)],
        ];
        let mut out = Vec::new();
        let n = merge_sorted(parts, &mut out, usize::MAX);
        assert_eq!(n, 7);
        assert_eq!(
            out,
            vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (8, 80), (9, 90)]
        );
    }

    #[test]
    fn merge_respects_the_limit() {
        let parts = vec![vec![(1, 1), (4, 4)], vec![(2, 2), (3, 3)]];
        let mut out = Vec::new();
        assert_eq!(merge_sorted(parts, &mut out, 3), 3);
        assert_eq!(out, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let mut out = Vec::new();
        assert_eq!(merge_sorted(Vec::new(), &mut out, 5), 0);
        assert_eq!(merge_sorted(vec![vec![], vec![]], &mut out, 5), 0);
        assert!(out.is_empty());
    }
}
