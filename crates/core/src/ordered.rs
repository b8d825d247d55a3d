//! The ordered-map extension of the CSDS interface: range scans.
//!
//! [`crate::api`] defines the paper's three point operations. Every
//! key-sorted structure in the library (linked lists, skip lists, BSTs —
//! everything except the hash tables) can additionally answer *range*
//! queries by continuing the very traversal its point operations already
//! perform: the wait-free read-side walk the ASCY patterns mandate is
//! exactly a range scan that stops after one key. This module productizes
//! that observation as the [`OrderedMap`] trait plus a small set of reusable
//! walkers, so each structure only contributes its traversal primitive
//! instead of re-implementing the scan logic.
//!
//! # Scan semantics
//!
//! Range operations are **not** snapshots. The guarantee is deliberately the
//! weakest one that is still useful (and that every backing can provide
//! without slowing down its point operations):
//!
//! * every returned pair `(k, v)` was present in the structure **at some
//!   point during the scan** (no phantoms: a never-inserted pair is never
//!   returned, and a pair removed *before* the scan started and not
//!   re-inserted is never returned);
//! * returned keys are **strictly ascending** and within the requested
//!   bounds (no duplicates, no out-of-range keys);
//! * a key that is present for the *entire duration* of the scan is
//!   returned; keys inserted or removed *while* the scan runs may or may
//!   not appear.
//!
//! There is no atomicity across the returned set: two pairs in one result
//! may never have been in the structure at the same instant.

use std::sync::Arc;

use crate::api::{ConcurrentMap, KEY_MAX, KEY_MIN};
use crate::stats;

/// A [`ConcurrentMap`] whose elements are key-ordered and support range
/// scans.
///
/// See the [module documentation](self) for the (non-snapshot) consistency
/// contract shared by all implementations.
pub trait OrderedMap: ConcurrentMap {
    /// Appends every element with key in `[lo, hi]` (both inclusive,
    /// clamped to the usable key range) to `out`, in strictly ascending key
    /// order. Returns the number of elements appended.
    ///
    /// `out` is caller-supplied so that hot paths can reuse one allocation
    /// across scans.
    fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize;

    /// Returns up to `n` elements with key `>= from`, in strictly ascending
    /// key order (the classic YCSB-E "short range scan": a cursor position
    /// and a limit).
    fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)>;

    /// [`Self::scan`] into a caller-supplied buffer (appended, like
    /// [`Self::range_search`]), so hot paths can reuse one allocation across
    /// scans. Returns the number of elements appended.
    ///
    /// The default delegates to `scan` (and therefore still allocates);
    /// implementations backed by the walker layer override it with a
    /// zero-allocation version.
    fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        let got = self.scan(from, n);
        let len = got.len();
        out.extend(got);
        len
    }
}

/// Shared handles delegate like the [`ConcurrentMap`] blanket impl, so an
/// `Arc<dyn OrderedMap>` is itself an `OrderedMap` (and composite layers
/// such as sharded maps can be built over either).
impl<M: OrderedMap + ?Sized> OrderedMap for Arc<M> {
    fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        (**self).range_search(lo, hi, out)
    }

    fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
        (**self).scan(from, n)
    }

    fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        (**self).scan_into(from, n, out)
    }
}

// ---------------------------------------------------------------------------
// The reusable walker layer (crate-internal)
// ---------------------------------------------------------------------------

/// The traversal primitive a structure contributes to get [`OrderedMap`]
/// for free (via [`range_search_walk`] / [`scan_walk`] and the
/// [`impl_ordered_map!`](crate::impl_ordered_map) macro).
///
/// Contract: visit live pairs with key `>= lo` in *approximately* ascending
/// key order, stopping as soon as `visit` returns `false`. "Approximately"
/// means concurrent interference may make the walk revisit a key or step
/// backwards (e.g. Pugh's pointer reversal); the wrappers restore the public
/// strictly-ascending guarantee by filtering. Implementations must provide
/// whatever memory protection their traversal needs (SSMEM guard, locks).
pub(crate) trait RangeWalk {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool);
}

/// [`OrderedMap::range_search`] on top of a [`RangeWalk`]: clamps the
/// bounds, filters to strictly-ascending in-range keys, counts one
/// operation.
pub(crate) fn range_search_walk<W: RangeWalk + ?Sized>(
    walker: &W,
    lo: u64,
    hi: u64,
    out: &mut Vec<(u64, u64)>,
) -> usize {
    stats::record_operation();
    let lo = lo.max(KEY_MIN);
    let hi = hi.min(KEY_MAX);
    if lo > hi {
        return 0;
    }
    let start_len = out.len();
    let mut last: Option<u64> = None;
    walker.walk(lo, &mut |key, value| {
        if key > hi {
            return false;
        }
        if key >= lo && last.map_or(true, |l| key > l) {
            out.push((key, value));
            last = Some(key);
        }
        true
    });
    out.len() - start_len
}

/// [`OrderedMap::scan`] on top of a [`RangeWalk`].
pub(crate) fn scan_walk<W: RangeWalk + ?Sized>(walker: &W, from: u64, n: usize) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(n.min(64));
    scan_into_walk(walker, from, n, &mut out);
    out
}

/// [`OrderedMap::scan_into`] on top of a [`RangeWalk`]: appends to `out`
/// without allocating.
pub(crate) fn scan_into_walk<W: RangeWalk + ?Sized>(
    walker: &W,
    from: u64,
    n: usize,
    out: &mut Vec<(u64, u64)>,
) -> usize {
    stats::record_operation();
    if n == 0 {
        return 0;
    }
    let start_len = out.len();
    let from = from.max(KEY_MIN);
    let mut last: Option<u64> = None;
    walker.walk(from, &mut |key, value| {
        if key >= from && last.map_or(true, |l| key > l) {
            out.push((key, value));
            last = Some(key);
        }
        out.len() - start_len < n
    });
    out.len() - start_len
}

/// Implements [`OrderedMap`] for a type, delegating to the shared walker
/// wrappers. The one-argument form requires the type itself to implement
/// [`RangeWalk`]; the `via` form delegates to a field that does (for
/// new-type wrappers like the two Fraser variants).
macro_rules! impl_ordered_map {
    ($ty:ty) => {
        impl $crate::ordered::OrderedMap for $ty {
            fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
                $crate::ordered::range_search_walk(self, lo, hi, out)
            }

            fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
                $crate::ordered::scan_walk(self, from, n)
            }

            fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
                $crate::ordered::scan_into_walk(self, from, n, out)
            }
        }
    };
    ($ty:ty, via $field:ident) => {
        impl $crate::ordered::OrderedMap for $ty {
            fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
                $crate::ordered::range_search_walk(&self.$field, lo, hi, out)
            }

            fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
                $crate::ordered::scan_walk(&self.$field, from, n)
            }

            fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
                $crate::ordered::scan_into_walk(&self.$field, from, n, out)
            }
        }
    };
}
pub(crate) use impl_ordered_map;

/// A node in a key-sorted chain ending in a `u64::MAX` tail sentinel — the
/// common shape of every linked list and of the level-0 lane of every skip
/// list. Implementing this (plus [`RangeWalk`] in terms of [`walk_chain`])
/// is all a chain-shaped structure needs to become an [`OrderedMap`].
pub(crate) trait ChainNode {
    /// This node's key (sentinels: `0` head, `u64::MAX` tail).
    fn chain_key(&self) -> u64;
    /// This node's value.
    fn chain_value(&self) -> u64;
    /// Whether the node is logically present (unmarked / fully linked).
    fn chain_live(&self) -> bool;
    /// The value of a logically present node, `None` otherwise. Nodes whose
    /// value word can itself say "removed" override this to load it once.
    fn chain_read(&self) -> Option<u64> {
        self.chain_live().then(|| self.chain_value())
    }
    /// The next node in key order (never null before the tail sentinel).
    fn chain_next(&self) -> *mut Self;
}

/// Walks the chain starting *after* `start` (a node with key `< lo`, e.g.
/// the head sentinel or a skip-list predecessor), visiting live pairs with
/// key `>= lo` until the tail sentinel is reached or `visit` returns
/// `false`. Records the traversal length.
///
/// # Safety
///
/// The caller must hold whatever protection (SSMEM guard, lock) makes every
/// node reachable through `chain_next` safe to dereference for the duration
/// of the walk.
pub(crate) unsafe fn walk_chain<N: ChainNode>(
    start: *mut N,
    lo: u64,
    visit: &mut dyn FnMut(u64, u64) -> bool,
) {
    let mut traversed = 0u64;
    // SAFETY: per the function contract.
    unsafe {
        let mut curr = (*start).chain_next();
        while !curr.is_null() {
            let node = &*curr;
            let key = node.chain_key();
            if key == u64::MAX {
                break;
            }
            traversed += 1;
            if key >= lo {
                if let Some(value) = node.chain_read() {
                    if !visit(key, value) {
                        break;
                    }
                }
            }
            curr = node.chain_next();
        }
    }
    stats::record_traversal(traversed);
}

/// A node of an *external* BST: routers carry both children, data lives in
/// the leaves (null children), keys route with `key < node.key → left`.
pub(crate) trait TreeNode {
    /// Router key / leaf key (leaf sentinels `0` and `u64::MAX` are
    /// skipped by the walker).
    fn tree_key(&self) -> u64;
    /// Leaf value (unused for routers).
    fn tree_value(&self) -> u64;
    /// `(left, right)` children; both null identifies a leaf.
    fn tree_children(&self) -> (*mut Self, *mut Self);
}

/// In-order walk over the leaves of an external BST rooted at `root`,
/// pruning subtrees that cannot contain keys `>= lo`, until `visit` returns
/// `false`. Records the traversal length.
///
/// # Safety
///
/// As for [`walk_chain`]: the caller provides the protection that makes
/// every reachable node safe to dereference.
pub(crate) unsafe fn walk_tree<N: TreeNode>(
    root: *mut N,
    lo: u64,
    visit: &mut dyn FnMut(u64, u64) -> bool,
) {
    let mut traversed = 0u64;
    let mut pending: Vec<*mut N> = Vec::new();
    let mut curr = root;
    // SAFETY: per the function contract.
    unsafe {
        'walk: loop {
            // Descend to the leftmost leaf that can hold keys >= lo,
            // stacking the right subtrees to visit afterwards.
            loop {
                let node = &*curr;
                traversed += 1;
                let (left, right) = node.tree_children();
                if left.is_null() {
                    let key = node.tree_key();
                    if key >= lo
                        && key != 0
                        && key != u64::MAX
                        && !visit(key, node.tree_value())
                    {
                        break 'walk;
                    }
                    break;
                }
                if lo < node.tree_key() {
                    pending.push(right);
                    curr = left;
                } else {
                    // The whole left subtree is < node.key <= lo.
                    curr = right;
                }
            }
            match pending.pop() {
                Some(next) => curr = next,
                None => break,
            }
        }
    }
    stats::record_traversal(traversed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted walker: replays a fixed visit sequence (which may contain
    /// duplicates and backward jumps, like a concurrently-mutated chain
    /// would) so the wrapper filtering is testable in isolation.
    struct Scripted(Vec<(u64, u64)>);

    impl RangeWalk for Scripted {
        fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
            for &(k, v) in &self.0 {
                if k >= lo && !visit(k, v) {
                    return;
                }
            }
        }
    }

    #[test]
    fn range_search_walk_filters_to_sorted_unique_in_range() {
        let w = Scripted(vec![(2, 20), (5, 50), (4, 40), (5, 51), (7, 70), (9, 90)]);
        let mut out = Vec::new();
        let n = range_search_walk(&w, 3, 8, &mut out);
        // 4 arrives after 5 (backward jump) and the second 5 is a revisit:
        // both are filtered; 2 and 9 are out of range.
        assert_eq!(out, vec![(5, 50), (7, 70)]);
        assert_eq!(n, 2);
    }

    #[test]
    fn range_search_walk_appends_and_counts_only_new_entries() {
        let w = Scripted(vec![(3, 30)]);
        let mut out = vec![(1, 10)];
        let n = range_search_walk(&w, 1, 100, &mut out);
        assert_eq!(n, 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn range_search_walk_empty_and_inverted_bounds() {
        let w = Scripted(vec![(3, 30)]);
        let mut out = Vec::new();
        assert_eq!(range_search_walk(&w, 9, 2, &mut out), 0);
        assert_eq!(range_search_walk(&w, 4, u64::MAX, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn scan_walk_honours_the_limit_and_clamps_from() {
        let w = Scripted((1..=20u64).map(|k| (k, k * 2)).collect());
        let got = scan_walk(&w, 0, 5);
        assert_eq!(got, vec![(1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]);
        assert!(scan_walk(&w, 1, 0).is_empty());
        assert_eq!(scan_walk(&w, 18, 10).len(), 3);
    }

    #[test]
    fn scan_into_walk_appends_and_matches_scan() {
        let w = Scripted((1..=20u64).map(|k| (k, k * 2)).collect());
        let mut out = vec![(0, 0)];
        // The limit counts newly appended pairs, not the buffer length.
        assert_eq!(scan_into_walk(&w, 3, 4, &mut out), 4);
        assert_eq!(out.len(), 5);
        assert_eq!(out[1..], scan_walk(&w, 3, 4));
        assert_eq!(scan_into_walk(&w, 3, 0, &mut out), 0);
    }

    #[test]
    fn arc_handles_delegate_ordered_calls() {
        use crate::list::LazyList;

        let inner = Arc::new(LazyList::new());
        for k in [4u64, 2, 8, 6] {
            assert!(inner.insert(k, k * 10));
        }
        let handle: Arc<dyn OrderedMap> = inner.clone();
        // The blanket impl makes the Arc itself usable as an OrderedMap...
        let mut out = Vec::new();
        assert_eq!(OrderedMap::range_search(&handle, 3, 7, &mut out), 2);
        assert_eq!(out, vec![(4, 40), (6, 60)]);
        assert_eq!(OrderedMap::scan(&handle, 5, 2), vec![(6, 60), (8, 80)]);
        // ...agreeing with the concrete structure underneath, and the
        // ConcurrentMap supertrait surface keeps working through it.
        let mut direct = Vec::new();
        inner.range_search(3, 7, &mut direct);
        assert_eq!(out, direct);
        assert_eq!(ConcurrentMap::size(&handle), 4);
        assert!(ConcurrentMap::contains(&handle, 8));
        assert!(!ConcurrentMap::is_empty(&handle));
    }
}
