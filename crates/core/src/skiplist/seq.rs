//! The sequential ("asynchronized") skip list.
//!
//! Like [`crate::list::AsyncList`], this is the paper's `async` skip-list
//! baseline: the sequential algorithm shared without synchronization. All
//! shared fields are `Relaxed` atomics (so the Rust implementation is free
//! of data races) and garbage collection is disabled. Under concurrent
//! updates the structure may become malformed — the paper observes exactly
//! this (towers whose pointers are not properly set, leading to longer
//! average path lengths) — but it remains traversable.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};


use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::skiplist::{
    alloc_node, assert_node_bytes, free_node, link, random_level, Tower, MAX_LEVEL,
};
use crate::stats;

/// The node header; the tower's upper links follow it in the same
/// allocation (see [`crate::skiplist`]'s layout helper).
#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    toplevel: usize,
    next0: AtomicPtr<Node>,
}

// SAFETY: `repr(C)`, `next0` is the last field and a single atomic word whose
// zero value is the null pointer; `toplevel` is written once by `new_node`.
// The offsets are pinned by the assertions below.
unsafe impl Tower for Node {
    type Link = AtomicPtr<Node>;
    const LINK0: usize = std::mem::offset_of!(Node, next0);

    #[inline]
    fn toplevel(&self) -> usize {
        self.toplevel
    }
}

// A 32-byte header with `next0` at offset 24: `24 + 8·h` bytes per node.
const _: () = assert_node_bytes::<Node>(24);

fn new_node(key: u64, value: u64, toplevel: usize) -> *mut Node {
    alloc_node(Node {
        key,
        value: AtomicU64::new(value),
        toplevel,
        next0: AtomicPtr::new(std::ptr::null_mut()),
    })
}

/// The asynchronized (sequential) skip list.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::AsyncSkipList;
///
/// let sl = AsyncSkipList::new();
/// assert!(sl.insert(4, 40));
/// assert_eq!(sl.search(4), Some(40));
/// ```
pub struct AsyncSkipList {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared fields are atomics; nodes are never reclaimed during the
// structure's lifetime (GC disabled, as in the paper's async runs).
unsafe impl Send for AsyncSkipList {}
// SAFETY: see above.
unsafe impl Sync for AsyncSkipList {}

impl AsyncSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, MAX_LEVEL);
        let head = new_node(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated sentinels.
        unsafe {
            for level in 0..MAX_LEVEL {
                link(head, level).store(tail, Ordering::Relaxed);
            }
        }
        Self { head, tail }
    }

    /// Standard skip-list descent recording the predecessor at every level.
    fn find(&self, key: u64, preds: &mut [*mut Node; MAX_LEVEL], succs: &mut [*mut Node; MAX_LEVEL]) {
        let mut traversed = 0u64;
        // SAFETY: nodes are never reclaimed while the structure is alive.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Relaxed);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Relaxed);
                    traversed += 1;
                }
                preds[level] = pred;
                succs[level] = curr;
            }
        }
        stats::record_traversal(traversed);
    }
}

impl ConcurrentMap for AsyncSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let mut traversed = 0u64;
        stats::record_operation();
        // SAFETY: nodes are never reclaimed while the structure is alive.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Relaxed);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Relaxed);
                    traversed += 1;
                }
                if (*curr).key == key {
                    stats::record_traversal(traversed);
                    return Some((*curr).value.load(Ordering::Relaxed));
                }
            }
            stats::record_traversal(traversed);
            None
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        self.find(key, &mut preds, &mut succs);
        stats::record_operation();
        // SAFETY: sequential algorithm; nodes are alive for the structure's
        // lifetime.
        unsafe {
            if (*succs[0]).key == key {
                return false;
            }
            let toplevel = random_level();
            let node = new_node(key, value, toplevel);
            for level in 0..toplevel {
                link(node, level).store(succs[level], Ordering::Relaxed);
                link(preds[level], level).store(node, Ordering::Relaxed);
                stats::record_store();
            }
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        self.find(key, &mut preds, &mut succs);
        stats::record_operation();
        // SAFETY: sequential algorithm; removed nodes are intentionally not
        // retired (GC disabled for asynchronized runs).
        unsafe {
            let victim = succs[0];
            if (*victim).key != key {
                return None;
            }
            let value = (*victim).value.load(Ordering::Relaxed);
            for level in 0..(*victim).toplevel {
                if link(preds[level], level).load(Ordering::Relaxed) == victim {
                    link(preds[level], level)
                        .store(link(victim, level).load(Ordering::Relaxed), Ordering::Relaxed);
                    stats::record_store();
                }
            }
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: level-0 chain traversal; nodes alive for the structure's
        // lifetime.
        unsafe {
            let mut curr = link(self.head, 0).load(Ordering::Relaxed);
            while curr != self.tail {
                count += 1;
                curr = link(curr, 0).load(Ordering::Relaxed);
            }
        }
        count
    }
}

impl ChainNode for Node {
    fn chain_key(&self) -> u64 {
        self.key
    }

    fn chain_value(&self) -> u64 {
        // Relaxed: the asynchronized baseline performs exactly a sequential
        // skip list's accesses.
        self.value.load(Ordering::Relaxed)
    }

    fn chain_live(&self) -> bool {
        true
    }

    fn chain_next(&self) -> *mut Self {
        self.next0.load(Ordering::Relaxed)
    }
}

impl RangeWalk for AsyncSkipList {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        // SAFETY: nodes are never reclaimed while the structure is alive
        // (GC disabled for asynchronized baselines).
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Relaxed);
                while (*curr).key < lo {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Relaxed);
                }
            }
            walk_chain(pred, lo, visit);
        }
    }
}

impl_ordered_map!(AsyncSkipList);

impl Default for AsyncSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncSkipList {
    fn drop(&mut self) {
        // SAFETY: exclusive access; walk the level-0 chain and free each node
        // once (removed nodes were leaked deliberately).
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = if curr == self.tail {
                    std::ptr::null_mut()
                } else {
                    link(curr, 0).load(Ordering::Relaxed)
                };
                free_node(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for AsyncSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSkipList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_full_height() {
        let sl = AsyncSkipList::new();
        // SAFETY: the sentinels live as long as the list.
        unsafe {
            assert_eq!((*sl.head).toplevel, MAX_LEVEL);
            assert_eq!((*sl.tail).toplevel, MAX_LEVEL);
            assert_eq!(link(sl.head, MAX_LEVEL - 1).load(Ordering::Relaxed), sl.tail);
            assert!(link(sl.tail, MAX_LEVEL - 1).load(Ordering::Relaxed).is_null());
        }
    }

    /// The accessor is the only way past the header, so its debug check is
    /// what stands between a level-arithmetic slip and a read off the end of
    /// a 32-byte allocation.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "link 1 of a 1-level node")]
    fn a_link_above_the_tower_is_refused_in_debug_builds() {
        let node = new_node(1, 1, 1);
        // SAFETY: the node is ours; the assertion fires before any access.
        let _ = unsafe { link(node, 1) };
    }

    #[test]
    fn basic_semantics() {
        let sl = AsyncSkipList::new();
        for k in [9u64, 2, 7, 4, 11] {
            assert!(sl.insert(k, k * 10));
        }
        assert!(!sl.insert(7, 0));
        assert_eq!(sl.size(), 5);
        assert_eq!(sl.search(11), Some(110));
        assert_eq!(sl.remove(2), Some(20));
        assert_eq!(sl.search(2), None);
        assert_eq!(sl.size(), 4);
    }

    #[test]
    fn many_keys_keep_level0_sorted() {
        let sl = AsyncSkipList::new();
        for k in (1..=500u64).rev() {
            assert!(sl.insert(k, k));
        }
        assert_eq!(sl.size(), 500);
        for k in 1..=500u64 {
            assert_eq!(sl.search(k), Some(k));
        }
    }
}
