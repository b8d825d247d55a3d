//! Harris's lock-free linked list.
//!
//! Nodes are deleted in two steps: the victim's `next` pointer is *marked*
//! with a CAS (logical deletion) and a second CAS physically unlinks it.
//! Crucially, in the original algorithm the **search helper also performs the
//! clean-up**: when it finds logically deleted nodes it tries to unlink them
//! and restarts if the CAS fails. This violates ASCY1/ASCY2 (searches
//! perform stores and may restart), which is exactly what the paper
//! re-engineers in [`super::HarrisOptList`].

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::marked::{tag, MarkedPtr};
use crate::ordered::{walk_chain, ChainNode, OrderedMap};
use crate::stats;

#[repr(C)]
pub(crate) struct Node {
    pub(crate) key: u64,
    pub(crate) value: AtomicU64,
    pub(crate) next: MarkedPtr<Node>,
}

pub(crate) fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        next: MarkedPtr::new(next, tag::CLEAN),
    })
}

/// Harris's lock-free linked list.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::HarrisList;
///
/// let list = HarrisList::new();
/// assert!(list.insert(10, 1));
/// assert!(list.contains(10));
/// assert_eq!(list.remove(10), Some(1));
/// ```
pub struct HarrisList {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: all shared node state is accessed through atomics; unlinked nodes
// are retired through SSMEM and reclaimed only after a grace period, so
// concurrent traversals (which always run under a guard) never touch freed
// memory.
unsafe impl Send for HarrisList {}
// SAFETY: see above.
unsafe impl Sync for HarrisList {}

impl HarrisList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head, tail }
    }

    /// Harris's `search`: returns `(left, right)` where `left` is the last
    /// unmarked node with key `< key` and `right` the first unmarked node
    /// with key `>= key`; any marked nodes in between are unlinked (and the
    /// operation restarts if the clean-up CAS fails).
    ///
    /// Caller must hold an SSMEM guard.
    fn harris_search(&self, key: u64) -> (*mut Node, *mut Node) {
        // SAFETY: caller holds a guard; nodes reached through next pointers
        // are protected from reclamation.
        unsafe {
            'retry: loop {
                let mut left = self.head;
                let mut left_next = (*left).next.load(Ordering::Acquire);
                let mut traversed = 0u64;

                // Phase 1: find left and right.
                let mut t = self.head;
                let mut t_next = (*t).next.load(Ordering::Acquire);
                loop {
                    if t_next.1 == tag::CLEAN {
                        left = t;
                        left_next = t_next;
                    }
                    t = t_next.0;
                    if t == self.tail {
                        break;
                    }
                    t_next = (*t).next.load(Ordering::Acquire);
                    traversed += 1;
                    if t_next.1 != tag::CLEAN || (*t).key < key {
                        continue;
                    }
                    break;
                }
                let right = t;
                stats::record_traversal(traversed);

                // Phase 2: check adjacency.
                if left_next.0 == right {
                    if right != self.tail
                        && (*right).next.load(Ordering::Acquire).1 != tag::CLEAN
                    {
                        stats::record_restart();
                        continue 'retry;
                    }
                    return (left, right);
                }

                // Phase 3: unlink the marked chain between left and right.
                let cas_ok = (*left)
                    .next
                    .compare_exchange(
                        left_next.0,
                        left_next.1,
                        right,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(cas_ok);
                if cas_ok {
                    // Retire the excised chain; we are the only thread whose
                    // unlink CAS succeeded for these nodes.
                    let mut victim = left_next.0;
                    while victim != right {
                        let succ = (*victim).next.load(Ordering::Acquire).0;
                        ssmem::retire(victim);
                        victim = succ;
                    }
                    if right != self.tail
                        && (*right).next.load(Ordering::Acquire).1 != tag::CLEAN
                    {
                        stats::record_restart();
                        continue 'retry;
                    }
                    return (left, right);
                }
                stats::record_restart();
            }
        }
    }
}

impl ConcurrentMap for HarrisList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let (_, right) = self.harris_search(key);
        stats::record_operation();
        // SAFETY: guard protects `right`.
        unsafe {
            if right != self.tail && (*right).key == key {
                Some((*right).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (left, right) = self.harris_search(key);
            // SAFETY: guard protects left/right; the new node is initialized
            // before the publishing CAS.
            unsafe {
                if right != self.tail && (*right).key == key {
                    stats::record_operation();
                    return false;
                }
                let node = new_node(key, value, right);
                let ok = (*left)
                    .next
                    .compare_exchange(
                        right,
                        tag::CLEAN,
                        node,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    stats::record_operation();
                    return true;
                }
                // Not published: safe to free immediately.
                ssmem::dealloc_immediate(node);
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (left, right) = self.harris_search(key);
            // SAFETY: guard protects left/right; only the thread whose unlink
            // CAS succeeds retires the victim.
            unsafe {
                if right == self.tail || (*right).key != key {
                    stats::record_operation();
                    return None;
                }
                let (succ, m) = (*right).next.load(Ordering::Acquire);
                if m != tag::CLEAN {
                    // Already logically deleted by someone else; retry to
                    // either find another node with this key or conclude.
                    stats::record_restart();
                    continue;
                }
                let value = (*right).value.load(Ordering::Acquire);
                let marked = (*right)
                    .next
                    .compare_exchange(
                        succ,
                        tag::CLEAN,
                        succ,
                        tag::MARK,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(marked);
                if !marked {
                    stats::record_restart();
                    continue;
                }
                // Try to unlink immediately; fall back to a clean-up search.
                let unlinked = (*left)
                    .next
                    .compare_exchange(
                        right,
                        tag::CLEAN,
                        succ,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(unlinked);
                if unlinked {
                    ssmem::retire(right);
                } else {
                    // The clean-up search will unlink (and retire) it.
                    let _ = self.harris_search(key);
                }
                stats::record_operation();
                return Some(value);
            }
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Acquire).0;
            while curr != self.tail {
                let (next, m) = (*curr).next.load(Ordering::Acquire);
                if m == tag::CLEAN {
                    count += 1;
                }
                curr = next;
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
        self.value.load(Ordering::Acquire)
    }

    fn chain_live(&self) -> bool {
        // A marked next pointer is Harris's logical deletion.
        self.next.load(Ordering::Acquire).1 == tag::CLEAN
    }

    fn chain_next(&self) -> *mut Self {
        self.next.load(Ordering::Acquire).0
    }
}

impl OrderedMap for HarrisList {
    /// ASCY1-style wait-free range traversal: no stores, no retries; marked
    /// nodes are skipped (not cleaned up).
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl Default for HarrisList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HarrisList {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; every node still reachable (marked or
        // not) is freed exactly once.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = (*curr).next.load(Ordering::Relaxed).0;
                ssmem::dealloc_immediate(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for HarrisList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarrisList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = HarrisList::new();
        assert!(l.insert(2, 20));
        assert!(l.insert(1, 10));
        assert!(l.insert(3, 30));
        assert!(!l.insert(2, 21));
        assert_eq!(l.size(), 3);
        assert_eq!(l.search(2), Some(20));
        assert_eq!(l.remove(2), Some(20));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.search(2), None);
        assert_eq!(l.size(), 2);
    }

    #[test]
    fn interleaved_insert_remove() {
        let l = HarrisList::new();
        for round in 0..5u64 {
            for k in 1..=50u64 {
                assert!(l.insert(k, k + round), "insert({k}) round {round}");
            }
            for k in 1..=50u64 {
                assert_eq!(l.remove(k), Some(k + round), "remove({k}) round {round}");
            }
            assert_eq!(l.size(), 0);
        }
    }
}
