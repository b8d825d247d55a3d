//! The lazy linked list (Heller, Herlihy, Luchangco, Moir, Scherer, Shavit).
//!
//! Nodes are deleted in two steps: a logical *mark* followed by a physical
//! unlink, both performed while holding the locks of the victim and its
//! predecessor. Searching simply ignores marked nodes and therefore follows
//! **ASCY1** (no stores, waiting or retries). The parse phase of updates is
//! identical to the search (**ASCY2**). With the default configuration the
//! list also follows **ASCY3**: an update whose parse already shows that it
//! cannot succeed returns without acquiring any lock. The
//! [`LazyList::without_ascy3`] constructor disables that short-cut to
//! reproduce the `lazy-no` variant of Figure 6.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::TtasLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{walk_chain, ChainNode, OrderedMap};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    marked: AtomicBool,
    lock: TtasLock,
    next: AtomicPtr<Node>,
}

fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        marked: AtomicBool::new(false),
        lock: TtasLock::new(),
        next: AtomicPtr::new(next),
    })
}

/// The lazy concurrent linked list (hybrid lock-based).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::LazyList;
///
/// let list = LazyList::new();
/// assert!(list.insert(10, 100));
/// assert_eq!(list.search(10), Some(100));
/// assert_eq!(list.remove(10), Some(100));
/// ```
pub struct LazyList {
    head: *mut Node,
    ascy3: bool,
}

// SAFETY: all mutation of shared node state happens through atomics and
// per-node locks; retired nodes are reclaimed only after an SSMEM grace
// period, so concurrent traversals never dereference freed memory.
unsafe impl Send for LazyList {}
// SAFETY: see above.
unsafe impl Sync for LazyList {}

impl LazyList {
    /// Creates an empty list with the ASCY3 "read-only unsuccessful update"
    /// optimization enabled (the paper's default `lazy`).
    pub fn new() -> Self {
        Self::with_ascy3(true)
    }

    /// Creates the `lazy-no` variant of Figure 6: unsuccessful updates still
    /// acquire the locks before failing.
    pub fn without_ascy3() -> Self {
        Self::with_ascy3(false)
    }

    fn with_ascy3(ascy3: bool) -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head, ascy3 }
    }

    /// Traverses to the first node with `node.key >= key`, returning the
    /// predecessor and that node. Performs no stores (ASCY1/2).
    #[inline]
    fn find(&self, key: u64) -> (*mut Node, *mut Node) {
        let mut traversed = 0u64;
        // SAFETY: traversal happens under the caller's SSMEM guard, so nodes
        // reached through next pointers are not reclaimed while we read them.
        unsafe {
            let mut pred = self.head;
            let mut curr = (*pred).next.load(Ordering::Acquire);
            while (*curr).key < key {
                pred = curr;
                curr = (*curr).next.load(Ordering::Acquire);
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }

    /// Lazy-list validation: both nodes unmarked and still adjacent.
    ///
    /// # Safety
    ///
    /// Both pointers must refer to nodes protected by the current guard.
    #[inline]
    unsafe fn validate(pred: *mut Node, curr: *mut Node) -> bool {
        // SAFETY: per the function contract.
        unsafe {
            !(*pred).marked.load(Ordering::Acquire)
                && !(*curr).marked.load(Ordering::Acquire)
                && (*pred).next.load(Ordering::Acquire) == curr
        }
    }
}

impl ConcurrentMap for LazyList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let (_, curr) = self.find(key);
        stats::record_operation();
        // SAFETY: guard protects the traversed nodes.
        unsafe {
            if (*curr).key == key && !(*curr).marked.load(Ordering::Acquire) {
                Some((*curr).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (pred, curr) = self.find(key);
            // SAFETY: guard protects pred/curr; locks serialize the
            // modification phase.
            unsafe {
                if self.ascy3
                    && (*curr).key == key
                    && !(*curr).marked.load(Ordering::Acquire)
                {
                    // ASCY3: fail without any store.
                    stats::record_operation();
                    return false;
                }
                (*pred).lock.lock();
                stats::record_lock();
                (*curr).lock.lock();
                stats::record_lock();
                if Self::validate(pred, curr) {
                    let result = if (*curr).key == key {
                        false
                    } else {
                        let node = new_node(key, value, curr);
                        (*pred).next.store(node, Ordering::Release);
                        stats::record_store();
                        true
                    };
                    (*curr).lock.unlock();
                    (*pred).lock.unlock();
                    stats::record_operation();
                    return result;
                }
                (*curr).lock.unlock();
                (*pred).lock.unlock();
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (pred, curr) = self.find(key);
            // SAFETY: guard protects pred/curr; locks serialize the
            // modification phase; the victim is retired only after being
            // unlinked.
            unsafe {
                let parse_failed =
                    (*curr).key != key || (*curr).marked.load(Ordering::Acquire);
                if parse_failed {
                    if !self.ascy3 {
                        // `lazy-no`: acquire the locks even though the update
                        // cannot succeed, as the non-ASCY3 original does.
                        (*pred).lock.lock();
                        stats::record_lock();
                        (*pred).lock.unlock();
                    }
                    stats::record_operation();
                    return None;
                }
                (*pred).lock.lock();
                stats::record_lock();
                (*curr).lock.lock();
                stats::record_lock();
                if Self::validate(pred, curr) && (*curr).key == key {
                    let value = (*curr).value.load(Ordering::Acquire);
                    (*curr).marked.store(true, Ordering::Release);
                    stats::record_store();
                    (*pred)
                        .next
                        .store((*curr).next.load(Ordering::Acquire), Ordering::Release);
                    stats::record_store();
                    (*curr).lock.unlock();
                    (*pred).lock.unlock();
                    // SAFETY: the node is unlinked; readers still traversing
                    // it hold guards created before this point.
                    ssmem::retire(curr);
                    stats::record_operation();
                    return Some(value);
                }
                (*curr).lock.unlock();
                (*pred).lock.unlock();
                stats::record_restart();
            }
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Acquire);
            while (*curr).key != u64::MAX {
                if !(*curr).marked.load(Ordering::Acquire) {
                    count += 1;
                }
                curr = (*curr).next.load(Ordering::Acquire);
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
        !self.marked.load(Ordering::Acquire)
    }

    fn chain_next(&self) -> *mut Self {
        self.next.load(Ordering::Acquire)
    }
}

impl OrderedMap for LazyList {
    /// Same ASCY1 discipline as `find`: traverse without stores, skipping
    /// marked nodes.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl Default for LazyList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LazyList {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; every node still linked is freed once.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = (*curr).next.load(Ordering::Relaxed);
                ssmem::dealloc_immediate(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for LazyList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyList")
            .field("ascy3", &self.ascy3)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = LazyList::new();
        assert!(l.insert(3, 30));
        assert!(l.insert(1, 10));
        assert!(l.insert(2, 20));
        assert!(!l.insert(2, 21));
        assert_eq!(l.size(), 3);
        assert_eq!(l.search(2), Some(20));
        assert_eq!(l.remove(2), Some(20));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.size(), 2);
    }

    #[test]
    fn ascy3_variant_matches_non_ascy3_semantics() {
        let a = LazyList::new();
        let b = LazyList::without_ascy3();
        for k in 1..=20u64 {
            assert_eq!(a.insert(k, k), b.insert(k, k));
        }
        for k in (1..=25u64).rev() {
            assert_eq!(a.remove(k), b.remove(k), "remove({k})");
            assert_eq!(a.insert(k, 1), b.insert(k, 1), "insert({k})");
        }
        assert_eq!(a.size(), b.size());
    }
}
