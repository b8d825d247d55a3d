//! The lock-coupling ("hand-over-hand") linked list.
//!
//! The fully lock-based baseline of Table 1: every operation acquires the
//! lock of the next node before releasing the previous one, so even searches
//! perform one lock acquisition (two cache-line transfers) per traversed
//! node. It violates every ASCY pattern and, as the paper's Figures 2–4
//! show, it is the least scalable list by a wide margin — it is included as
//! the canonical negative example.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::TicketLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{walk_chain, ChainNode, OrderedMap};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    lock: TicketLock,
    next: AtomicPtr<Node>,
}

fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        lock: TicketLock::new(),
        next: AtomicPtr::new(next),
    })
}

/// The hand-over-hand (lock-coupling) linked list (fully lock-based).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::CouplingList;
///
/// let list = CouplingList::new();
/// assert!(list.insert(1, 11));
/// assert_eq!(list.remove(1), Some(11));
/// ```
pub struct CouplingList {
    head: *mut Node,
}

// SAFETY: every access to a node happens while holding its predecessor's (or
// its own) lock; a node is unlinked and retired only while both locks are
// held, at which point no other thread can reach it.
unsafe impl Send for CouplingList {}
// SAFETY: see above.
unsafe impl Sync for CouplingList {}

impl CouplingList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head }
    }

    /// Traverses hand-over-hand until `curr.key >= key`. Returns `(pred,
    /// curr)` with **both locks held**.
    #[inline]
    fn find_locked(&self, key: u64) -> (*mut Node, *mut Node) {
        let mut traversed = 0u64;
        // SAFETY: locks are acquired hand-over-hand starting from the head
        // sentinel, so every dereferenced node is protected by a lock we (or
        // our predecessor chain) hold and cannot be unlinked concurrently.
        unsafe {
            let mut pred = self.head;
            (*pred).lock.lock();
            stats::record_lock();
            let mut curr = (*pred).next.load(Ordering::Acquire);
            (*curr).lock.lock();
            stats::record_lock();
            while (*curr).key < key {
                (*pred).lock.unlock();
                pred = curr;
                curr = (*curr).next.load(Ordering::Acquire);
                (*curr).lock.lock();
                stats::record_lock();
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }

    /// Releases the two locks returned by [`Self::find_locked`].
    ///
    /// # Safety
    ///
    /// `pred` and `curr` must be the node pair returned by `find_locked`,
    /// with both locks still held by the caller.
    #[inline]
    unsafe fn unlock_pair(pred: *mut Node, curr: *mut Node) {
        // SAFETY: per the function contract.
        unsafe {
            (*curr).lock.unlock();
            (*pred).lock.unlock();
        }
    }
}

impl ConcurrentMap for CouplingList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let (pred, curr) = self.find_locked(key);
        stats::record_operation();
        // SAFETY: both locks are held.
        unsafe {
            let result = if (*curr).key == key {
                Some((*curr).value.load(Ordering::Acquire))
            } else {
                None
            };
            Self::unlock_pair(pred, curr);
            result
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let (pred, curr) = self.find_locked(key);
        stats::record_operation();
        // SAFETY: both locks are held; the new node is initialized before
        // being linked.
        unsafe {
            let result = if (*curr).key == key {
                false
            } else {
                let node = new_node(key, value, curr);
                (*pred).next.store(node, Ordering::Release);
                stats::record_store();
                true
            };
            Self::unlock_pair(pred, curr);
            result
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let (pred, curr) = self.find_locked(key);
        stats::record_operation();
        // SAFETY: both locks are held. After the unlink no other thread can
        // reach `curr` (reaching it would require holding `pred`'s lock), so
        // retiring it is safe.
        unsafe {
            if (*curr).key != key {
                Self::unlock_pair(pred, curr);
                return None;
            }
            let value = (*curr).value.load(Ordering::Acquire);
            (*pred).next.store((*curr).next.load(Ordering::Acquire), Ordering::Release);
            stats::record_store();
            Self::unlock_pair(pred, curr);
            ssmem::retire(curr);
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: size is a diagnostic traversal; nodes cannot be reclaimed
        // under our feet because unlinked nodes go through SSMEM's grace
        // period and this traversal holds a guard.
        let _guard = ssmem::protect();
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Acquire);
            while (*curr).key != u64::MAX {
                count += 1;
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
        // Removal unlinks immediately (no logical-delete flag), so every
        // reachable node is present.
        true
    }

    fn chain_next(&self) -> *mut Self {
        self.next.load(Ordering::Acquire)
    }
}

impl OrderedMap for CouplingList {
    /// Lock-free diagnostic-style traversal (same discipline as `size`): a
    /// removed node we happen to stand on still points at its old successor
    /// and is kept alive by the guard, so the walk always finds its way
    /// forward without taking the hand-over-hand locks.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl Default for CouplingList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CouplingList {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access.
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

impl std::fmt::Debug for CouplingList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CouplingList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = CouplingList::new();
        assert!(l.insert(8, 80));
        assert!(l.insert(4, 40));
        assert!(!l.insert(8, 81));
        assert_eq!(l.search(4), Some(40));
        assert_eq!(l.search(5), None);
        assert_eq!(l.remove(8), Some(80));
        assert_eq!(l.size(), 1);
    }
}
