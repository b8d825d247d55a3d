//! BST-TK (BST Ticket) — the paper's new lock-based external tree (§6.2).
//!
//! BST-TK reduces the number of cache-line transfers by acquiring fewer
//! locks than existing lock-based BSTs: **one** lock for a successful
//! insertion and **two** for a successful removal. Every internal (router)
//! node carries a [`TreeLock`]: a pair of versioned ticket locks, one per
//! child edge. The parse phase records the lock versions it observed; the
//! modification phase then *tries to acquire that specific version*
//! (consolidating steps 3+4 and 6+7 of Figure 10 — lock acquisition and
//! validation become a single CAS). A failed acquisition means a concurrent
//! update changed the node, and the operation restarts its parse.
//!
//! The update flow (Figure 10 of the paper):
//!
//! ```text
//! 1. parse()                      // record version numbers
//! 2. if (!can_update()) return false   // ASCY3
//! 3. lock()                       // 1 node for insert, 2 for remove
//! 4. if (!validate_version()) goto 1   // folded into try_lock-at-version
//! 5. apply_update()
//! 6. increase_version()
//! 7. unlock()                     // folded into unlock (version bump)
//! ```

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::versioned::{Side, TreeLock, TreeLockSnapshot};

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{walk_tree, OrderedMap, TreeNode};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    /// Versioned ticket-lock pair (left/right edges); unused for leaves.
    lock: TreeLock,
    /// Null for leaves.
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

fn new_leaf(key: u64, value: u64) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        lock: TreeLock::new(),
        left: AtomicPtr::new(std::ptr::null_mut()),
        right: AtomicPtr::new(std::ptr::null_mut()),
    })
}

fn new_router(key: u64, left: *mut Node, right: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(0),
        lock: TreeLock::new(),
        left: AtomicPtr::new(left),
        right: AtomicPtr::new(right),
    })
}

/// One step of the parse phase: a router node, the lock snapshot taken when
/// its child pointer was read, and the direction taken.
#[derive(Clone, Copy)]
struct Step {
    node: *mut Node,
    snapshot: TreeLockSnapshot,
    side: Side,
}

/// The BST-Ticket external tree (lock-based).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::bst::BstTk;
///
/// let t = BstTk::new();
/// assert!(t.insert(42, 420));
/// assert_eq!(t.search(42), Some(420));
/// assert_eq!(t.remove(42), Some(420));
/// ```
pub struct BstTk {
    /// Sentinel router above the tree; its left child is the real tree.
    root: *mut Node,
}

// SAFETY: shared node fields are atomics; structural changes happen only
// under versioned ticket locks acquired at the version observed by the
// parse; removed nodes are retired through SSMEM while readers hold guards.
unsafe impl Send for BstTk {}
// SAFETY: see above.
unsafe impl Sync for BstTk {}

impl BstTk {
    /// Creates an empty tree.
    pub fn new() -> Self {
        // root (key MAX) -> left: inner (key MAX) -> {leaf(0), leaf(MAX)}
        // so that every real leaf always has an internal parent *and*
        // grandparent.
        let min_leaf = new_leaf(0, 0);
        let max_leaf = new_leaf(u64::MAX, 0);
        let inner = new_router(u64::MAX, min_leaf, max_leaf);
        let far_right = new_leaf(u64::MAX, 0);
        let root = new_router(u64::MAX, inner, far_right);
        Self { root }
    }

    #[inline]
    fn child(node: *mut Node, side: Side) -> *mut Node {
        // SAFETY: caller guarantees `node` is a protected router node.
        unsafe {
            match side {
                Side::Left => (*node).left.load(Ordering::Acquire),
                Side::Right => (*node).right.load(Ordering::Acquire),
            }
        }
    }

    #[inline]
    fn store_child(node: *mut Node, side: Side, value: *mut Node) {
        // SAFETY: caller holds the corresponding edge lock.
        unsafe {
            match side {
                Side::Left => (*node).left.store(value, Ordering::Release),
                Side::Right => (*node).right.store(value, Ordering::Release),
            }
        }
        stats::record_store();
    }

    /// Optimistic parse: descends to the leaf for `key`, recording the
    /// grandparent and parent steps (node, lock snapshot, direction).
    ///
    /// Caller must hold an SSMEM guard.
    fn parse(&self, key: u64) -> (Step, Step, *mut Node) {
        let mut traversed = 0u64;
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut gp = Step {
                node: self.root,
                snapshot: (*self.root).lock.snapshot(),
                side: Side::Left,
            };
            let mut p = gp;
            let mut curr = Self::child(p.node, p.side);
            while !(*curr).left.load(Ordering::Acquire).is_null() {
                traversed += 1;
                let side = if key < (*curr).key { Side::Left } else { Side::Right };
                let snapshot = (*curr).lock.snapshot();
                gp = p;
                p = Step { node: curr, snapshot, side };
                curr = Self::child(curr, side);
            }
            stats::record_traversal(traversed);
            (gp, p, curr)
        }
    }
}

impl ConcurrentMap for BstTk {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        stats::record_operation();
        let mut traversed = 0u64;
        // SAFETY: guard protects the traversal; no stores, no retries
        // (ASCY1).
        unsafe {
            let mut curr = (*self.root).left.load(Ordering::Acquire);
            while !(*curr).left.load(Ordering::Acquire).is_null() {
                traversed += 1;
                curr = if key < (*curr).key {
                    (*curr).left.load(Ordering::Acquire)
                } else {
                    (*curr).right.load(Ordering::Acquire)
                };
            }
            stats::record_traversal(traversed);
            if (*curr).key == key {
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
            let (_gp, p, leaf) = self.parse(key);
            // SAFETY: guard protects the nodes; the edge is modified only
            // after acquiring its versioned lock at the observed version.
            unsafe {
                if (*leaf).key == key {
                    // ASCY3: fail without a single store.
                    stats::record_operation();
                    return false;
                }
                // Step 3+4: acquire the parsed version of the parent edge.
                let locked = (*p.node).lock.try_lock(p.side, &p.snapshot);
                stats::record_atomic(locked);
                if !locked {
                    stats::record_restart();
                    continue;
                }
                // Step 5: splice in a new router with the old leaf and the
                // new leaf as children.
                let new = new_leaf(key, value);
                let router_key = key.max((*leaf).key);
                let router = if key < (*leaf).key {
                    new_router(router_key, new, leaf)
                } else {
                    new_router(router_key, leaf, new)
                };
                Self::store_child(p.node, p.side, router);
                // Steps 6+7: unlock bumps the edge version.
                (*p.node).lock.unlock(p.side);
                stats::record_operation();
                return true;
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (gp, p, leaf) = self.parse(key);
            // SAFETY: guard protects the nodes; both the grandparent edge and
            // the parent's two edges are locked at their parsed versions
            // before the splice; victims are retired after being unlinked.
            unsafe {
                if (*leaf).key != key {
                    // ASCY3: fail without a single store.
                    stats::record_operation();
                    return None;
                }
                // Lock the grandparent edge leading to the parent.
                let gp_locked = (*gp.node).lock.try_lock(gp.side, &gp.snapshot);
                stats::record_atomic(gp_locked);
                if !gp_locked {
                    stats::record_restart();
                    continue;
                }
                // Lock both edges of the parent (it is being removed).
                let p_locked = (*p.node).lock.try_lock_both(&p.snapshot);
                stats::record_atomic(p_locked);
                if !p_locked {
                    // Undo the grandparent acquisition without bumping its
                    // version: nothing changed.
                    (*gp.node).lock.revert(gp.side);
                    stats::record_restart();
                    continue;
                }
                let value = (*leaf).value.load(Ordering::Acquire);
                let sibling = match p.side {
                    Side::Left => (*p.node).right.load(Ordering::Acquire),
                    Side::Right => (*p.node).left.load(Ordering::Acquire),
                };
                Self::store_child(gp.node, gp.side, sibling);
                (*gp.node).lock.unlock(gp.side);
                // The parent stays locked forever: it is retired along with
                // the leaf.
                ssmem::retire(p.node);
                ssmem::retire(leaf);
                stats::record_operation();
                return Some(value);
            }
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        let mut stack = Vec::new();
        // SAFETY: guard protects the traversal.
        unsafe {
            stack.push((*self.root).left.load(Ordering::Acquire));
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Acquire);
                if l.is_null() {
                    let k = (*n).key;
                    if k != 0 && k != u64::MAX {
                        count += 1;
                    }
                } else {
                    stack.push(l);
                    stack.push((*n).right.load(Ordering::Acquire));
                }
            }
        }
        count
    }
}

impl TreeNode for Node {
    fn tree_key(&self) -> u64 {
        self.key
    }

    fn tree_value(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    fn tree_children(&self) -> (*mut Self, *mut Self) {
        (self.left.load(Ordering::Acquire), self.right.load(Ordering::Acquire))
    }
}

impl OrderedMap for BstTk {
    /// Lock-free in-order leaf walk (ASCY1 discipline, like `search`): the
    /// versioned edge locks are ignored entirely; reachable leaves are
    /// live.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every traversed node.
        unsafe { walk_tree(self.root, lo, visit) }
    }
}

impl Default for BstTk {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for BstTk {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; every reachable node freed once.
        unsafe {
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Relaxed);
                let r = (*n).right.load(Ordering::Relaxed);
                if !l.is_null() {
                    stack.push(l);
                }
                if !r.is_null() {
                    stack.push(r);
                }
                ssmem::dealloc_immediate(n);
            }
        }
    }
}

impl std::fmt::Debug for BstTk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BstTk").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let t = BstTk::new();
        for k in [50u64, 25, 75, 10, 30, 60, 90] {
            assert!(t.insert(k, k + 1));
        }
        assert!(!t.insert(25, 0));
        assert_eq!(t.size(), 7);
        for k in [50u64, 25, 75, 10, 30, 60, 90] {
            assert_eq!(t.search(k), Some(k + 1), "key {k}");
        }
        assert_eq!(t.remove(25), Some(26));
        assert_eq!(t.remove(25), None);
        assert_eq!(t.search(10), Some(11));
        assert_eq!(t.search(30), Some(31));
        assert_eq!(t.size(), 6);
    }

    #[test]
    fn remove_everything_and_reuse() {
        let t = BstTk::new();
        for round in 0..3u64 {
            for k in 1..=128u64 {
                assert!(t.insert(k, k * (round + 1)), "round {round} insert {k}");
            }
            assert_eq!(t.size(), 128);
            for k in 1..=128u64 {
                assert_eq!(t.remove(k), Some(k * (round + 1)), "round {round} remove {k}");
            }
            assert_eq!(t.size(), 0);
        }
    }

    #[test]
    fn stale_parse_is_rejected() {
        // A remove that races with an insert on the same edge must restart
        // rather than corrupt the tree. (Single-threaded approximation: the
        // versioned locks simply validate; the concurrent case is covered by
        // the full_suite stress tests in the module tests.)
        let t = BstTk::new();
        assert!(t.insert(10, 1));
        assert!(t.insert(20, 2));
        assert!(t.insert(5, 3));
        assert_eq!(t.remove(10), Some(1));
        assert_eq!(t.search(20), Some(2));
        assert_eq!(t.search(5), Some(3));
    }
}
