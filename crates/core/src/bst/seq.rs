//! Sequential ("asynchronized") binary search trees.
//!
//! The paper uses two sequential baselines for BSTs: an *internal* tree
//! (data in every node) and an *external* tree (data only in leaves, router
//! nodes inside). Both are shared without synchronization in the `async`
//! runs; as with the other asynchronized structures, all shared fields are
//! `Relaxed` atomics and removed nodes are not reclaimed.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{ascending, walk_tree, OrderedMap, TreeNode};
use crate::stats;

// ---------------------------------------------------------------------------
// Internal BST
// ---------------------------------------------------------------------------

#[repr(C)]
struct INode {
    key: AtomicU64,
    value: AtomicU64,
    left: AtomicPtr<INode>,
    right: AtomicPtr<INode>,
}

fn new_inode(key: u64, value: u64) -> *mut INode {
    ssmem::alloc(INode {
        key: AtomicU64::new(key),
        value: AtomicU64::new(value),
        left: AtomicPtr::new(std::ptr::null_mut()),
        right: AtomicPtr::new(std::ptr::null_mut()),
    })
}

/// The asynchronized (sequential) *internal* BST (`async-int` in Figure 2d).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::bst::AsyncBstInternal;
///
/// let t = AsyncBstInternal::new();
/// assert!(t.insert(10, 100));
/// assert_eq!(t.search(10), Some(100));
/// ```
pub struct AsyncBstInternal {
    /// Pseudo-root: its right child is the real root (simplifies removal of
    /// the root itself).
    root: *mut INode,
}

// SAFETY: all shared fields are atomics; nodes are never reclaimed during
// the structure's lifetime.
unsafe impl Send for AsyncBstInternal {}
// SAFETY: see above.
unsafe impl Sync for AsyncBstInternal {}

impl AsyncBstInternal {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self { root: new_inode(0, 0) }
    }
}

impl ConcurrentMap for AsyncBstInternal {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        let mut traversed = 0u64;
        // SAFETY: nodes live for the structure's lifetime.
        unsafe {
            let mut curr = (*self.root).right.load(Ordering::Relaxed);
            while !curr.is_null() {
                traversed += 1;
                let k = (*curr).key.load(Ordering::Relaxed);
                if k == key {
                    stats::record_traversal(traversed);
                    return Some((*curr).value.load(Ordering::Relaxed));
                }
                curr = if key < k {
                    (*curr).left.load(Ordering::Relaxed)
                } else {
                    (*curr).right.load(Ordering::Relaxed)
                };
            }
        }
        stats::record_traversal(traversed);
        None
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        stats::record_operation();
        // SAFETY: sequential algorithm over never-reclaimed nodes.
        unsafe {
            let mut parent = self.root;
            let mut go_left = false;
            let mut curr = (*self.root).right.load(Ordering::Relaxed);
            while !curr.is_null() {
                let k = (*curr).key.load(Ordering::Relaxed);
                if k == key {
                    return false;
                }
                parent = curr;
                go_left = key < k;
                curr = if go_left {
                    (*curr).left.load(Ordering::Relaxed)
                } else {
                    (*curr).right.load(Ordering::Relaxed)
                };
            }
            let node = new_inode(key, value);
            if parent == self.root {
                (*parent).right.store(node, Ordering::Relaxed);
            } else if go_left {
                (*parent).left.store(node, Ordering::Relaxed);
            } else {
                (*parent).right.store(node, Ordering::Relaxed);
            }
            stats::record_store();
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        // SAFETY: sequential algorithm; removed nodes are leaked (GC is
        // disabled for asynchronized baselines).
        unsafe {
            let mut parent = self.root;
            let mut go_left = false;
            let mut curr = (*self.root).right.load(Ordering::Relaxed);
            while !curr.is_null() && (*curr).key.load(Ordering::Relaxed) != key {
                parent = curr;
                go_left = key < (*curr).key.load(Ordering::Relaxed);
                curr = if go_left {
                    (*curr).left.load(Ordering::Relaxed)
                } else {
                    (*curr).right.load(Ordering::Relaxed)
                };
            }
            if curr.is_null() {
                return None;
            }
            let value = (*curr).value.load(Ordering::Relaxed);
            let left = (*curr).left.load(Ordering::Relaxed);
            let right = (*curr).right.load(Ordering::Relaxed);
            let replacement = if left.is_null() {
                right
            } else if right.is_null() {
                left
            } else {
                // Two children: replace with the in-order successor's
                // key/value (classic internal-BST removal).
                let mut succ_parent = curr;
                let mut succ = right;
                while !(*succ).left.load(Ordering::Relaxed).is_null() {
                    succ_parent = succ;
                    succ = (*succ).left.load(Ordering::Relaxed);
                }
                (*curr).key.store((*succ).key.load(Ordering::Relaxed), Ordering::Relaxed);
                (*curr)
                    .value
                    .store((*succ).value.load(Ordering::Relaxed), Ordering::Relaxed);
                stats::record_stores(2);
                let succ_right = (*succ).right.load(Ordering::Relaxed);
                if succ_parent == curr {
                    (*succ_parent).right.store(succ_right, Ordering::Relaxed);
                } else {
                    (*succ_parent).left.store(succ_right, Ordering::Relaxed);
                }
                stats::record_store();
                return Some(value);
            };
            if parent == self.root {
                (*parent).right.store(replacement, Ordering::Relaxed);
            } else if go_left {
                (*parent).left.store(replacement, Ordering::Relaxed);
            } else {
                (*parent).right.store(replacement, Ordering::Relaxed);
            }
            stats::record_store();
            Some(value)
        }
    }

    fn size(&self) -> usize {
        // Iterative traversal with an explicit stack.
        let mut count = 0;
        let mut stack = Vec::new();
        // SAFETY: nodes live for the structure's lifetime.
        unsafe {
            let root = (*self.root).right.load(Ordering::Relaxed);
            if !root.is_null() {
                stack.push(root);
            }
            while let Some(n) = stack.pop() {
                count += 1;
                let l = (*n).left.load(Ordering::Relaxed);
                let r = (*n).right.load(Ordering::Relaxed);
                if !l.is_null() {
                    stack.push(l);
                }
                if !r.is_null() {
                    stack.push(r);
                }
            }
        }
        count
    }
}

impl OrderedMap for AsyncBstInternal {
    /// Classic pruned in-order traversal; data lives in every node, so the
    /// shared external-tree walker does not apply.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let mut traversed = 0u64;
        let mut visit = ascending(lo, visit);
        let mut pending: Vec<*mut INode> = Vec::new();
        // SAFETY: nodes are never reclaimed while the structure is alive
        // (GC disabled for asynchronized baselines).
        unsafe {
            let mut curr = (*self.root).right.load(Ordering::Relaxed);
            'walk: loop {
                // Stack every in-range node on the left spine; a node with
                // key < lo prunes itself and its whole left subtree.
                while !curr.is_null() {
                    traversed += 1;
                    if lo <= (*curr).key.load(Ordering::Relaxed) {
                        pending.push(curr);
                        curr = (*curr).left.load(Ordering::Relaxed);
                    } else {
                        curr = (*curr).right.load(Ordering::Relaxed);
                    }
                }
                match pending.pop() {
                    Some(node) => {
                        let key = (*node).key.load(Ordering::Relaxed);
                        if !visit(key, (*node).value.load(Ordering::Relaxed)) {
                            break 'walk;
                        }
                        curr = (*node).right.load(Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        stats::record_traversal(traversed);
    }
}

impl Default for AsyncBstInternal {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncBstInternal {
    fn drop(&mut self) {
        // SAFETY: exclusive access; free every reachable node once.
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

impl std::fmt::Debug for AsyncBstInternal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncBstInternal").field("size", &self.size()).finish()
    }
}

// ---------------------------------------------------------------------------
// External BST
// ---------------------------------------------------------------------------

#[repr(C)]
struct ENode {
    key: u64,
    value: AtomicU64,
    /// Null for leaves.
    left: AtomicPtr<ENode>,
    right: AtomicPtr<ENode>,
}

fn new_enode(key: u64, value: u64) -> *mut ENode {
    ssmem::alloc(ENode {
        key,
        value: AtomicU64::new(value),
        left: AtomicPtr::new(std::ptr::null_mut()),
        right: AtomicPtr::new(std::ptr::null_mut()),
    })
}

/// The asynchronized (sequential) *external* BST (`async-ext` in Figure 2d).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::bst::AsyncBstExternal;
///
/// let t = AsyncBstExternal::new();
/// assert!(t.insert(7, 70));
/// assert_eq!(t.remove(7), Some(70));
/// ```
pub struct AsyncBstExternal {
    root: *mut ENode,
}

// SAFETY: as for the internal variant.
unsafe impl Send for AsyncBstExternal {}
// SAFETY: see above.
unsafe impl Sync for AsyncBstExternal {}

impl AsyncBstExternal {
    /// Creates an empty tree (router root with two sentinel leaves).
    pub fn new() -> Self {
        let root = new_enode(u64::MAX, 0);
        let min_leaf = new_enode(0, 0);
        let max_leaf = new_enode(u64::MAX, 0);
        // SAFETY: freshly allocated nodes.
        unsafe {
            (*root).left.store(min_leaf, Ordering::Relaxed);
            (*root).right.store(max_leaf, Ordering::Relaxed);
        }
        Self { root }
    }

    /// Descends to the leaf for `key`, returning (grandparent, parent, leaf,
    /// parent-went-left, grandparent-went-left).
    fn parse(&self, key: u64) -> (*mut ENode, *mut ENode, *mut ENode, bool, bool) {
        let mut traversed = 0u64;
        // SAFETY: nodes live for the structure's lifetime.
        unsafe {
            let mut gp = std::ptr::null_mut();
            let mut gp_left = false;
            let mut p = self.root;
            let mut p_left = true;
            let mut curr = (*p).left.load(Ordering::Relaxed);
            while !(*curr).left.load(Ordering::Relaxed).is_null() {
                traversed += 1;
                gp = p;
                gp_left = p_left;
                p = curr;
                p_left = key < (*curr).key;
                curr = if p_left {
                    (*curr).left.load(Ordering::Relaxed)
                } else {
                    (*curr).right.load(Ordering::Relaxed)
                };
            }
            stats::record_traversal(traversed);
            (gp, p, curr, p_left, gp_left)
        }
    }
}

impl ConcurrentMap for AsyncBstExternal {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        let (_, _, leaf, _, _) = self.parse(key);
        // SAFETY: leaf is alive.
        unsafe {
            if (*leaf).key == key {
                Some((*leaf).value.load(Ordering::Relaxed))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        stats::record_operation();
        let (_, p, leaf, p_left, _) = self.parse(key);
        // SAFETY: sequential algorithm over never-reclaimed nodes.
        unsafe {
            if (*leaf).key == key {
                return false;
            }
            let new_leaf = new_enode(key, value);
            let router_key = key.max((*leaf).key);
            let router = new_enode(router_key, 0);
            if key < (*leaf).key {
                (*router).left.store(new_leaf, Ordering::Relaxed);
                (*router).right.store(leaf, Ordering::Relaxed);
            } else {
                (*router).left.store(leaf, Ordering::Relaxed);
                (*router).right.store(new_leaf, Ordering::Relaxed);
            }
            if p_left {
                (*p).left.store(router, Ordering::Relaxed);
            } else {
                (*p).right.store(router, Ordering::Relaxed);
            }
            stats::record_store();
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        let (gp, p, leaf, p_left, gp_left) = self.parse(key);
        // SAFETY: sequential algorithm; removed nodes are leaked (GC
        // disabled).
        unsafe {
            if (*leaf).key != key {
                return None;
            }
            let value = (*leaf).value.load(Ordering::Relaxed);
            let sibling = if p_left {
                (*p).right.load(Ordering::Relaxed)
            } else {
                (*p).left.load(Ordering::Relaxed)
            };
            // A successful removal always has a real grandparent: real leaves
            // hang below at least one router created by an insert.
            let gp = if gp.is_null() { self.root } else { gp };
            if gp_left {
                (*gp).left.store(sibling, Ordering::Relaxed);
            } else {
                (*gp).right.store(sibling, Ordering::Relaxed);
            }
            stats::record_store();
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        let mut stack = Vec::new();
        // SAFETY: nodes live for the structure's lifetime.
        unsafe {
            stack.push(self.root);
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Relaxed);
                let r = (*n).right.load(Ordering::Relaxed);
                if l.is_null() {
                    // A leaf: count it unless it is a sentinel.
                    let k = (*n).key;
                    if k != 0 && k != u64::MAX {
                        count += 1;
                    }
                } else {
                    stack.push(l);
                    stack.push(r);
                }
            }
        }
        count
    }
}

impl TreeNode for ENode {
    fn tree_key(&self) -> u64 {
        self.key
    }

    fn tree_value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn tree_children(&self) -> (*mut Self, *mut Self) {
        (self.left.load(Ordering::Relaxed), self.right.load(Ordering::Relaxed))
    }
}

impl OrderedMap for AsyncBstExternal {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        // SAFETY: nodes are never reclaimed while the structure is alive
        // (GC disabled for asynchronized baselines).
        unsafe { walk_tree(self.root, lo, visit) }
    }
}

impl Default for AsyncBstExternal {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncBstExternal {
    fn drop(&mut self) {
        // SAFETY: exclusive access.
        unsafe {
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Relaxed);
                let r = (*n).right.load(Ordering::Relaxed);
                if !l.is_null() {
                    stack.push(l);
                    stack.push(r);
                }
                ssmem::dealloc_immediate(n);
            }
        }
    }
}

impl std::fmt::Debug for AsyncBstExternal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncBstExternal").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_basic_semantics() {
        let t = AsyncBstInternal::new();
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert!(t.insert(k, k));
        }
        assert!(!t.insert(40, 0));
        assert_eq!(t.size(), 7);
        assert_eq!(t.search(60), Some(60));
        // Remove a node with two children (the root of a subtree).
        assert_eq!(t.remove(30), Some(30));
        assert_eq!(t.search(30), None);
        assert_eq!(t.search(20), Some(20));
        assert_eq!(t.search(40), Some(40));
        assert_eq!(t.size(), 6);
        // Remove the root.
        assert_eq!(t.remove(50), Some(50));
        assert_eq!(t.size(), 5);
        for k in [20u64, 40, 60, 70, 80] {
            assert_eq!(t.search(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn external_basic_semantics() {
        let t = AsyncBstExternal::new();
        for k in [5u64, 3, 8, 1, 4, 7, 9] {
            assert!(t.insert(k, k * 10));
        }
        assert!(!t.insert(8, 0));
        assert_eq!(t.size(), 7);
        for k in [5u64, 3, 8, 1, 4, 7, 9] {
            assert_eq!(t.search(k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.search(4), Some(40));
        assert_eq!(t.size(), 6);
    }
}
