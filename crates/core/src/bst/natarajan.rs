//! The Natarajan–Mittal lock-free external BST (PPoPP 2014), the
//! best-performing BST in the paper's evaluation.
//!
//! The distinguishing idea is to mark **edges instead of nodes**: a deletion
//! first *flags* the edge leading to the victim leaf (one CAS — the
//! linearization point), then *tags* the edge to the sibling so the parent
//! can no longer change, and finally swings the grandparent edge to the
//! sibling (one more CAS). Successful updates therefore need roughly two
//! atomic operations — the ASCY4 property the paper highlights (§5,
//! Figure 7) — and searches are plain traversals that ignore the bits
//! entirely (ASCY1). Threads help only when they actually conflict with a
//! pending deletion (their own CAS fails on a flagged/tagged edge).
//!
//! This implementation keeps the flag/tag edge protocol but tracks the
//! concrete grandparent instead of Natarajan's ancestor/successor pair: when
//! the grandparent edge changes under a cleanup, the operation simply
//! re-seeks.

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::marked::{tag, MarkedPtr};
use crate::ordered::{ascending, OrderedMap};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    /// Null for leaves. The two tag bits carry FLAG (edge to a leaf being
    /// deleted) and MARK ("tag": the edge may no longer change).
    left: MarkedPtr<Node>,
    right: MarkedPtr<Node>,
}

/// Edge-state bits (on top of [`crate::marked::tag`]).
const FLAG: usize = tag::FLAG;
const TAG: usize = tag::MARK;

fn new_leaf(key: u64, value: u64) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        left: MarkedPtr::null(),
        right: MarkedPtr::null(),
    })
}

fn new_router(key: u64, left: *mut Node, right: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(0),
        left: MarkedPtr::new(left, tag::CLEAN),
        right: MarkedPtr::new(right, tag::CLEAN),
    })
}

/// Which child edge of a router leads towards `key`.
#[inline]
fn edge_for(node: &Node, key: u64) -> &MarkedPtr<Node> {
    if key < node.key {
        &node.left
    } else {
        &node.right
    }
}


/// Seek record: grandparent, parent and leaf for a key.
struct Seek {
    gp: *mut Node,
    p: *mut Node,
    l: *mut Node,
}

/// The Natarajan–Mittal lock-free external BST.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::bst::NatarajanBst;
///
/// let t = NatarajanBst::new();
/// assert!(t.insert(33, 330));
/// assert_eq!(t.search(33), Some(330));
/// assert_eq!(t.remove(33), Some(330));
/// ```
pub struct NatarajanBst {
    root: *mut Node,
}

// SAFETY: all shared fields are atomics; structural changes go through the
// edge flag/tag protocol, and a parent/leaf pair is retired only by the
// thread whose grandparent-swing CAS unlinked it, while traversals hold
// SSMEM guards.
unsafe impl Send for NatarajanBst {}
// SAFETY: see above.
unsafe impl Sync for NatarajanBst {}

impl NatarajanBst {
    /// Creates an empty tree.
    pub fn new() -> Self {
        // root(MAX) -> {leaf(0), leaf(MAX)}: the key-0 sentinel stays the
        // leftmost leaf forever, so a real leaf can never become a direct
        // child of the root and every removable leaf has a grandparent.
        let min_leaf = new_leaf(0, 0);
        let max_leaf = new_leaf(u64::MAX, 0);
        let root = new_router(u64::MAX, min_leaf, max_leaf);
        Self { root }
    }

    #[inline]
    fn is_leaf(node: *mut Node) -> bool {
        // SAFETY: caller guarantees the node is guarded.
        unsafe { (*node).left.load(Ordering::Acquire).0.is_null() }
    }

    /// Descends to the leaf for `key`. Plain traversal; flags/tags are
    /// ignored (stripped by the marked-pointer load).
    ///
    /// Caller must hold an SSMEM guard.
    fn seek(&self, key: u64) -> Seek {
        let mut traversed = 0u64;
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut gp = std::ptr::null_mut();
            let mut p = self.root;
            let mut l = (*p).left.load(Ordering::Acquire).0;
            while !Self::is_leaf(l) {
                traversed += 1;
                gp = p;
                p = l;
                l = edge_for(&*p, key).load(Ordering::Acquire).0;
            }
            stats::record_traversal(traversed);
            Seek { gp, p, l }
        }
    }

    /// Completes a pending deletion at `p` (one of whose edges is flagged),
    /// swinging `gp`'s edge from `p` to the surviving child. Returns `true`
    /// if this thread performed the swing (and therefore retired the
    /// victim pair).
    ///
    /// # Safety
    ///
    /// `gp` and `p` must be guarded; `gp` must have been observed as `p`'s
    /// parent.
    unsafe fn help_cleanup(&self, gp: *mut Node, p: *mut Node) -> bool {
        // SAFETY: per contract.
        unsafe {
            let (lptr, ltag) = (*p).left.load(Ordering::Acquire);
            let (rptr, rtag) = (*p).right.load(Ordering::Acquire);
            // Identify the flagged (victim) edge.
            let (victim, victim_edge_is_left) = if ltag & FLAG != 0 {
                (lptr, true)
            } else if rtag & FLAG != 0 {
                (rptr, false)
            } else {
                // Nothing to clean (the deletion already completed).
                return false;
            };
            // Tag the sibling edge so it can no longer change.
            let sibling_edge = if victim_edge_is_left { &(*p).right } else { &(*p).left };
            loop {
                let (sp, st) = sibling_edge.load(Ordering::Acquire);
                if st & TAG != 0 {
                    break;
                }
                let ok = sibling_edge
                    .compare_exchange(sp, st, sp, st | TAG, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    break;
                }
            }
            // Read the (now frozen) sibling edge and swing the grandparent
            // edge, preserving a FLAG that may sit on the sibling edge (it
            // belongs to a pending deletion of the sibling leaf).
            let (sibling, stag) = sibling_edge.load(Ordering::Acquire);
            let gp_edge = if (*p).key < (*gp).key { &(*gp).left } else { &(*gp).right };
            let ok = gp_edge
                .compare_exchange(
                    p,
                    tag::CLEAN,
                    sibling,
                    stag & FLAG,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok();
            stats::record_atomic(ok);
            if ok {
                // p and the victim leaf are now unreachable.
                ssmem::retire(p);
                ssmem::retire(victim);
            }
            ok
        }
    }
}

impl ConcurrentMap for NatarajanBst {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        stats::record_operation();
        let mut traversed = 0u64;
        // SAFETY: the guard protects the traversal; searches perform no
        // stores and never help (ASCY1).
        unsafe {
            let mut l = (*self.root).left.load(Ordering::Acquire).0;
            while !Self::is_leaf(l) {
                traversed += 1;
                l = edge_for(&*l, key).load(Ordering::Acquire).0;
            }
            stats::record_traversal(traversed);
            if (*l).key == key {
                Some((*l).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let mut new_leaf_ptr: *mut Node = std::ptr::null_mut();
        let mut router_ptr: *mut Node = std::ptr::null_mut();
        loop {
            let s = self.seek(key);
            // SAFETY: guard protects the seek record; new nodes are fully
            // initialized before the publishing CAS.
            unsafe {
                if (*s.l).key == key {
                    // ASCY3: read-only failure.
                    if !new_leaf_ptr.is_null() {
                        ssmem::dealloc_immediate(new_leaf_ptr);
                        ssmem::dealloc_immediate(router_ptr);
                    }
                    stats::record_operation();
                    return false;
                }
                if new_leaf_ptr.is_null() {
                    new_leaf_ptr = new_leaf(key, value);
                    router_ptr = new_router(0, std::ptr::null_mut(), std::ptr::null_mut());
                }
                // (Re)wire the router for the current leaf.
                let router_key = key.max((*s.l).key);
                let router = &mut *router_ptr;
                router.key = router_key;
                // Relaxed: the router subtree is private until the edge CAS
                // below publishes it.
                if key < (*s.l).key {
                    router.left.store(new_leaf_ptr, tag::CLEAN, Ordering::Relaxed);
                    router.right.store(s.l, tag::CLEAN, Ordering::Relaxed);
                } else {
                    router.left.store(s.l, tag::CLEAN, Ordering::Relaxed);
                    router.right.store(new_leaf_ptr, tag::CLEAN, Ordering::Relaxed);
                }
                let edge = edge_for(&*s.p, key);
                let ok = edge
                    .compare_exchange(
                        s.l,
                        tag::CLEAN,
                        router_ptr,
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
                // The edge changed: if it carries a flag or tag, help the
                // pending deletion at the parent before retrying.
                let (_, t) = edge.load(Ordering::Acquire);
                if t != tag::CLEAN && !s.gp.is_null() {
                    self.help_cleanup(s.gp, s.p);
                }
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        // Injection phase: flag the edge to the victim leaf.
        let (victim, value) = loop {
            let s = self.seek(key);
            // SAFETY: guard protects the seek record.
            unsafe {
                if (*s.l).key != key {
                    // ASCY3: read-only failure.
                    stats::record_operation();
                    return None;
                }
                let value = (*s.l).value.load(Ordering::Acquire);
                let edge = edge_for(&*s.p, key);
                let ok = edge
                    .compare_exchange(
                        s.l,
                        tag::CLEAN,
                        s.l,
                        FLAG,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    // Linearization point: the leaf is logically deleted.
                    // Cleanup phase below.
                    if s.gp.is_null() {
                        // Cannot happen for real keys (the key-0 sentinel
                        // keeps real leaves below depth 1), but be defensive.
                        stats::record_operation();
                        return Some(value);
                    }
                    self.help_cleanup(s.gp, s.p);
                    break ((s.l, s.p), value);
                }
                // Failed to flag: either the leaf changed or a deletion is
                // pending on this parent; help and retry.
                let (nl, t) = edge.load(Ordering::Acquire);
                if t != tag::CLEAN && !s.gp.is_null() {
                    self.help_cleanup(s.gp, s.p);
                } else if nl == s.l && t == tag::CLEAN {
                    // Spurious failure; retry.
                }
                stats::record_restart();
            }
        };
        // Cleanup phase: make sure the flagged leaf is physically removed
        // before returning (either by us in help_cleanup above or by a
        // helper).
        let (leaf, _parent_at_flag) = victim;
        loop {
            let s = self.seek(key);
            if s.l != leaf {
                // The leaf is no longer reachable: some thread completed the
                // cleanup (and retired the pair).
                break;
            }
            // SAFETY: guard protects the seek record.
            unsafe {
                if s.gp.is_null() {
                    break;
                }
                self.help_cleanup(s.gp, s.p);
            }
            stats::record_restart();
        }
        stats::record_operation();
        Some(value)
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        let mut stack = Vec::new();
        // SAFETY: guard protects the traversal.
        unsafe {
            stack.push(self.root);
            while let Some(n) = stack.pop() {
                if Self::is_leaf(n) {
                    let k = (*n).key;
                    if k != 0 && k != u64::MAX {
                        count += 1;
                    }
                } else {
                    // Skip subtrees hanging off flagged edges? No: a flagged
                    // leaf is still logically... it was logically deleted at
                    // flag time, so do not count leaves behind flagged edges.
                    let (l, lt) = (*n).left.load(Ordering::Acquire);
                    let (r, rt) = (*n).right.load(Ordering::Acquire);
                    if lt & FLAG == 0 || !Self::is_leaf(l) {
                        stack.push(l);
                    }
                    if rt & FLAG == 0 || !Self::is_leaf(r) {
                        stack.push(r);
                    }
                }
            }
        }
        count
    }
}

impl OrderedMap for NatarajanBst {
    /// In-order leaf walk with the same liveness rule as `size`: a leaf
    /// hanging off a *flagged* edge was logically deleted at flag time, so
    /// its subtree is pruned. Store-free, like the point search; the shared
    /// tree walker is not reused here because liveness lives on the edges,
    /// not the nodes.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        let mut traversed = 0u64;
        let mut visit = ascending(lo, visit);
        let mut pending: Vec<*mut Node> = Vec::new();
        let mut curr = self.root;
        // SAFETY: the guard protects every traversed node.
        unsafe {
            'walk: loop {
                // Descend towards the leftmost in-range leaf, stacking the
                // right subtrees; skip subtrees behind flagged leaf edges.
                loop {
                    traversed += 1;
                    if Self::is_leaf(curr) {
                        let key = (*curr).key;
                        if key >= lo
                            && key != 0
                            && key != u64::MAX
                            && !visit(key, (*curr).value.load(Ordering::Acquire))
                        {
                            break 'walk;
                        }
                        break;
                    }
                    let (left, lt) = (*curr).left.load(Ordering::Acquire);
                    let (right, rt) = (*curr).right.load(Ordering::Acquire);
                    let left_dead = lt & FLAG != 0 && Self::is_leaf(left);
                    let right_dead = rt & FLAG != 0 && Self::is_leaf(right);
                    if lo < (*curr).key {
                        if !right_dead {
                            pending.push(right);
                        }
                        if left_dead {
                            break;
                        }
                        curr = left;
                    } else {
                        // The whole left subtree is < curr.key <= lo.
                        if right_dead {
                            break;
                        }
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
}

impl Default for NatarajanBst {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for NatarajanBst {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; every reachable node freed once.
        unsafe {
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Relaxed).0;
                let r = (*n).right.load(Ordering::Relaxed).0;
                if !l.is_null() {
                    stack.push(l);
                    stack.push(r);
                }
                ssmem::dealloc_immediate(n);
            }
        }
    }
}

impl std::fmt::Debug for NatarajanBst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NatarajanBst").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let t = NatarajanBst::new();
        for k in [16u64, 8, 24, 4, 12, 20, 28] {
            assert!(t.insert(k, k + 100));
        }
        assert!(!t.insert(12, 0));
        assert_eq!(t.size(), 7);
        for k in [16u64, 8, 24, 4, 12, 20, 28] {
            assert_eq!(t.search(k), Some(k + 100), "key {k}");
        }
        assert_eq!(t.remove(8), Some(108));
        assert_eq!(t.remove(8), None);
        assert_eq!(t.search(4), Some(104));
        assert_eq!(t.search(12), Some(112));
        assert_eq!(t.size(), 6);
    }

    #[test]
    fn drain_and_refill() {
        let t = NatarajanBst::new();
        for round in 0..3u64 {
            for k in 1..=128u64 {
                assert!(t.insert(k, k * 3 + round), "round {round} insert {k}");
            }
            assert_eq!(t.size(), 128);
            for k in 1..=128u64 {
                assert_eq!(t.remove(k), Some(k * 3 + round), "round {round} remove {k}");
            }
            assert_eq!(t.size(), 0);
        }
    }
}
