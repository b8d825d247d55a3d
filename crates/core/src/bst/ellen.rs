//! The lock-free external BST of Ellen, Fatourou, Ruppert and van Breugel
//! (PODC 2010).
//!
//! Every internal node carries an `update` word: a pointer to an *Info*
//! record plus a 2-bit state (`CLEAN`, `IFLAG`, `DFLAG`, `MARK`). An update
//! first *flags* the internal node(s) it is about to modify by installing an
//! Info record describing the operation; any thread that encounters a
//! non-`CLEAN` update word **helps** complete the described operation before
//! proceeding. This helping is precisely the extra synchronization the paper
//! calls out when comparing `ellen` against ASCY4-style designs
//! (§5/Figure 7: more than three atomic operations per update versus two for
//! `natarajan` and BST-TK).

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::marked::MarkedPtr;
use crate::ordered::{walk_tree, OrderedMap, TreeNode};
use crate::stats;

/// `update`-word states.
mod state {
    pub const CLEAN: usize = 0;
    pub const IFLAG: usize = 1;
    pub const DFLAG: usize = 2;
    pub const MARK: usize = 3;
}

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    update: MarkedPtr<Info>,
    /// Null for leaves.
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

/// Operation descriptor; one layout serves both insertions (`IInfo`) and
/// deletions (`DInfo`).
#[repr(C)]
struct Info {
    gp: *mut Node,
    p: *mut Node,
    l: *mut Node,
    new_internal: *mut Node,
    pupdate_ptr: *mut Info,
    pupdate_state: usize,
}

fn new_leaf(key: u64, value: u64) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        update: MarkedPtr::null(),
        left: AtomicPtr::new(std::ptr::null_mut()),
        right: AtomicPtr::new(std::ptr::null_mut()),
    })
}

fn new_internal(key: u64, left: *mut Node, right: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(0),
        update: MarkedPtr::null(),
        left: AtomicPtr::new(left),
        right: AtomicPtr::new(right),
    })
}

/// Result of the seek phase.
struct Seek {
    gp: *mut Node,
    p: *mut Node,
    l: *mut Node,
    gpupdate: (*mut Info, usize),
    pupdate: (*mut Info, usize),
}

/// The Ellen et al. lock-free external BST.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::bst::EllenBst;
///
/// let t = EllenBst::new();
/// assert!(t.insert(14, 140));
/// assert_eq!(t.remove(14), Some(140));
/// ```
pub struct EllenBst {
    root: *mut Node,
}

// SAFETY: all shared node fields are atomics; structural changes go through
// the flag/mark/help protocol; unlinked nodes and superseded Info records are
// retired through SSMEM while readers hold guards.
unsafe impl Send for EllenBst {}
// SAFETY: see above.
unsafe impl Sync for EllenBst {}

impl EllenBst {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let min_leaf = new_leaf(0, 0);
        let max_leaf = new_leaf(u64::MAX, 0);
        let root = new_internal(u64::MAX, min_leaf, max_leaf);
        Self { root }
    }

    #[inline]
    fn is_leaf(node: *mut Node) -> bool {
        // SAFETY: caller guarantees the node is protected by a guard.
        unsafe { (*node).left.load(Ordering::Acquire).is_null() }
    }

    /// Seek phase: descends to the leaf for `key`, reading each internal
    /// node's `update` word *before* its child pointer (the order the
    /// algorithm's correctness argument relies on).
    ///
    /// Caller must hold an SSMEM guard.
    fn seek(&self, key: u64) -> Seek {
        let mut traversed = 0u64;
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut gp = std::ptr::null_mut();
            let mut gpupdate = (std::ptr::null_mut(), state::CLEAN);
            let mut p = self.root;
            let mut pupdate = (*p).update.load(Ordering::Acquire);
            let mut l = (*p).left.load(Ordering::Acquire);
            while !Self::is_leaf(l) {
                traversed += 1;
                gp = p;
                gpupdate = pupdate;
                p = l;
                pupdate = (*p).update.load(Ordering::Acquire);
                l = if key < (*p).key {
                    (*p).left.load(Ordering::Acquire)
                } else {
                    (*p).right.load(Ordering::Acquire)
                };
            }
            stats::record_traversal(traversed);
            Seek { gp, p, l, gpupdate, pupdate }
        }
    }

    /// CAS one of `parent`'s child pointers from `old` to `new`, choosing the
    /// side by key comparison.
    ///
    /// # Safety
    ///
    /// All pointers must be protected by the current guard.
    unsafe fn cas_child(parent: *mut Node, old: *mut Node, new: *mut Node) -> bool {
        // SAFETY: per contract. The side is determined by where `old`
        // currently sits: `old.key < parent.key` iff it is the left child
        // (external-tree routing invariant).
        unsafe {
            let side = if (*old).key < (*parent).key {
                &(*parent).left
            } else {
                &(*parent).right
            };
            let ok = side
                .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            stats::record_atomic(ok);
            ok
        }
    }

    /// CAS a node's update word; on success, retires the Info record it
    /// replaced (if it was a different record).
    ///
    /// # Safety
    ///
    /// `node` must be protected by the current guard; `new_ptr` must be a
    /// fully initialized Info record (or the same record as `old_ptr`).
    unsafe fn cas_update(
        node: *mut Node,
        old_ptr: *mut Info,
        old_state: usize,
        new_ptr: *mut Info,
        new_state: usize,
    ) -> bool {
        // SAFETY: per contract; a superseded Info record is unreachable from
        // any node's update word once replaced, so retiring it is safe.
        unsafe {
            let ok = (*node)
                .update
                .compare_exchange(old_ptr, old_state, new_ptr, new_state, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            stats::record_atomic(ok);
            if ok && !old_ptr.is_null() && old_ptr != new_ptr {
                ssmem::retire(old_ptr);
            }
            ok
        }
    }

    /// Helps whatever operation is described by `(info, state)`.
    ///
    /// # Safety
    ///
    /// Caller must hold a guard; the pair must have been read from a node's
    /// update word under that guard.
    unsafe fn help(&self, info: *mut Info, st: usize) {
        if info.is_null() {
            return;
        }
        // SAFETY: per contract.
        unsafe {
            match st {
                state::IFLAG => self.help_insert(info),
                state::MARK => self.help_marked(info),
                state::DFLAG => {
                    let _ = self.help_delete(info);
                }
                _ => {}
            }
        }
    }

    /// Completes an insertion described by `info` (IFLAG on `info.p`).
    ///
    /// # Safety
    ///
    /// Caller must hold a guard.
    unsafe fn help_insert(&self, info: *mut Info) {
        // SAFETY: per contract; the Info record keeps its nodes reachable for
        // helpers, and all of them are guarded.
        unsafe {
            let op = &*info;
            Self::cas_child(op.p, op.l, op.new_internal);
            Self::cas_update(op.p, info, state::IFLAG, info, state::CLEAN);
        }
    }

    /// Tries to complete a deletion described by `info` (DFLAG on `info.gp`).
    /// Returns `false` if the deletion had to back off (the parent could not
    /// be marked).
    ///
    /// # Safety
    ///
    /// Caller must hold a guard.
    unsafe fn help_delete(&self, info: *mut Info) -> bool {
        // SAFETY: per contract.
        unsafe {
            let op = &*info;
            let marked = Self::cas_update(op.p, op.pupdate_ptr, op.pupdate_state, info, state::MARK);
            let (cur_ptr, cur_state) = (*op.p).update.load(Ordering::Acquire);
            if marked || (cur_ptr == info && cur_state == state::MARK) {
                self.help_marked(info);
                true
            } else {
                // Help whatever got in the way, then back off the DFLAG.
                self.help(cur_ptr, cur_state);
                Self::cas_update(op.gp, info, state::DFLAG, info, state::CLEAN);
                false
            }
        }
    }

    /// Physically removes the parent/leaf pair of a marked deletion.
    ///
    /// # Safety
    ///
    /// Caller must hold a guard.
    unsafe fn help_marked(&self, info: *mut Info) {
        // SAFETY: per contract; only the thread whose child CAS succeeds
        // retires the unlinked pair.
        unsafe {
            let op = &*info;
            let right = (*op.p).right.load(Ordering::Acquire);
            let other = if right == op.l {
                (*op.p).left.load(Ordering::Acquire)
            } else {
                right
            };
            if Self::cas_child(op.gp, op.p, other) {
                ssmem::retire(op.p);
                ssmem::retire(op.l);
            }
            Self::cas_update(op.gp, info, state::DFLAG, info, state::CLEAN);
        }
    }
}

impl ConcurrentMap for EllenBst {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        stats::record_operation();
        let mut traversed = 0u64;
        // SAFETY: the guard protects the traversal; searches never help
        // (they are oblivious to update words).
        unsafe {
            let mut l = (*self.root).left.load(Ordering::Acquire);
            while !Self::is_leaf(l) {
                traversed += 1;
                l = if key < (*l).key {
                    (*l).left.load(Ordering::Acquire)
                } else {
                    (*l).right.load(Ordering::Acquire)
                };
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
        loop {
            let s = self.seek(key);
            // SAFETY: guard protects all nodes reached by seek; new nodes and
            // the Info record are fully initialized before being published.
            unsafe {
                if (*s.l).key == key {
                    stats::record_operation();
                    return false;
                }
                if s.pupdate.1 != state::CLEAN {
                    self.help(s.pupdate.0, s.pupdate.1);
                    stats::record_restart();
                    continue;
                }
                let leaf = new_leaf(key, value);
                let router_key = key.max((*s.l).key);
                let internal = if key < (*s.l).key {
                    new_internal(router_key, leaf, s.l)
                } else {
                    new_internal(router_key, s.l, leaf)
                };
                let op = ssmem::alloc(Info {
                    gp: std::ptr::null_mut(),
                    p: s.p,
                    l: s.l,
                    new_internal: internal,
                    pupdate_ptr: std::ptr::null_mut(),
                    pupdate_state: state::CLEAN,
                });
                if Self::cas_update(s.p, s.pupdate.0, s.pupdate.1, op, state::IFLAG) {
                    self.help_insert(op);
                    stats::record_operation();
                    return true;
                }
                // Lost the race: free the unpublished nodes and help.
                ssmem::dealloc_immediate(op);
                ssmem::dealloc_immediate(internal);
                ssmem::dealloc_immediate(leaf);
                let (cur_ptr, cur_state) = (*s.p).update.load(Ordering::Acquire);
                self.help(cur_ptr, cur_state);
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let s = self.seek(key);
            // SAFETY: guard protects all nodes reached by seek.
            unsafe {
                if (*s.l).key != key {
                    stats::record_operation();
                    return None;
                }
                if s.gpupdate.1 != state::CLEAN {
                    self.help(s.gpupdate.0, s.gpupdate.1);
                    stats::record_restart();
                    continue;
                }
                if s.pupdate.1 != state::CLEAN {
                    self.help(s.pupdate.0, s.pupdate.1);
                    stats::record_restart();
                    continue;
                }
                let value = (*s.l).value.load(Ordering::Acquire);
                let op = ssmem::alloc(Info {
                    gp: s.gp,
                    p: s.p,
                    l: s.l,
                    new_internal: std::ptr::null_mut(),
                    pupdate_ptr: s.pupdate.0,
                    pupdate_state: s.pupdate.1,
                });
                if Self::cas_update(s.gp, s.gpupdate.0, s.gpupdate.1, op, state::DFLAG) {
                    if self.help_delete(op) {
                        stats::record_operation();
                        return Some(value);
                    }
                    stats::record_restart();
                } else {
                    ssmem::dealloc_immediate(op);
                    let (cur_ptr, cur_state) = (*s.gp).update.load(Ordering::Acquire);
                    self.help(cur_ptr, cur_state);
                    stats::record_restart();
                }
            }
        }
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
                    stack.push((*n).left.load(Ordering::Acquire));
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

impl OrderedMap for EllenBst {
    /// In-order leaf walk that, like `search`, ignores the `update` words
    /// entirely: a leaf is present until the deletion's child-CAS unlinks
    /// it, which is within the scan-semantics tolerance.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every traversed node.
        unsafe { walk_tree(self.root, lo, visit) }
    }
}

impl Default for EllenBst {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EllenBst {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; free every reachable node and its Info
        // record (each record is referenced by at most one reachable node's
        // update word at this point — superseded records were retired when
        // replaced, and the p-side MARK reference always belongs to an
        // already-unlinked node).
        unsafe {
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                let l = (*n).left.load(Ordering::Relaxed);
                let r = (*n).right.load(Ordering::Relaxed);
                if !l.is_null() {
                    stack.push(l);
                    stack.push(r);
                }
                let (info, _) = (*n).update.load(Ordering::Relaxed);
                if !info.is_null() {
                    ssmem::dealloc_immediate(info);
                }
                ssmem::dealloc_immediate(n);
            }
        }
    }
}

impl std::fmt::Debug for EllenBst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EllenBst").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let t = EllenBst::new();
        for k in [8u64, 3, 10, 1, 6, 14, 4, 7, 13] {
            assert!(t.insert(k, k * 2));
        }
        assert!(!t.insert(6, 0));
        assert_eq!(t.size(), 9);
        for k in [8u64, 3, 10, 1, 6, 14, 4, 7, 13] {
            assert_eq!(t.search(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.remove(3), Some(6));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.search(1), Some(2));
        assert_eq!(t.search(4), Some(8));
        assert_eq!(t.size(), 8);
    }

    #[test]
    fn drain_and_refill() {
        let t = EllenBst::new();
        for round in 0..3u64 {
            for k in 1..=100u64 {
                assert!(t.insert(k, k + round), "round {round} insert {k}");
            }
            for k in (1..=100u64).rev() {
                assert_eq!(t.remove(k), Some(k + round), "round {round} remove {k}");
            }
            assert_eq!(t.size(), 0);
        }
    }
}
