//! Lock-based skip lists: Herlihy et al.'s optimistic skip list and Pugh's
//! skip list.
//!
//! Both algorithms parse the multi-level list without any store (ASCY1/2)
//! and only lock for the modification phase; both follow ASCY3 (a parse that
//! shows the update cannot succeed returns without locking). They differ in
//! *how* the modification phase locks:
//!
//! * [`HerlihySkipList`] locks the predecessors at **all** levels of the
//!   tower, validates them, and performs the whole update at once
//!   (Herlihy, Lev, Luchangco, Shavit — "A simple optimistic skiplist
//!   algorithm").
//! * [`PughSkipList`] locks **one level at a time**, linking/unlinking the
//!   node level by level (Pugh — "Concurrent Maintenance of Skip Lists").

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::TtasLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{walk_chain, ChainNode, OrderedMap};
use crate::skiplist::{
    alloc_node, assert_node_bytes, free_node, link, random_level, retire_node, Tower, MAX_LEVEL,
};
use crate::stats;

/// The node header; the tower's upper links follow it in the same
/// allocation (see [`crate::skiplist`]'s layout helper).
#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    toplevel: usize,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    lock: TtasLock,
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

// The two flags and the one-byte lock pad to one word before `next0`: a
// 40-byte header with `next0` at offset 32, `32 + 8·h` bytes per node.
const _: () = assert_node_bytes::<Node>(32);

fn new_node(key: u64, value: u64, toplevel: usize) -> *mut Node {
    alloc_node(Node {
        key,
        value: AtomicU64::new(value),
        toplevel,
        marked: AtomicBool::new(false),
        fully_linked: AtomicBool::new(false),
        lock: TtasLock::new(),
        next0: AtomicPtr::new(std::ptr::null_mut()),
    })
}

/// Shared skeleton of the two lock-based skip lists.
struct SkipListBase {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared node state is atomic, updates are serialized by per-node
// locks, and removed nodes are retired through SSMEM (readers hold guards).
unsafe impl Send for SkipListBase {}
// SAFETY: see above.
unsafe impl Sync for SkipListBase {}

impl SkipListBase {
    fn new() -> Self {
        let tail = new_node(u64::MAX, 0, MAX_LEVEL);
        let head = new_node(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated sentinels.
        // Relaxed: the list is private until the constructor returns; handing
        // `Self` to another thread synchronizes.
        unsafe {
            for level in 0..MAX_LEVEL {
                link(head, level).store(tail, Ordering::Relaxed);
            }
            (*head).fully_linked.store(true, Ordering::Relaxed);
            (*tail).fully_linked.store(true, Ordering::Relaxed);
        }
        Self { head, tail }
    }

    /// Optimistic descent recording predecessors and successors at every
    /// level; returns the highest level at which the key was found.
    ///
    /// Caller must hold an SSMEM guard.
    fn find(
        &self,
        key: u64,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> Option<usize> {
        let mut found = None;
        let mut traversed = 0u64;
        // SAFETY: the guard protects every traversed node from reclamation.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Acquire);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire);
                    traversed += 1;
                }
                if found.is_none() && (*curr).key == key {
                    found = Some(level);
                }
                preds[level] = pred;
                succs[level] = curr;
            }
        }
        stats::record_traversal(traversed);
        found
    }

    /// Wait-free search shared by both algorithms (ASCY1).
    fn search(&self, key: u64) -> Option<u64> {
        let _guard = ssmem::protect();
        let mut traversed = 0u64;
        stats::record_operation();
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Acquire);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire);
                    traversed += 1;
                }
                if (*curr).key == key {
                    stats::record_traversal(traversed);
                    return if (*curr).fully_linked.load(Ordering::Acquire)
                        && !(*curr).marked.load(Ordering::Acquire)
                    {
                        Some((*curr).value.load(Ordering::Acquire))
                    } else {
                        None
                    };
                }
            }
        }
        stats::record_traversal(traversed);
        None
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = link(self.head, 0).load(Ordering::Acquire);
            while curr != self.tail {
                if !(*curr).marked.load(Ordering::Acquire)
                    && (*curr).fully_linked.load(Ordering::Acquire)
                {
                    count += 1;
                }
                curr = link(curr, 0).load(Ordering::Acquire);
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
        self.fully_linked.load(Ordering::Acquire) && !self.marked.load(Ordering::Acquire)
    }

    fn chain_next(&self) -> *mut Self {
        self.next0.load(Ordering::Acquire)
    }
}

impl SkipListBase {
    /// [`OrderedMap::walk`] for both lock-based algorithms, store-free like
    /// their search: the upper levels find the last node with key `< lo`,
    /// the level-0 lane is then walked like a list, skipping in-flight and
    /// marked towers.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Acquire);
                while (*curr).key < lo {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire);
                }
            }
            walk_chain(pred, lo, visit);
        }
    }
}

impl OrderedMap for HerlihySkipList {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        self.base.walk(lo, visit)
    }
}

impl OrderedMap for PughSkipList {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        self.base.walk(lo, visit)
    }
}

impl Drop for SkipListBase {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; free the level-0 chain.
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

// ---------------------------------------------------------------------------
// Herlihy et al. optimistic skip list
// ---------------------------------------------------------------------------

/// The Herlihy/Lev/Luchangco/Shavit optimistic skip list (lock-based).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::HerlihySkipList;
///
/// let sl = HerlihySkipList::new();
/// assert!(sl.insert(12, 120));
/// assert_eq!(sl.remove(12), Some(120));
/// ```
pub struct HerlihySkipList {
    base: SkipListBase,
}

impl HerlihySkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { base: SkipListBase::new() }
    }

    /// Unlocks the distinct predecessors locked so far (levels `0..=highest`).
    ///
    /// # Safety
    ///
    /// The caller must have locked exactly the distinct predecessors of
    /// levels `0..=highest` in `preds`.
    unsafe fn unlock_preds(preds: &[*mut Node; MAX_LEVEL], highest: usize) {
        let mut prev: *mut Node = std::ptr::null_mut();
        for (level, &pred) in preds.iter().enumerate().take(highest + 1) {
            let _ = level;
            if pred != prev {
                // SAFETY: per contract, this predecessor was locked by us.
                unsafe { (*pred).lock.unlock() };
            }
            prev = pred;
        }
    }

    /// Locks the distinct predecessors for levels `0..toplevel` and validates
    /// them. Returns the highest locked level on success, or `Err(highest)`
    /// if validation failed after locking up to `highest` (which may be
    /// `usize::MAX` if nothing was locked).
    ///
    /// # Safety
    ///
    /// `preds`/`succs` must come from `find` under the current guard.
    unsafe fn lock_and_validate(
        preds: &[*mut Node; MAX_LEVEL],
        succs: &[*mut Node; MAX_LEVEL],
        toplevel: usize,
    ) -> Result<usize, Option<usize>> {
        let mut highest: Option<usize> = None;
        let mut prev: *mut Node = std::ptr::null_mut();
        for level in 0..toplevel {
            let pred = preds[level];
            let succ = succs[level];
            // SAFETY: guard keeps pred/succ alive.
            unsafe {
                if pred != prev {
                    (*pred).lock.lock();
                    stats::record_lock();
                    highest = Some(level);
                    prev = pred;
                }
                let valid = !(*pred).marked.load(Ordering::Acquire)
                    && !(*succ).marked.load(Ordering::Acquire)
                    && link(pred, level).load(Ordering::Acquire) == succ;
                if !valid {
                    return Err(highest);
                }
            }
        }
        Ok(toplevel - 1)
    }
}

impl ConcurrentMap for HerlihySkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.base.search(key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let toplevel = random_level();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        loop {
            let found = self.base.find(key, &mut preds, &mut succs);
            // SAFETY: guard protects all nodes in preds/succs.
            unsafe {
                if let Some(level) = found {
                    let node = succs[level];
                    if !(*node).marked.load(Ordering::Acquire) {
                        // ASCY3: fail without storing (wait only for an
                        // in-flight linker, as the original does).
                        while !(*node).fully_linked.load(Ordering::Acquire) {
                            stats::record_wait();
                            std::hint::spin_loop();
                        }
                        stats::record_operation();
                        return false;
                    }
                    // Marked: it is being removed; retry.
                    stats::record_restart();
                    continue;
                }
                match Self::lock_and_validate(&preds, &succs, toplevel) {
                    Err(highest) => {
                        if let Some(h) = highest {
                            Self::unlock_preds(&preds, h);
                        }
                        stats::record_restart();
                        continue;
                    }
                    Ok(_) => {
                        let node = new_node(key, value, toplevel);
                        // Relaxed: the node is private until the Release
                        // stores below link it level by level.
                        for level in 0..toplevel {
                            link(node, level).store(succs[level], Ordering::Relaxed);
                        }
                        for level in 0..toplevel {
                            link(preds[level], level).store(node, Ordering::Release);
                            stats::record_store();
                        }
                        (*node).fully_linked.store(true, Ordering::Release);
                        stats::record_store();
                        Self::unlock_preds(&preds, toplevel - 1);
                        stats::record_operation();
                        return true;
                    }
                }
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let mut victim: *mut Node = std::ptr::null_mut();
        let mut is_marked = false;
        let mut toplevel = 0usize;
        loop {
            let found = self.base.find(key, &mut preds, &mut succs);
            // SAFETY: guard protects all nodes; the victim's lock and mark
            // serialize concurrent removers.
            unsafe {
                if !is_marked {
                    match found {
                        None => {
                            stats::record_operation();
                            return None;
                        }
                        Some(level) => {
                            let candidate = succs[level];
                            let deletable = (*candidate).fully_linked.load(Ordering::Acquire)
                                && (*candidate).toplevel == level + 1
                                && !(*candidate).marked.load(Ordering::Acquire);
                            if !deletable {
                                if (*candidate).marked.load(Ordering::Acquire) {
                                    // Already being removed by someone else.
                                    stats::record_operation();
                                    return None;
                                }
                                stats::record_restart();
                                continue;
                            }
                            victim = candidate;
                            toplevel = (*victim).toplevel;
                            (*victim).lock.lock();
                            stats::record_lock();
                            if (*victim).marked.load(Ordering::Acquire) {
                                (*victim).lock.unlock();
                                stats::record_operation();
                                return None;
                            }
                            (*victim).marked.store(true, Ordering::Release);
                            stats::record_store();
                            is_marked = true;
                        }
                    }
                }
                // Lock and validate the predecessors at every level.
                let mut valid = true;
                let mut highest: Option<usize> = None;
                let mut prev: *mut Node = std::ptr::null_mut();
                for level in 0..toplevel {
                    let pred = preds[level];
                    if pred != prev {
                        (*pred).lock.lock();
                        stats::record_lock();
                        highest = Some(level);
                        prev = pred;
                    }
                    if (*pred).marked.load(Ordering::Acquire)
                        || link(pred, level).load(Ordering::Acquire) != victim
                    {
                        valid = false;
                        break;
                    }
                }
                if !valid {
                    if let Some(h) = highest {
                        Self::unlock_preds(&preds, h);
                    }
                    stats::record_restart();
                    continue;
                }
                let value = (*victim).value.load(Ordering::Acquire);
                for level in (0..toplevel).rev() {
                    link(preds[level], level)
                        .store(link(victim, level).load(Ordering::Acquire), Ordering::Release);
                    stats::record_store();
                }
                (*victim).lock.unlock();
                Self::unlock_preds(&preds, toplevel - 1);
                retire_node(victim);
                stats::record_operation();
                return Some(value);
            }
        }
    }

    fn size(&self) -> usize {
        self.base.size()
    }
}

impl Default for HerlihySkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HerlihySkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HerlihySkipList").field("size", &self.size()).finish()
    }
}

// ---------------------------------------------------------------------------
// Pugh's skip list
// ---------------------------------------------------------------------------

/// Pugh's concurrent skip list (lock-based, per-level locking).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::PughSkipList;
///
/// let sl = PughSkipList::new();
/// assert!(sl.insert(8, 80));
/// assert_eq!(sl.search(8), Some(80));
/// ```
pub struct PughSkipList {
    base: SkipListBase,
}

impl PughSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { base: SkipListBase::new() }
    }

    /// Locks the predecessor of `key` at `level`, starting from the hint
    /// `start`, and returns `(pred, succ)` with `pred` locked and validated
    /// (`pred` unmarked and `pred.next[level] == succ` with
    /// `succ.key >= key`).
    ///
    /// # Safety
    ///
    /// `start` must be a protected node (head sentinel or a node reached
    /// under the current guard) with `start.key < key`.
    unsafe fn lock_level(&self, key: u64, level: usize, start: *mut Node) -> (*mut Node, *mut Node) {
        // SAFETY: the guard protects every node reached through next
        // pointers; a locked, unmarked predecessor cannot be unlinked.
        unsafe {
            let mut pred = start;
            loop {
                // Advance optimistically (no locks, ASCY2).
                let mut curr = link(pred, level).load(Ordering::Acquire);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire);
                }
                (*pred).lock.lock();
                stats::record_lock();
                let succ = link(pred, level).load(Ordering::Acquire);
                if !(*pred).marked.load(Ordering::Acquire)
                    && (*succ).key >= key
                {
                    return (pred, succ);
                }
                (*pred).lock.unlock();
                if (*pred).marked.load(Ordering::Acquire) {
                    // Fall back to the head if our hint got removed.
                    pred = self.base.head;
                }
                stats::record_restart();
            }
        }
    }
}

impl ConcurrentMap for PughSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.base.search(key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let found = self.base.find(key, &mut preds, &mut succs);
        // SAFETY: guard protects the traversed nodes.
        unsafe {
            if let Some(level) = found {
                if !(*succs[level]).marked.load(Ordering::Acquire) {
                    // ASCY3: read-only failure.
                    stats::record_operation();
                    return false;
                }
            }
            let toplevel = random_level();
            let node = new_node(key, value, toplevel);
            // Link level by level, bottom-up, locking one predecessor at a
            // time (Pugh's protocol).
            for level in 0..toplevel {
                let start = if preds[level].is_null() { self.base.head } else { preds[level] };
                let start = if (*start).marked.load(Ordering::Acquire) { self.base.head } else { start };
                let (pred, succ) = self.lock_level(key, level, start);
                if level == 0 && (*succ).key == key && !(*succ).marked.load(Ordering::Acquire) {
                    // A concurrent insert won the race at the bottom level.
                    (*pred).lock.unlock();
                    free_node(node);
                    stats::record_operation();
                    return false;
                }
                if level > 0 && (*succ).key == key && succ != node {
                    // Another tower with this key appeared above level 0:
                    // link in front of it (it is being removed or was the
                    // loser of a race; level-0 uniqueness is what defines
                    // membership).
                }
                // Relaxed: readers reach `node` at this level only through
                // the Release store of `pred.next[level]` just below, which
                // orders this store before the publication.
                link(node, level).store(succ, Ordering::Relaxed);
                link(pred, level).store(node, Ordering::Release);
                stats::record_store();
                (*pred).lock.unlock();
            }
            (*node).fully_linked.store(true, Ordering::Release);
            stats::record_store();
            stats::record_operation();
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let found = self.base.find(key, &mut preds, &mut succs);
        // SAFETY: guard protects the traversed nodes; the victim's lock and
        // mark serialize concurrent removers; the victim is retired only
        // after it is unlinked from every level.
        unsafe {
            let Some(level_found) = found else {
                stats::record_operation();
                return None;
            };
            let victim = succs[level_found];
            if (*victim).marked.load(Ordering::Acquire) {
                stats::record_operation();
                return None;
            }
            // Wait for the tower to be fully linked before unlinking it, so
            // no level resurrects the node afterwards.
            while !(*victim).fully_linked.load(Ordering::Acquire) {
                stats::record_wait();
                std::hint::spin_loop();
            }
            (*victim).lock.lock();
            stats::record_lock();
            if (*victim).marked.load(Ordering::Acquire) {
                (*victim).lock.unlock();
                stats::record_operation();
                return None;
            }
            (*victim).marked.store(true, Ordering::Release);
            stats::record_store();
            (*victim).lock.unlock();
            let value = (*victim).value.load(Ordering::Acquire);
            let toplevel = (*victim).toplevel;
            // Unlink level by level, top-down, locking one predecessor at a
            // time. The victim must be unlinked from *every* level before it
            // can be retired (other towers with the same key may sit next to
            // it, so the traversal advances until it reaches the victim
            // itself or provably passes it).
            for level in (0..toplevel).rev() {
                'level: loop {
                    let mut pred = if preds[level].is_null()
                        || (*preds[level]).marked.load(Ordering::Acquire)
                    {
                        self.base.head
                    } else {
                        preds[level]
                    };
                    // Advance to the direct predecessor of the victim.
                    loop {
                        let curr = link(pred, level).load(Ordering::Acquire);
                        if curr == victim {
                            break;
                        }
                        if (*curr).key > key {
                            // Not linked at this level (the inserting thread
                            // only publishes `fully_linked` after linking all
                            // levels, so a missing level here means the node
                            // was never linked at it).
                            break 'level;
                        }
                        pred = curr;
                    }
                    (*pred).lock.lock();
                    stats::record_lock();
                    if !(*pred).marked.load(Ordering::Acquire)
                        && link(pred, level).load(Ordering::Acquire) == victim
                    {
                        link(pred, level)
                            .store(link(victim, level).load(Ordering::Acquire), Ordering::Release);
                        stats::record_store();
                        (*pred).lock.unlock();
                        break 'level;
                    }
                    (*pred).lock.unlock();
                    stats::record_restart();
                }
            }
            retire_node(victim);
            stats::record_operation();
            Some(value)
        }
    }

    fn size(&self) -> usize {
        self.base.size()
    }
}

impl Default for PughSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PughSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PughSkipList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_full_height() {
        let base = SkipListBase::new();
        // SAFETY: the sentinels live as long as the list.
        unsafe {
            assert_eq!((*base.head).toplevel, MAX_LEVEL);
            assert_eq!((*base.tail).toplevel, MAX_LEVEL);
            assert_eq!(link(base.head, MAX_LEVEL - 1).load(Ordering::Acquire), base.tail);
            assert!(link(base.tail, MAX_LEVEL - 1).load(Ordering::Acquire).is_null());
        }
    }

    #[test]
    fn herlihy_basic_semantics() {
        let sl = HerlihySkipList::new();
        for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            let _ = sl.insert(k, k);
        }
        assert_eq!(sl.size(), 7);
        assert_eq!(sl.search(9), Some(9));
        assert_eq!(sl.remove(9), Some(9));
        assert_eq!(sl.remove(9), None);
        assert_eq!(sl.size(), 6);
    }

    #[test]
    fn pugh_basic_semantics() {
        let sl = PughSkipList::new();
        for k in 1..=100u64 {
            assert!(sl.insert(k, k * 2));
        }
        assert_eq!(sl.size(), 100);
        for k in (1..=100u64).step_by(3) {
            assert_eq!(sl.remove(k), Some(k * 2));
        }
        for k in 1..=100u64 {
            let expected = if (k - 1) % 3 == 0 { None } else { Some(k * 2) };
            assert_eq!(sl.search(k), expected, "key {k}");
        }
    }
}
