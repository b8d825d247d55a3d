//! Fraser's lock-free skip list, and its ASCY re-engineered variant.
//!
//! Nodes carry a tower of marked pointers; removal marks every level of the
//! victim's tower (logical deletion) and the physical unlinking is done by
//! the `find` helper, level by level, with CAS. In the original algorithm
//! (here [`FraserSkipList`]) the *search operation itself* uses that helper:
//! it unlinks marked nodes and restarts whenever a clean-up CAS fails or a
//! marked node is met when switching levels — violating ASCY1/2.
//!
//! [`FraserOptSkipList`] is the paper's `fraser-opt` (§5, Figure 5): ASCY1
//! and ASCY2 applied (based on the wait-free-contains technique of Herlihy,
//! Lev and Shavit). Searches traverse without a single store or restart;
//! update parses defer clean-up to the modification phase. A batch of
//! searches ([`ConcurrentMap::search_lanes`]) runs those traversals
//! interleaved, one node per lane per round with the next node prefetched,
//! so the batch's cache misses overlap instead of queueing.
//!
//! Removal linearizes on the node's value word: `remove` and `remove_if`
//! swap the tombstone in, and the thread whose swap lands owns the node. It
//! then marks the tower (logical deletion for the traversals) and unlinks
//! it; an `insert` that meets a tombstoned node still unmarked helps mark it
//! and retries, so a removed key is never reported present.
//!
//! Memory reclamation: a removed tower is retired only after the remover's
//! clean-up pass has unlinked it from every level. Concurrent inserters
//! validate that the successor they are about to link to is not marked and
//! repair the link if it became marked, which keeps retired towers
//! unreachable.
//!
//! # The hint table (`fraser-opt` only)
//!
//! A walk to a key is a chain of dependent cache misses, ~18 at a million
//! keys. Past an approximate count of keys ([`super::hint`]'s floor), a
//! `fraser-opt` list keeps a lossy hash table from key to node in front of
//! it: 64-byte buckets of eight `node pointer | fingerprint` slots. Every
//! point operation — `search`, `replace`, `compare_replace`, the victim
//! lookup of `remove`/`remove_if`, `insert`'s read-only parse and each lane
//! of `search_lanes` — probes it first: on a fingerprint match it checks
//! the node's key and reads (or CASes) its value word, and a missing hint,
//! a foreign key or a tombstone falls back to the walk. A hinted point
//! operation is then a bucket line, a node line and what the value points
//! to. The list stays the one record of what is live: range scans, and the
//! CLOCK, TTL and teardown walks of the tiers above, never look at the
//! table.
//!
//! Fills. A walk that finds a node fills its hint only into an **empty**
//! slot, so a steady-state search stores nothing (ASCY1) and keys that do
//! not fit never thrash their bucket; an insert fills after it has linked
//! its node, and may overwrite a slot.
//!
//! Why a read through a hint is linearizable. A node is hinted only after
//! it was linked, and removal linearizes on the CAS of [`TOMB`] into the
//! value word. A value word read through a hint that is not the tombstone
//! is therefore a value the key held at that instant; a hinted operation
//! that reads the tombstone walks instead, since the key may live on in a
//! newer node. A hinted `replace`, `compare_replace` or `remove` that reads
//! a live value and then loses its CAS to the tombstone answers "absent"
//! as the walk path always has: the removal took effect inside its
//! interval.
//!
//! Publication. A hint must not outlive its node's grace period.
//! - The remover clears every slot that hints its node, with a CAS, after
//!   its tombstone CAS and before `retire_node`.
//! - A filler re-reads the value word after publishing, and withdraws a
//!   hint that meets the tombstone, inside the guard under which it reached
//!   the node.
//! - Those four accesses, and the loads of the table pointer, are
//!   `SeqCst`: in their single total order, either the remover's clearing
//!   load comes after the publish and clears the hint, or it comes before,
//!   and then so does the tombstone, which the filler's re-read sees.
//! - The withdraw alone leaves a window: a reader whose guard began after
//!   the node's retire snapshot can load the hint between the publish and
//!   the withdraw. ssmem closes it by reusing a retired batch only after a
//!   **second** grace period, counted from when the first is observed. The
//!   filler's guard predates the unlink, so the first grace period ends
//!   after the withdraw; a reader that loaded the hint is then inside its
//!   guard at the second snapshot, or done with the node.
//! - A grow swaps an empty table in with a CAS, copies the old table's
//!   hints into it and retires the old one. A filler may still publish
//!   into the old table after the swap, and a remover that loads the new
//!   table does not clear it there. Only threads whose guards predate the
//!   swap can read the old table, and the node's retire snapshot comes
//!   after it, so such a reader is inside its guard at that snapshot — the
//!   first grace period waits for it. The copier is one of those readers,
//!   and a filler: it copies only a node whose value word it reads live
//!   (so its guard predates the node's unlink), then re-reads and
//!   withdraws like any other.

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, debug_check_value, ConcurrentMap, ReplaceMap, MAX_LANES};
use crate::marked::{tag, MarkedPtr};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::prefetch;
use crate::skiplist::hint::{Hints, Table, SAMPLE_LEVEL};
use crate::skiplist::{
    alloc_node, assert_node_bytes, free_node, link, random_level, retire_node, Tower, MAX_LEVEL,
};
use crate::stats;

/// Value word of a removed node. Swapping it in is the removal's
/// linearization point, so whichever of a racing `remove` and `replace`
/// reaches the word first takes the old value and the other sees the loss.
/// It is [`crate::api::VALUE_MAX`]` + 1`, which callers may not store.
const TOMB: u64 = u64::MAX;

/// Maps the tombstone to "absent"; every read of a value word goes
/// through here.
#[inline]
fn live_value(raw: u64) -> Option<u64> {
    (raw != TOMB).then_some(raw)
}

/// The node header; the tower's upper links follow it in the same
/// allocation (see [`crate::skiplist`]'s layout helper).
#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    toplevel: usize,
    next0: MarkedPtr<Node>,
}

// SAFETY: `repr(C)`, `next0` is the last field and a single atomic word whose
// zero value is the clean null pointer; `toplevel` is written once by
// `new_node`. The offsets are pinned by the assertions below.
unsafe impl Tower for Node {
    type Link = MarkedPtr<Node>;
    const LINK0: usize = std::mem::offset_of!(Node, next0);

    #[inline]
    fn toplevel(&self) -> usize {
        self.toplevel
    }
}

// A 32-byte header with `next0` at offset 24: `24 + 8·h` bytes per node.
const _: () = assert_node_bytes::<Node>(24);

/// Prefetches the node `pred`'s link one level below `level` points at (a
/// hint: the pointer is not followed, so `Relaxed` suffices).
///
/// # Safety
///
/// `pred` is protected by the caller's SSMEM guard and its tower reaches
/// `level`.
#[inline]
unsafe fn prefetch_down(pred: *mut Node, level: usize) {
    if level > 0 {
        // SAFETY: forwarded caller contract; level - 1 < level < toplevel.
        prefetch(unsafe { link(pred, level - 1).load(Ordering::Relaxed).0 });
    }
}

fn new_node(key: u64, value: u64, toplevel: usize) -> *mut Node {
    alloc_node(Node {
        key,
        value: AtomicU64::new(value),
        toplevel,
        next0: MarkedPtr::null(),
    })
}

/// Marks every level of `node`'s tower, top-down, ending with level 0 —
/// the mark traversals treat as deletion. Levels already marked are left
/// alone, so the remover and any helping `insert` can race on it.
///
/// # Safety
///
/// `node` is protected by the caller's SSMEM guard and its value word holds
/// [`TOMB`].
unsafe fn mark_tower(node: *mut Node) {
    // SAFETY: forwarded caller contract; only the mark bits change.
    unsafe {
        for level in (0..(*node).toplevel).rev() {
            loop {
                let (succ, m) = link(node, level).load(Ordering::Acquire);
                if m != tag::CLEAN {
                    break;
                }
                let ok = link(node, level)
                    .compare_exchange(succ, tag::CLEAN, succ, tag::MARK, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    break;
                }
            }
        }
    }
}

/// Shared implementation; `OPT` selects the ASCY-compliant search/parse
/// and the hint table in front of it.
struct Fraser<const OPT: bool> {
    head: *mut Node,
    tail: *mut Node,
    /// Key → node hints; never allocated when `!OPT`.
    hints: Hints,
}

// SAFETY: shared node state is atomic; towers are retired only after the
// remover's clean-up pass unlinked them everywhere, and all traversals run
// under SSMEM guards.
unsafe impl<const OPT: bool> Send for Fraser<OPT> {}
// SAFETY: see above.
unsafe impl<const OPT: bool> Sync for Fraser<OPT> {}

impl<const OPT: bool> Fraser<OPT> {
    fn new() -> Self {
        let tail = new_node(u64::MAX, 0, MAX_LEVEL);
        let head = new_node(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated sentinels.
        // Relaxed: the list is private until the constructor returns; handing
        // `Self` to another thread synchronizes.
        unsafe {
            for level in 0..MAX_LEVEL {
                link(head, level).store(tail, tag::CLEAN, Ordering::Relaxed);
            }
        }
        Self {
            head,
            tail,
            hints: Hints::new(),
        }
    }

    /// Fraser's `search` helper: records predecessors/successors at every
    /// level, physically unlinking marked nodes along the way and restarting
    /// if a clean-up CAS fails. Returns `true` if an unmarked node with the
    /// key sits at level 0.
    ///
    /// Caller must hold an SSMEM guard.
    fn find(
        &self,
        key: u64,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> bool {
        // SAFETY: guard protects every traversed node.
        unsafe {
            'retry: loop {
                let mut traversed = 0u64;
                let mut pred = self.head;
                for level in (0..MAX_LEVEL).rev() {
                    let mut curr = link(pred, level).load(Ordering::Acquire).0;
                    loop {
                        let (mut succ, mut marked) = link(curr, level).load(Ordering::Acquire);
                        while marked != tag::CLEAN {
                            // curr is logically deleted: unlink it here.
                            let ok = link(pred, level)
                                .compare_exchange(
                                    curr,
                                    tag::CLEAN,
                                    succ,
                                    tag::CLEAN,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok();
                            stats::record_atomic(ok);
                            if !ok {
                                stats::record_restart();
                                continue 'retry;
                            }
                            curr = link(pred, level).load(Ordering::Acquire).0;
                            let (s, m) = link(curr, level).load(Ordering::Acquire);
                            succ = s;
                            marked = m;
                        }
                        if (*curr).key < key {
                            pred = curr;
                            curr = succ;
                            traversed += 1;
                        } else {
                            break;
                        }
                    }
                    preds[level] = pred;
                    succs[level] = curr;
                }
                stats::record_traversal(traversed);
                return (*succs[0]).key == key;
            }
        }
    }

    /// ASCY1-compliant wait-free traversal (used by `fraser-opt` searches,
    /// by both variants' update parses and by `replace`): the node holding
    /// `key` if its level-0 pointer is unmarked at this instant. No stores,
    /// no retries.
    ///
    /// Every `pred` it lands on above level 0 prefetches the node its
    /// down-link points at: when the right link overshoots, that node is
    /// the next one compared, and its line is already on the way.
    ///
    /// Caller must hold an SSMEM guard.
    fn locate(&self, key: u64) -> Option<*mut Node> {
        let mut traversed = 0u64;
        // SAFETY: guard protects every traversed node.
        unsafe {
            let mut pred = self.head;
            let mut result = None;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Acquire).0;
                prefetch_down(pred, level);
                while (*curr).key < key {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire).0;
                    prefetch_down(pred, level);
                    traversed += 1;
                }
                if (*curr).key == key {
                    if link(curr, 0).load(Ordering::Acquire).1 == tag::CLEAN {
                        result = Some(curr);
                    }
                    break;
                }
            }
            stats::record_traversal(traversed);
            result
        }
    }

    /// The node hinted for `key` and its live value. `None` — the caller
    /// walks — when the list has no table, the bucket has no hint under
    /// `key`'s fingerprint, the hinted node holds another key, or its value
    /// word holds the tombstone (the key may live on in a newer node).
    ///
    /// Caller must hold an SSMEM guard.
    #[inline]
    fn hinted(&self, key: u64) -> Option<(*mut Node, u64)> {
        if !OPT {
            return None;
        }
        let node: *mut Node = self.hints.table()?.probe(key)?;
        // SAFETY: a hinted node was linked before it was hinted, and is
        // reused only two grace periods after its remover cleared the hint
        // (or its filler withdrew it); the guard holds those back.
        let value = unsafe {
            if (*node).key != key {
                return None;
            }
            live_value((*node).value.load(Ordering::Acquire))?
        };
        stats::record_hint_hit();
        Some((node, value))
    }

    /// Publishes `node`, which a walk or an insert found linked, as `key`'s
    /// hint, then re-reads its value word and withdraws the hint if the
    /// node has been removed meanwhile. A read passes `overwrite = false`
    /// and fills only an empty slot; an insert may take an occupied one.
    ///
    /// Caller must hold an SSMEM guard, taken before it reached `node`.
    fn fill(&self, key: u64, node: *mut Node, overwrite: bool) {
        if !OPT {
            return;
        }
        if let Some(table) = self.hints.table() {
            fill_into(table, key, node, overwrite);
        }
    }

    /// The node holding `key` and its value word as loaded (possibly the
    /// tombstone): through the hint if there is one, else by
    /// [`Self::locate`], whose find is then hinted.
    ///
    /// Caller must hold an SSMEM guard.
    fn lookup(&self, key: u64) -> Option<(*mut Node, u64)> {
        if let Some(hit) = self.hinted(key) {
            return Some(hit);
        }
        let node = self.locate(key)?;
        self.fill(key, node, false);
        // SAFETY: guard protects the located node.
        Some((node, unsafe { (*node).value.load(Ordering::Acquire) }))
    }

    /// The value `key` maps to, via [`Self::lookup`]. A node removed
    /// between the mark check and the value load reads as absent.
    ///
    /// Caller must hold an SSMEM guard.
    fn traverse(&self, key: u64) -> Option<u64> {
        live_value(self.lookup(key)?.1)
    }

    /// The interleaved form of [`Self::search_op`] behind
    /// [`FraserOptSkipList::search_lanes`], for up to [`MAX_LANES`] keys,
    /// possibly in different lists. Every lane's hint bucket is prefetched,
    /// then every hinted node, then each lane reads its hint as
    /// [`Self::hinted`] does. The lanes without one walk: their
    /// [`Self::locate`] traversals advance one node per round each, and
    /// every lane prefetches the node it compares next, so one lane's cache
    /// miss overlaps the others'. Within a lane the loads are `locate`'s, in
    /// its order; no retries, and no stores but the fill of a found node.
    fn search_interleaved<'a>(lanes: impl Iterator<Item = (&'a Self, u64)>, out: &mut [Option<u64>])
    where
        Self: 'a,
    {
        let _guard = ssmem::protect();
        let mut lists: [Option<&Self>; MAX_LANES] = [None; MAX_LANES];
        let mut keys = [0u64; MAX_LANES];
        let mut width = 0;
        for (i, (list, key)) in lanes.enumerate() {
            if let Some(table) = list.hints.table() {
                table.prefetch(key);
            }
            (lists[i], keys[i], width) = (Some(list), key, i + 1);
        }
        let lists = &lists[..width];
        for (list, &key) in lists.iter().flatten().zip(&keys) {
            if let Some(node) = list.hints.table().and_then(|t| t.probe::<Node>(key)) {
                prefetch(node);
            }
        }
        let mut state = [Lane::IDLE; MAX_LANES];
        // Bit `i` is set while lane `i` is still traversing.
        let mut running = 0u32;
        for (i, list) in lists.iter().flatten().enumerate() {
            if let Some((_, value)) = list.hinted(keys[i]) {
                out[i] = Some(value);
                stats::record_operation();
                continue;
            }
            let head = list.head;
            // SAFETY: the head sentinel is live for the list's lifetime.
            let curr = unsafe { link(head, MAX_LEVEL - 1).load(Ordering::Acquire).0 };
            prefetch(curr);
            state[i] = Lane {
                key: keys[i],
                pred: head,
                curr,
                level: MAX_LEVEL - 1,
                traversed: 0,
            };
            running |= 1 << i;
        }
        while running != 0 {
            let mut round = running;
            while round != 0 {
                let i = round.trailing_zeros() as usize;
                round &= round - 1;
                // SAFETY: the guard above predates every lane's first load.
                if let Some(found) = unsafe { state[i].step() } {
                    out[i] = found.and_then(|node| {
                        lists[i].expect("a running lane has a list").fill(keys[i], node, false);
                        // SAFETY: as above.
                        live_value(unsafe { (*node).value.load(Ordering::Acquire) })
                    });
                    running &= !(1 << i);
                    stats::record_traversal(state[i].traversed);
                    stats::record_operation();
                }
            }
        }
    }

    fn search_op(&self, key: u64) -> Option<u64> {
        let _guard = ssmem::protect();
        stats::record_operation();
        if OPT {
            // ASCY1: never helps, never restarts.
            self.traverse(key)
        } else {
            // Original fraser: the search uses the cleaning helper.
            let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
            let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
            if self.find(key, &mut preds, &mut succs) {
                // SAFETY: guard protects succs[0].
                live_value(unsafe { (*succs[0]).value.load(Ordering::Acquire) })
            } else {
                None
            }
        }
    }

    /// In-place overwrite: the hint or a read-only parse finds the node,
    /// then a CAS loop on its value word swaps the value. The word is the
    /// only thing written, and a tombstone there means a `remove` got to it
    /// first.
    fn replace_op(&self, key: u64, value: u64) -> Option<u64> {
        let _guard = ssmem::protect();
        stats::record_operation();
        let (node, mut old) = self.lookup(key)?;
        // SAFETY: guard protects the located node.
        let word = unsafe { &(*node).value };
        while old != TOMB {
            let swapped =
                word.compare_exchange_weak(old, value, Ordering::AcqRel, Ordering::Acquire);
            stats::record_atomic(swapped.is_ok());
            match swapped {
                Ok(_) => return Some(old),
                Err(seen) => old = seen,
            }
        }
        None
    }

    /// Conditional overwrite: the same read-only parse as
    /// [`Self::replace_op`], then one CAS of `expected` to `value` on the
    /// node's value word. A tombstone there (a `remove` got to it first)
    /// answers as absent.
    fn compare_replace_op(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>> {
        let _guard = ssmem::protect();
        stats::record_operation();
        let (node, _) = self.lookup(key).ok_or(None)?;
        // SAFETY: guard protects the located node.
        let swapped = unsafe { &(*node).value }.compare_exchange(
            expected,
            value,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        stats::record_atomic(swapped.is_ok());
        swapped.map(drop).map_err(live_value)
    }

    fn insert_op(&self, key: u64, value: u64) -> bool {
        let _guard = ssmem::protect();
        let toplevel = random_level();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: guard protects every node in preds/succs; the new node is
        // initialized before each publishing CAS.
        unsafe {
            loop {
                if OPT {
                    // ASCY3: the hint or a read-only parse decides
                    // unsuccessful inserts.
                    if self.traverse(key).is_some() {
                        stats::record_operation();
                        return false;
                    }
                }
                if self.find(key, &mut preds, &mut succs) {
                    let found = succs[0];
                    if (*found).value.load(Ordering::Acquire) != TOMB {
                        stats::record_operation();
                        return false;
                    }
                    // Removed but not yet marked: help mark it, so the next
                    // `find` unlinks it, and try again.
                    mark_tower(found);
                    stats::record_restart();
                    continue;
                }
                let node = new_node(key, value, toplevel);
                // Relaxed: the node is private until the level-0 CAS below
                // (AcqRel) publishes it.
                for level in 0..toplevel {
                    link(node, level).store(succs[level], tag::CLEAN, Ordering::Relaxed);
                }
                // Publish at level 0.
                let ok = link(preds[0], 0)
                    .compare_exchange(
                        succs[0],
                        tag::CLEAN,
                        node,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(ok);
                if !ok {
                    free_node(node);
                    stats::record_restart();
                    continue;
                }
                // Link the upper levels.
                'levels: for level in 1..toplevel {
                    loop {
                        // Stop if our node got logically deleted meanwhile.
                        if link(node, 0).load(Ordering::Acquire).1 != tag::CLEAN {
                            break 'levels;
                        }
                        let succ = link(node, level).load(Ordering::Acquire).0;
                        // Do not link to a marked successor (it is about to be
                        // unlinked and retired).
                        if succ != self.tail
                            && link(succ, level).load(Ordering::Acquire).1 != tag::CLEAN
                        {
                            self.refresh_level(key, level, node, &mut preds, &mut succs);
                            continue;
                        }
                        let ok = link(preds[level], level)
                            .compare_exchange(
                                succ,
                                tag::CLEAN,
                                node,
                                tag::CLEAN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok();
                        stats::record_atomic(ok);
                        if ok {
                            break;
                        }
                        stats::record_restart();
                        self.refresh_level(key, level, node, &mut preds, &mut succs);
                    }
                }
                if OPT {
                    self.fill(key, node, true);
                    // Its remover uncounts it whether or not it got this far.
                    if toplevel >= SAMPLE_LEVEL {
                        self.hints.tall_linked(refill);
                    }
                }
                stats::record_operation();
                return true;
            }
        }
    }

    /// Re-computes `preds`/`succs` (via `find`) and repoints the node's
    /// forward pointer at `level` to the new successor.
    ///
    /// # Safety
    ///
    /// Caller must hold a guard; `node` must be the caller's own,
    /// already-published node.
    unsafe fn refresh_level(
        &self,
        key: u64,
        level: usize,
        node: *mut Node,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) {
        let _ = self.find(key, preds, succs);
        // `find` may return our own node as the successor (it has our key);
        // in that case link to whatever follows it.
        let mut succ = succs[level];
        if succ == node {
            // SAFETY: node is our own live node.
            succ = unsafe { link(node, level).load(Ordering::Acquire).0 };
        }
        // SAFETY: node is our own; only removers mark its pointers, in which
        // case we stop at the next loop iteration.
        unsafe {
            let (old, m) = link(node, level).load(Ordering::Acquire);
            if m == tag::CLEAN && old != succ {
                let ok = link(node, level)
                    .compare_exchange(old, tag::CLEAN, succ, tag::CLEAN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                stats::record_atomic(ok);
            }
        }
        succs[level] = succ;
    }

    /// `remove` (`expected` is `None`) and `remove_if`: the hint or the
    /// parse finds the node, then a CAS loop on its value word swaps the
    /// tombstone in — the linearization point. The thread whose swap lands
    /// owns the node: it clears the node's hint, marks the tower, unlinks
    /// it everywhere and retires it. A mismatch
    /// answers `Err(Some(current))`, an absent or already tombstoned key
    /// `Err(None)`.
    fn remove_op(&self, key: u64, expected: Option<u64>) -> Result<u64, Option<u64>> {
        let _guard = ssmem::protect();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: guard protects all traversed nodes; the victim is retired
        // only after the clean-up pass has unlinked it from every level.
        unsafe {
            let victim = if OPT {
                // ASCY3: the hint or a read-only parse, which decides
                // unsuccessful removals on its own.
                self.lookup(key)
            } else {
                self.find(key, &mut preds, &mut succs)
                    .then(|| (succs[0], (*succs[0]).value.load(Ordering::Acquire)))
            };
            let Some((victim, mut old)) = victim else {
                stats::record_operation();
                return Err(None);
            };
            let word = &(*victim).value;
            loop {
                if old == TOMB || expected.is_some_and(|e| e != old) {
                    stats::record_operation();
                    return Err(live_value(old));
                }
                // `SeqCst`: a filler that re-reads the word after publishing
                // a hint sees the tombstone, or `clear` below sees the hint.
                let swapped =
                    word.compare_exchange_weak(old, TOMB, Ordering::SeqCst, Ordering::Acquire);
                stats::record_atomic(swapped.is_ok());
                match swapped {
                    Ok(_) => break,
                    Err(seen) => old = seen,
                }
            }
            if let Some(table) = self.hints.table() {
                table.clear(key, victim);
            }
            // Mark the tower, unlink it everywhere, then retire it.
            mark_tower(victim);
            let _ = self.find(key, &mut preds, &mut succs);
            if OPT && (*victim).toplevel >= SAMPLE_LEVEL {
                self.hints.tall_removed();
            }
            retire_node(victim);
            stats::record_operation();
            Ok(old)
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = link(self.head, 0).load(Ordering::Acquire).0;
            while curr != self.tail {
                let (next, m) = link(curr, 0).load(Ordering::Acquire);
                if m == tag::CLEAN && (*curr).value.load(Ordering::Acquire) != TOMB {
                    count += 1;
                }
                curr = next;
            }
        }
        count
    }
}

/// Copies the hints of `old`, a table just swapped out, into `new`. The
/// copier is a filler like any other: it publishes only a node whose value
/// word it read live, so its guard predates the node's unlink, and
/// [`fill_into`] re-reads and withdraws.
///
/// The caller's guard predates the swap.
fn refill(old: &Table, new: &Table) {
    old.for_each_node(|node: *mut Node| {
        // SAFETY: the guard protects a node hinted in a table it can read.
        let (key, value) = unsafe { ((*node).key, (*node).value.load(Ordering::Acquire)) };
        if value != TOMB {
            fill_into(new, key, node, false);
        }
    });
}

/// [`Fraser::fill`] into `table`, loaded by the caller.
fn fill_into(table: &Table, key: u64, node: *mut Node, overwrite: bool) {
    let Some(slot) = table.publish(key, node, overwrite) else {
        return;
    };
    // SAFETY: the caller's guard protects `node`. `SeqCst`, against the
    // remover's tombstone CAS and its clearing load.
    if unsafe { (*node).value.load(Ordering::SeqCst) } == TOMB {
        table.withdraw(key, node, slot);
    }
}

/// One lane of [`Fraser::search_interleaved`]: a [`Fraser::locate`]
/// traversal stopped between two node loads.
#[derive(Clone, Copy)]
struct Lane {
    key: u64,
    /// The last node passed, whose key is below `key`.
    pred: *mut Node,
    /// The node to compare next, prefetched when the lane reached it.
    curr: *mut Node,
    level: usize,
    traversed: u64,
}

impl Lane {
    const IDLE: Lane = Lane {
        key: 0,
        pred: std::ptr::null_mut(),
        curr: std::ptr::null_mut(),
        level: 0,
        traversed: 0,
    };

    /// Compares `curr` and moves one node: right past a smaller key, or
    /// down from `pred` to the first level whose link leads somewhere new
    /// (a link back to `curr` has nothing left to compare). `Some` is the
    /// lane's answer, the node [`Fraser::locate`] would return.
    ///
    /// # Safety
    ///
    /// The caller holds an SSMEM guard taken before the lane's first load.
    unsafe fn step(&mut self) -> Option<Option<*mut Node>> {
        // SAFETY: the guard protects every node the lane reached.
        unsafe {
            let key = (*self.curr).key;
            if key < self.key {
                self.pred = self.curr;
                self.curr = link(self.curr, self.level).load(Ordering::Acquire).0;
                self.traversed += 1;
                prefetch(self.curr);
                return None;
            }
            if key == self.key {
                let live = link(self.curr, 0).load(Ordering::Acquire).1 == tag::CLEAN;
                return Some(live.then_some(self.curr));
            }
            while self.level > 0 {
                self.level -= 1;
                let next = link(self.pred, self.level).load(Ordering::Acquire).0;
                if next != self.curr {
                    self.curr = next;
                    prefetch(next);
                    return None;
                }
            }
            Some(None)
        }
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
        // A marked level-0 pointer is the logical deletion point.
        self.next0.load(Ordering::Acquire).1 == tag::CLEAN
    }

    fn chain_read(&self) -> Option<u64> {
        // One load of the value word: a node removed after the mark check
        // must not reach the visitor as a tombstone.
        self.chain_live().then(|| self.chain_value()).and_then(live_value)
    }

    fn chain_next(&self) -> *mut Self {
        self.next0.load(Ordering::Acquire).0
    }
}

impl<const OPT: bool> RangeWalk for Fraser<OPT> {
    /// ASCY1-style range traversal: the upper levels position the walk at
    /// the last node with key `< lo` in O(log n), then the level-0 lane is
    /// walked like a linked list (no stores, no retries, for both
    /// variants — range reads never help with clean-up).
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = link(pred, level).load(Ordering::Acquire).0;
                while (*curr).key < lo {
                    pred = curr;
                    curr = link(curr, level).load(Ordering::Acquire).0;
                }
            }
            walk_chain(pred, lo, visit);
        }
    }
}

impl_ordered_map!(FraserSkipList, via inner);
impl_ordered_map!(FraserOptSkipList, via inner);

impl<const OPT: bool> Drop for Fraser<OPT> {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; free the level-0 chain.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = if curr == self.tail {
                    std::ptr::null_mut()
                } else {
                    link(curr, 0).load(Ordering::Relaxed).0
                };
                free_node(curr);
                curr = next;
            }
        }
    }
}

/// Fraser's lock-free skip list (original, non-ASCY search).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::FraserSkipList;
///
/// let sl = FraserSkipList::new();
/// assert!(sl.insert(5, 50));
/// assert_eq!(sl.remove(5), Some(50));
/// ```
pub struct FraserSkipList {
    inner: Fraser<false>,
}

impl FraserSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { inner: Fraser::new() }
    }
}

impl ConcurrentMap for FraserSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.search_op(key)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        debug_check_value(value);
        self.inner.insert_op(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.remove_op(key, None).ok()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
}

impl ReplaceMap for FraserSkipList {
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        debug_check_key(key);
        debug_check_value(value);
        self.inner.replace_op(key, value)
    }

    fn compare_replace(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>> {
        debug_check_key(key);
        debug_check_value(expected);
        debug_check_value(value);
        self.inner.compare_replace_op(key, expected, value)
    }

    fn remove_if(&self, key: u64, expected: u64) -> Result<(), Option<u64>> {
        debug_check_key(key);
        debug_check_value(expected);
        self.inner.remove_op(key, Some(expected)).map(drop)
    }
}

impl Default for FraserSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FraserSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FraserSkipList").field("size", &self.size()).finish()
    }
}

/// The ASCY-compliant `fraser-opt` skip list (Figure 5 of the paper).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::FraserOptSkipList;
///
/// let sl = FraserOptSkipList::new();
/// assert!(sl.insert(6, 60));
/// assert_eq!(sl.search(6), Some(60));
/// ```
pub struct FraserOptSkipList {
    inner: Fraser<true>,
}

impl FraserOptSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { inner: Fraser::new() }
    }

    /// Bytes of the list's hint table, 0 below its floor. For memory tests.
    #[doc(hidden)]
    pub fn hint_table_bytes(&self) -> usize {
        self.inner.hints.bytes()
    }
}

impl ConcurrentMap for FraserOptSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.search_op(key)
    }
    /// Native: the lanes' wait-free traversals run interleaved, up to
    /// [`MAX_LANES`] at a time, with the next node of each prefetched.
    fn search_lanes(lanes: &[(&Self, u64)], out: &mut [Option<u64>]) {
        assert_eq!(lanes.len(), out.len(), "one answer slot per lane");
        for (lanes, out) in lanes.chunks(MAX_LANES).zip(out.chunks_mut(MAX_LANES)) {
            let lanes = lanes.iter().map(|&(list, key)| {
                debug_check_key(key);
                (&list.inner, key)
            });
            Fraser::search_interleaved(lanes, out);
        }
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        debug_check_value(value);
        self.inner.insert_op(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.remove_op(key, None).ok()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
}

impl ReplaceMap for FraserOptSkipList {
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        debug_check_key(key);
        debug_check_value(value);
        self.inner.replace_op(key, value)
    }

    fn compare_replace(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>> {
        debug_check_key(key);
        debug_check_value(expected);
        debug_check_value(value);
        self.inner.compare_replace_op(key, expected, value)
    }

    fn remove_if(&self, key: u64, expected: u64) -> Result<(), Option<u64>> {
        debug_check_key(key);
        debug_check_value(expected);
        self.inner.remove_op(key, Some(expected)).map(drop)
    }
}

impl Default for FraserOptSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FraserOptSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FraserOptSkipList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraser_basic_semantics() {
        let sl = FraserSkipList::new();
        for k in [10u64, 30, 20, 40] {
            assert!(sl.insert(k, k));
        }
        assert!(!sl.insert(20, 0));
        assert_eq!(sl.size(), 4);
        assert_eq!(sl.search(30), Some(30));
        assert_eq!(sl.remove(30), Some(30));
        assert_eq!(sl.remove(30), None);
        assert_eq!(sl.search(30), None);
        assert_eq!(sl.size(), 3);
    }

    #[test]
    fn fraser_opt_basic_semantics() {
        let sl = FraserOptSkipList::new();
        for k in 1..=200u64 {
            assert!(sl.insert(k, k * 5));
        }
        assert_eq!(sl.size(), 200);
        for k in (1..=200u64).step_by(4) {
            assert_eq!(sl.remove(k), Some(k * 5));
        }
        for k in 1..=200u64 {
            let expected = if (k - 1) % 4 == 0 { None } else { Some(k * 5) };
            assert_eq!(sl.search(k), expected, "key {k}");
        }
    }

    /// A removal between its linearization point and its first mark: the
    /// value word holds the tombstone, the tower is unmarked. Staged by
    /// planting the tombstone; no path may hand it out, and an `insert` of
    /// the key must help mark the node and succeed.
    fn tombstone_reads_as_absent<const OPT: bool>() {
        let sl = Fraser::<OPT>::new();
        assert!(sl.insert_op(5, 50));
        assert!(sl.insert_op(6, 60));
        let node = {
            let _guard = ssmem::protect();
            let node = sl.locate(5).expect("just inserted");
            // SAFETY: the guard protects the located node.
            unsafe { (*node).value.store(TOMB, Ordering::Release) };
            assert_eq!(sl.traverse(5), None);
            node
        };
        assert_eq!(sl.search_op(5), None);
        assert_eq!(sl.size(), 1);
        let mut lanes = [Some(0)];
        Fraser::search_interleaved([(&sl, 5)].into_iter(), &mut lanes);
        assert_eq!(lanes, [None], "an interleaved lane yielded the tombstone");
        assert_eq!(sl.replace_op(5, 51), None);
        assert_eq!(sl.compare_replace_op(5, 50, 51), Err(None));
        let mut seen = Vec::new();
        sl.walk(1, &mut |k, v| {
            seen.push((k, v));
            true
        });
        assert_eq!(seen, vec![(6, 60)], "a scan yielded the tombstone");
        assert_eq!(sl.remove_op(5, Some(50)), Err(None));
        assert!(sl.insert_op(5, 52), "an insert must help the removal, not see the key");
        assert_eq!(sl.search_op(5), Some(52));
        // SAFETY: the insert marked the planted node and its `find` unlinked
        // it from every level; the test owns the removal, so it retires the
        // node as the remover would.
        unsafe {
            assert_ne!(link(node, 0).load(Ordering::Acquire).1, tag::CLEAN);
            retire_node(node);
        }
        assert_eq!(sl.size(), 2);
    }

    #[test]
    fn a_tombstoned_value_reads_as_absent_on_every_path() {
        tombstone_reads_as_absent::<false>();
        tombstone_reads_as_absent::<true>();
    }

    /// A node whose tower a `remove` has marked but not yet unlinked: the
    /// interleaved lanes pass it exactly as `locate` does — absent at its
    /// own key, a stepping stone on the way to the keys beyond it.
    #[test]
    fn interleaved_lanes_agree_with_search_over_a_marked_node() {
        let sl = Fraser::<true>::new();
        for key in 1..=64 {
            assert!(sl.insert_op(key, key * 3));
        }
        let marked = {
            let _guard = ssmem::protect();
            // The tallest tower among the keys, so upper levels are marked too.
            let tallest = (1..=64)
                .map(|key| sl.locate(key).expect("present"))
                // SAFETY: the guard protects the located nodes.
                .max_by_key(|&node| unsafe { (*node).toplevel })
                .expect("non-empty");
            // SAFETY: as above; only the mark bits change.
            unsafe {
                for level in (0..(*tallest).toplevel).rev() {
                    let succ = link(tallest, level).load(Ordering::Acquire).0;
                    link(tallest, level).store(succ, tag::MARK, Ordering::Release);
                }
                (*tallest).key
            }
        };
        assert_eq!(sl.search_op(marked), None);
        let keys: Vec<u64> = [marked, marked - 1, marked + 1, 64, 65, marked]
            .into_iter()
            .chain((0..10).map(|i| 1 + (i * 29) % 70))
            .collect();
        for width in 1..=keys.len() {
            let keys = &keys[..width];
            let expected: Vec<Option<u64>> = keys.iter().map(|&k| sl.search_op(k)).collect();
            let mut got = vec![Some(u64::MAX); width];
            Fraser::search_interleaved(keys.iter().map(|&k| (&sl, k)), &mut got);
            assert_eq!(got, expected, "lanes {keys:?}");
        }
        assert_eq!(sl.size(), 63, "exactly one node reads as removed");
    }

    /// Address and recorded height of the node behind every key in `keys`.
    fn towers(sl: &Fraser<true>, keys: std::ops::RangeInclusive<u64>) -> Vec<(usize, usize)> {
        let _guard = ssmem::protect();
        keys.map(|key| {
            let node = sl.locate(key).expect("key present");
            // SAFETY: the guard protects the located node.
            (node as usize, unsafe { (*node).toplevel })
        })
        .collect()
    }

    #[test]
    fn sentinels_are_full_height_and_reuse_stays_within_a_height() {
        let sl = Fraser::<true>::new();
        // SAFETY: the sentinels live as long as the list.
        unsafe {
            assert_eq!((*sl.head).toplevel, MAX_LEVEL);
            assert_eq!((*sl.tail).toplevel, MAX_LEVEL);
            assert_eq!(link(sl.head, MAX_LEVEL - 1).load(Ordering::Acquire).0, sl.tail);
            assert!(link(sl.tail, MAX_LEVEL - 1).load(Ordering::Acquire).0.is_null());
        }
        // Fewer nodes than a pool class holds, so nothing returns to the
        // system allocator: an address seen twice was recycled by ssmem.
        const KEYS: u64 = 2_000;
        ssmem::set_gc_threshold(64);
        for key in 1..=KEYS {
            assert!(sl.insert_op(key, key));
        }
        let first: std::collections::HashMap<usize, usize> =
            towers(&sl, 1..=KEYS).into_iter().collect();
        for key in 1..=KEYS {
            assert_eq!(sl.remove_op(key, None), Ok(key));
        }
        // Guards held by tests running beside this one can delay a pass.
        for _ in 0..2_000 {
            ssmem::collect();
            if ssmem::thread_stats().pending == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Fresh heights are drawn for every key, so a recycled address now
        // serves another key; its height is the one it was allocated with,
        // because a pool class holds one layout and the layout is the height.
        for key in 1..=KEYS {
            assert!(sl.insert_op(key, key + 1));
        }
        let mut reused_heights = std::collections::BTreeSet::new();
        let mut reused = 0;
        for (addr, height) in towers(&sl, 1..=KEYS) {
            if let Some(&allocated_with) = first.get(&addr) {
                assert_eq!(height, allocated_with, "node at {addr:#x} changed height in the pool");
                reused_heights.insert(height);
                reused += 1;
            }
        }
        assert!(reused > KEYS as usize / 2, "only {reused} of {KEYS} nodes came from the pool");
        assert!(reused_heights.len() >= 4, "reuse covered heights {reused_heights:?} only");
        for key in 1..=KEYS {
            assert_eq!(sl.search_op(key), Some(key + 1));
        }
    }

    /// A `fraser-opt` list past its hint floor, on filler keys from 2^40.
    fn grown() -> Fraser<true> {
        let sl = Fraser::<true>::new();
        let mut filler = 1 << 40;
        while sl.hints.table().is_none() {
            assert!(sl.insert_op(filler, 1));
            filler += 1;
        }
        sl
    }

    /// Slots of the current table that hint `node` under `key`.
    fn hints_of(sl: &Fraser<true>, key: u64, node: *mut Node) -> usize {
        let _guard = ssmem::protect();
        sl.hints.table().expect("grown").hints_of(key, node)
    }

    /// Window (i): a reader found the node before its removal and publishes
    /// the hint after the remover's clear. Its re-read of the value word
    /// sees the tombstone, and it must withdraw the hint.
    #[test]
    fn a_filler_that_publishes_after_the_clear_withdraws() {
        let sl = grown();
        assert!(sl.insert_op(5, 50));
        let _reader = ssmem::protect();
        let node = sl.locate(5).expect("just inserted");
        sl.hints.table().expect("grown").clear(5, node);
        assert_eq!(hints_of(&sl, 5, node), 0);
        assert_eq!(sl.remove_op(5, None), Ok(50));
        sl.fill(5, node, false);
        assert_eq!(hints_of(&sl, 5, node), 0, "a hint to a removed node outlived its filler");
        assert_eq!(sl.search_op(5), None);
    }

    /// Window (ii): the hint was filled before the tombstone; the remover
    /// must clear it before it retires the node.
    #[test]
    fn a_remover_clears_the_hint_filled_before_its_tombstone() {
        let sl = grown();
        assert!(sl.insert_op(5, 50));
        let node = {
            let _guard = ssmem::protect();
            sl.locate(5).expect("just inserted")
        };
        assert_eq!(hints_of(&sl, 5, node), 1, "the insert hints its node");
        assert_eq!(sl.search_op(5), Some(50));
        assert_eq!(sl.remove_op(5, None), Ok(50));
        assert_eq!(hints_of(&sl, 5, node), 0, "a hint to a retired node stayed behind");
        assert_eq!(sl.search_op(5), None);
        assert!(sl.insert_op(5, 51));
        assert_eq!(sl.search_op(5), Some(51));
    }

    /// Window (iii): a grow swaps a new table in between a filler's load of
    /// the table and its publish. The remover clears in the new table, so
    /// the hint stays behind in the old one; only guards older than the
    /// swap can read that table, and it is not given back while one of
    /// them is held.
    #[test]
    fn a_grow_between_a_fillers_load_and_its_publish_strands_the_hint_in_the_old_table() {
        let sl = grown();
        assert!(sl.insert_op(5, 50));
        let (entered, inside) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // A reader of the old table, inside its guard across the swap
            // until released (or until this thread panics and drops `release`).
            s.spawn(move || {
                let _old_reader = ssmem::protect();
                entered.send(()).unwrap();
                let _ = released.recv();
            });
            inside.recv().unwrap();
            let _filler = ssmem::protect();
            let node = sl.locate(5).expect("just inserted");
            let old = sl.hints.table().expect("grown");
            old.clear(5, node);
            sl.hints.force_grow(refill);
            let pending = ssmem::thread_stats().pending;
            fill_into(old, 5, node, false);
            assert_eq!(old.hints_of(5, node), 1, "the node was live at the re-read");
            assert_eq!(sl.remove_op(5, None), Ok(50));
            let new = sl.hints.table().expect("grown");
            assert!(!std::ptr::eq(old, new));
            assert_eq!(new.hints_of(5, node), 0);
            assert_eq!(old.hints_of(5, node), 1, "stranded in the old table");
            assert_eq!(sl.search_op(5), None);
            assert_eq!(sl.replace_op(5, 51), None);
            for _ in 0..20 {
                ssmem::collect();
            }
            assert!(
                ssmem::thread_stats().pending >= pending,
                "the old table was given back while a guard older than the swap was held"
            );
            drop(release);
        });
        assert!(sl.insert_op(5, 52));
        assert_eq!(sl.search_op(5), Some(52));
    }

    #[test]
    fn fraser_reinsert_cycles() {
        let sl = FraserSkipList::new();
        for round in 0..10u64 {
            for k in 1..=40u64 {
                assert!(sl.insert(k, k + round), "round {round} insert {k}");
            }
            for k in 1..=40u64 {
                assert_eq!(sl.remove(k), Some(k + round), "round {round} remove {k}");
            }
            assert_eq!(sl.size(), 0, "round {round}");
        }
    }
}
