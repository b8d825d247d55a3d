//! Concurrent skip lists (Table 1, "skip list" rows).
//!
//! | Name | Type | Algorithm |
//! |------|------|-----------|
//! | [`AsyncSkipList`] | seq | Sequential skip list (asynchronized baseline). |
//! | [`PughSkipList`] | lb | Pugh's skip list: lock-free parse, per-level locking of predecessors. |
//! | [`HerlihySkipList`] | lb | Herlihy/Lev/Luchangco/Shavit optimistic skip list: lock all levels, validate, update. |
//! | [`FraserSkipList`] | lf | Fraser's lock-free skip list (CAS per level, search helps clean up and restarts). |
//! | [`FraserOptSkipList`] | lf | Fraser re-engineered with ASCY1–2 (`fraser-opt` in Figure 5): wait-free search, no restarts on failed clean-up. |
//!
//! Level heights are drawn from the usual geometric distribution (p = ½),
//! and every node is **allocated for its own height**: a fixed header that
//! ends in the level-0 link, followed by `toplevel − 1` upper links. Only
//! the two sentinels are [`MAX_LEVEL`] tall. All five variants share the one
//! layout helper at the bottom of this module, so the paper's figures compare
//! skip lists that differ in synchronization, not in node size:
//!
//! | `toplevel` | share of nodes | lock-free / sequential node | lock-based node |
//! |---|---|---|---|
//! | 1 | 1/2 | 32 B | 40 B |
//! | 2 | 1/4 | 40 B | 48 B |
//! | 3 | 1/8 | 48 B | 56 B |
//! | 4 | 1/16 | 56 B | 64 B |
//! | h | 2^-h | 24 + 8·h B | 32 + 8·h B |
//! | mean (2 links) | | 40 B | 48 B |
//! | [`MAX_LEVEL`] (sentinels) | | 216 B | 224 B |
//! | `fraser-opt`'s hint table, past its floor | | + 7–16 B per key | |
//!
//! The lock-free and sequential header is `key | value | toplevel | next0`
//! (32 B); the lock-based one adds the two flags and the lock before `next0`.
//! Past an approximate count of 8 192 keys, twice the paper's
//! average-contention skip list, [`FraserOptSkipList`] adds a lossy hint
//! table (see the `fraser` module): 8-byte slots, one per key of the count
//! rounded up to a power of two and grown an eighth past it, so 7 to 16 B
//! per key (8.4 B at 250 000 keys in one list), plus one 64-byte header
//! line. A table of 2 MiB or more sits on huge pages, as the nodes do.
//!
//! Nodes are word-aligned, not line-aligned: 15 of 16 are at most 56 B
//! (64 B lock-based) and lie on one or two cache lines, where a node with
//! all [`MAX_LEVEL`] links spread its key and its upper links over four. An
//! index of a million keys requests 40 MB instead of 216 MB.

// Skip-list code walks the parallel `preds`/`succs` arrays by level index;
// clippy's iterator-with-enumerate rewrite obscures that symmetry.
#[allow(clippy::needless_range_loop)]
mod fraser;
mod hint;
#[allow(clippy::needless_range_loop)]
mod optimistic;
#[allow(clippy::needless_range_loop)]
mod seq;

pub use fraser::{FraserOptSkipList, FraserSkipList};
pub use optimistic::{HerlihySkipList, PughSkipList};
pub use seq::AsyncSkipList;

/// Hint tables of [`FraserOptSkipList`]s allocated and not yet given back,
/// process-wide. For memory tests.
#[doc(hidden)]
pub fn hint_tables_live() -> usize {
    hint::live_tables()
}

use std::alloc::Layout;
use std::cell::Cell;

use ascylib_ssmem as ssmem;

/// Maximum tower height of any node.
pub const MAX_LEVEL: usize = 24;

thread_local! {
    static LEVEL_RNG: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

/// Draws a tower height in `[1, MAX_LEVEL]` from a geometric distribution
/// with p = ½ (each additional level is half as likely).
pub(crate) fn random_level() -> usize {
    LEVEL_RNG.with(|cell| {
        let mut x = cell.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cell.set(x);
        let level = (x.trailing_ones() as usize) + 1;
        level.min(MAX_LEVEL)
    })
}

/// The fixed part of a skip-list node: everything up to and including the
/// level-0 link. The `toplevel − 1` upper links follow it in the same
/// allocation and are reached only through [`link`].
///
/// # Safety
///
/// The implementing type must be `#[repr(C)]`, its **last** field must be the
/// level-0 link of type [`Self::Link`] at byte offset [`Self::LINK0`] with
/// no padding after it, `Link` must be one pointer-sized atomic word for
/// which all-zero bytes are the null link, and `toplevel` must return the
/// value the header was built with, unchanged for the node's lifetime (the
/// free paths recompute the allocation layout from it).
pub(crate) unsafe trait Tower: Sized {
    /// One forward pointer of the tower.
    type Link;
    /// Byte offset of the level-0 link inside the header.
    const LINK0: usize;
    /// Height this node was allocated with, in `1..=MAX_LEVEL`.
    fn toplevel(&self) -> usize;
}

/// The allocation behind a node of height `toplevel`: the header up to its
/// level-0 link, then one link per level.
pub(crate) const fn node_layout<N: Tower>(toplevel: usize) -> Layout {
    assert!(std::mem::size_of::<N>() == N::LINK0 + std::mem::size_of::<N::Link>());
    assert!(std::mem::size_of::<N::Link>() == std::mem::size_of::<usize>());
    assert!(std::mem::align_of::<N::Link>() <= std::mem::align_of::<N>());
    assert!(toplevel >= 1 && toplevel <= MAX_LEVEL);
    let size = N::LINK0 + toplevel * std::mem::size_of::<N::Link>();
    match Layout::from_size_align(size, std::mem::align_of::<N>()) {
        Ok(layout) => layout,
        Err(_) => panic!("node layout overflow"),
    }
}

/// Compile-time check of a header type against the byte counts its module
/// documents: the level-0 link at `link0`, nothing after it, and a node of
/// `h` levels exactly `link0 + 8·h` bytes at word alignment. Each node type
/// evaluates it once in a `const` item.
pub(crate) const fn assert_node_bytes<N: Tower>(link0: usize) {
    assert!(N::LINK0 == link0);
    assert!(std::mem::size_of::<N>() == link0 + 8);
    let mut h = 1;
    while h <= MAX_LEVEL {
        let layout = node_layout::<N>(h);
        assert!(layout.size() == link0 + 8 * h);
        assert!(layout.align() == 8);
        h += 1;
    }
}

/// Address of `node`'s link at `level`; no bounds check, no dereference.
///
/// # Safety
///
/// `node` must point to an allocation of at least `node_layout(level)`: the
/// result may be one past its end (the first link a node does not have).
#[inline]
unsafe fn link_ptr<N: Tower>(node: *mut N, level: usize) -> *mut N::Link {
    // SAFETY: per contract the offset stays inside the node's allocation.
    unsafe { node.cast::<u8>().add(N::LINK0).cast::<N::Link>().add(level) }
}

/// `node`'s forward pointer at `level`. This is the only way to an upper
/// link: no `&N` ever covers bytes past the header.
///
/// # Safety
///
/// `node` must have come from [`alloc_node`] and be live or protected (the
/// caller owns it or holds an SSMEM guard under which it was reached), and
/// `level < toplevel` of that node.
#[inline]
pub(crate) unsafe fn link<'a, N: Tower>(node: *mut N, level: usize) -> &'a N::Link {
    // SAFETY: per contract the header is readable and `level` is inside the
    // tower the node was allocated with.
    unsafe {
        let toplevel = (*node).toplevel();
        debug_assert!(level < toplevel, "link {level} of a {toplevel}-level node");
        &*link_ptr(node, level)
    }
}

/// Allocates a node of `header.toplevel()` levels through SSMEM, moves the
/// header in and nulls the upper links.
pub(crate) fn alloc_node<N: Tower>(header: N) -> *mut N {
    let toplevel = header.toplevel();
    let node = ssmem::alloc_raw(node_layout::<N>(toplevel)).cast::<N>();
    // SAFETY: the allocation is fresh (or recycled past its grace period),
    // aligned for `N` and `node_layout(toplevel)` bytes long: the header
    // fits, and links `1..toplevel` lie inside it. All-zero is the null
    // link per the `Tower` contract.
    unsafe {
        node.write(header);
        link_ptr(node, 1).write_bytes(0, toplevel - 1);
    }
    node
}

/// Retires an unlinked node; its memory is reused by nodes of the same
/// height once the grace period has passed.
///
/// # Safety
///
/// The [`ssmem::retire`] contract, for a node from [`alloc_node`].
#[inline]
pub(crate) unsafe fn retire_node<N: Tower>(node: *mut N) {
    // SAFETY: forwarded contract; the layout is the one `alloc_node` used,
    // recomputed from the height recorded in the header.
    unsafe { ssmem::retire_raw(node.cast(), node_layout::<N>((*node).toplevel())) }
}

/// Frees a node no other thread can reach (a lost publishing race, or
/// teardown under `&mut self`).
///
/// # Safety
///
/// The [`ssmem::dealloc_immediate`] contract, for a node from
/// [`alloc_node`].
#[inline]
pub(crate) unsafe fn free_node<N: Tower>(node: *mut N) {
    // SAFETY: as in `retire_node`.
    unsafe { ssmem::dealloc_raw_immediate(node.cast(), node_layout::<N>((*node).toplevel())) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn random_level_distribution_is_geometric() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        let samples = 100_000;
        for _ in 0..samples {
            let l = random_level();
            assert!((1..=MAX_LEVEL).contains(&l));
            counts[l] += 1;
        }
        // Roughly half of the samples are level 1, a quarter level 2, ...
        assert!(counts[1] > samples / 3, "level-1 fraction too small: {}", counts[1]);
        assert!(counts[2] > samples / 6);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
    }

    #[test]
    fn herlihy_skiplist_full_suite() {
        testing::full_suite(HerlihySkipList::new);
    }

    #[test]
    fn pugh_skiplist_full_suite() {
        testing::full_suite(PughSkipList::new);
    }

    #[test]
    fn fraser_skiplist_full_suite() {
        testing::full_suite(FraserSkipList::new);
    }

    #[test]
    fn fraser_opt_skiplist_full_suite() {
        testing::full_suite(FraserOptSkipList::new);
    }

    #[test]
    fn fraser_skiplists_replace_suite() {
        testing::replace_suite(FraserSkipList::new);
        testing::replace_suite(FraserOptSkipList::new);
    }

    #[test]
    fn hinted_fraser_opt_suites() {
        // The suites build lists below the hint floor; these run them over
        // a list past it.
        testing::full_suite(testing::HintedFraserOpt::new);
        testing::replace_suite(testing::HintedFraserOpt::new);
        testing::ordered_model_check(testing::HintedFraserOpt::new, 1_500);
    }

    #[test]
    fn all_skiplists_ordered_model_check() {
        testing::ordered_model_check(HerlihySkipList::new, 1_500);
        testing::ordered_model_check(PughSkipList::new, 1_500);
        testing::ordered_model_check(FraserSkipList::new, 1_500);
        testing::ordered_model_check(FraserOptSkipList::new, 1_500);
        testing::ordered_model_check(AsyncSkipList::new, 1_500);
    }

    #[test]
    fn async_skiplist_sequential_suite() {
        testing::sequential_suite(AsyncSkipList::new);
        testing::model_check(AsyncSkipList::new, 3_000);
    }
}
