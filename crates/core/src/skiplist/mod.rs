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
//! All variants store towers of up to [`MAX_LEVEL`] forward pointers; level
//! heights are drawn from the usual geometric distribution (p = ½).

// Skip-list code walks the parallel `preds`/`succs` arrays by level index;
// clippy's iterator-with-enumerate rewrite obscures that symmetry.
#[allow(clippy::needless_range_loop)]
mod fraser;
#[allow(clippy::needless_range_loop)]
mod optimistic;
#[allow(clippy::needless_range_loop)]
mod seq;

pub use fraser::{FraserOptSkipList, FraserSkipList};
pub use optimistic::{HerlihySkipList, PughSkipList};
pub use seq::AsyncSkipList;

use std::cell::Cell;

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
