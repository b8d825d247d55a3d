//! Concurrent binary search trees (Table 1, "bst" rows) and the paper's new
//! **BST-TK** (§6.2).
//!
//! | Name | Type | Algorithm |
//! |------|------|-----------|
//! | [`AsyncBstInternal`] | seq | Sequential internal BST (asynchronized baseline). |
//! | [`AsyncBstExternal`] | seq | Sequential external BST (asynchronized baseline). |
//! | [`EllenBst`] | lf | Ellen/Fatourou/Ruppert/van Breugel lock-free external tree (Info-record helping). |
//! | [`NatarajanBst`] | lf | Natarajan–Mittal edge-marking external tree (minimal atomics, helping only on conflict). |
//! | [`BstTk`] | lb | The paper's BST-Ticket: external tree with versioned ticket locks, one lock per insert, two per remove. |
//!
//! The remaining trees evaluated by the paper (`bronson`, `drachsler`,
//! `howley`) are not reproduced; the README's *Known gaps* lists this, and
//! Figure 7's bench sweeps the implemented subset.
//!
//! All trees are *external* (data in leaves) except the internal sequential
//! baseline; keys are routed with the rule `key < node.key → left`.

mod bst_tk;
mod ellen;
mod natarajan;
mod seq;

pub use bst_tk::BstTk;
pub use ellen::EllenBst;
pub use natarajan::NatarajanBst;
pub use seq::{AsyncBstExternal, AsyncBstInternal};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn bst_tk_full_suite() {
        testing::full_suite(BstTk::new);
    }

    #[test]
    fn ellen_full_suite() {
        testing::full_suite(EllenBst::new);
    }

    #[test]
    fn natarajan_full_suite() {
        testing::full_suite(NatarajanBst::new);
    }

    #[test]
    fn all_bsts_ordered_model_check() {
        testing::ordered_model_check(BstTk::new, 1_500);
        testing::ordered_model_check(EllenBst::new, 1_500);
        testing::ordered_model_check(NatarajanBst::new, 1_500);
        testing::ordered_model_check(AsyncBstInternal::new, 1_500);
        testing::ordered_model_check(AsyncBstExternal::new, 1_500);
    }

    #[test]
    fn async_internal_sequential_suite() {
        testing::sequential_suite(AsyncBstInternal::new);
        testing::model_check(AsyncBstInternal::new, 3_000);
    }

    #[test]
    fn async_external_sequential_suite() {
        testing::sequential_suite(AsyncBstExternal::new);
        testing::model_check(AsyncBstExternal::new, 3_000);
    }
}
