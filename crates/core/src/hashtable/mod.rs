//! Concurrent hash tables (Table 1, "hash table" rows) and the paper's new
//! **CLHT** (cache-line hash table, §6.1).
//!
//! | Name | Type | Algorithm |
//! |------|------|-----------|
//! | [`AsyncHashTable`] | seq | One sequential list per bucket (asynchronized baseline). |
//! | [`CouplingHashTable`] | flb | One lock-coupling list per bucket. |
//! | [`PughHashTable`] | lb | One Pugh list per bucket. |
//! | [`LazyHashTable`] | lb | One lazy list per bucket. |
//! | [`CopyHashTable`] | lb | One copy-on-write list per bucket. |
//! | [`HarrisHashTable`] | lf | One Harris(-opt) list per bucket. |
//! | [`UrcuHashTable`] | lb | RCU-style table: removals wait for a grace period before freeing. |
//! | [`JavaHashTable`] | lb | ConcurrentHashMap-style striped table (512 locks) with resizing. |
//! | [`TbbHashTable`] | flb | TBB-style table with per-bucket reader-writer locks. |
//! | [`ClhtLb`] | lb | Cache-line hash table, lock-based variant. |
//! | [`ClhtLf`] | lf | Cache-line hash table, lock-free variant (`snapshot_t`). |
//!
//! The list-per-bucket tables are built by composing [`BucketTable`] with the
//! corresponding algorithm from [`crate::list`], exactly like the original
//! ASCYLIB builds its hash tables from its lists.

mod bucket;
mod clht_lb;
mod clht_lf;
mod java;
mod tbb;
mod urcu;

pub use bucket::BucketTable;
pub use clht_lb::ClhtLb;
pub use clht_lf::ClhtLf;
pub use java::JavaHashTable;
pub use tbb::TbbHashTable;
pub use urcu::UrcuHashTable;

use crate::list::{
    AsyncList, CopyList, CouplingList, HarrisOptList, LazyList, PughList,
};

/// Asynchronized hash table: one sequential list per bucket (the paper's
/// `async` hash-table baseline; not linearizable under concurrency).
pub type AsyncHashTable = BucketTable<AsyncList>;

/// Hash table with one hand-over-hand (lock-coupling) list per bucket.
pub type CouplingHashTable = BucketTable<CouplingList>;

/// Hash table with one Pugh list per bucket.
pub type PughHashTable = BucketTable<PughList>;

/// Hash table with one lazy list per bucket.
pub type LazyHashTable = BucketTable<LazyList>;

/// Hash table with one copy-on-write list per bucket.
pub type CopyHashTable = BucketTable<CopyList>;

/// Hash table with one ASCY-compliant Harris list per bucket (the paper's
/// `harris` hash table uses the `harris-opt` list).
pub type HarrisHashTable = BucketTable<HarrisOptList>;

impl AsyncHashTable {
    /// Creates a table with `buckets` sequential-list buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, AsyncList::new)
    }
}

impl CouplingHashTable {
    /// Creates a table with `buckets` lock-coupling buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, CouplingList::new)
    }
}

impl PughHashTable {
    /// Creates a table with `buckets` Pugh-list buckets (ASCY3 enabled).
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, PughList::new)
    }

    /// The `pugh-no` variant of Figure 6 (ASCY3 disabled).
    pub fn with_buckets_no_ascy3(buckets: usize) -> Self {
        BucketTable::new_with(buckets, PughList::without_ascy3)
    }
}

impl LazyHashTable {
    /// Creates a table with `buckets` lazy-list buckets (ASCY3 enabled).
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, LazyList::new)
    }

    /// The `lazy-no` variant of Figure 6 (ASCY3 disabled).
    pub fn with_buckets_no_ascy3(buckets: usize) -> Self {
        BucketTable::new_with(buckets, LazyList::without_ascy3)
    }
}

impl CopyHashTable {
    /// Creates a table with `buckets` copy-on-write buckets (ASCY3 enabled).
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, CopyList::new)
    }

    /// The `copy-no` variant of Figure 6 (ASCY3 disabled).
    pub fn with_buckets_no_ascy3(buckets: usize) -> Self {
        BucketTable::new_with(buckets, CopyList::without_ascy3)
    }
}

impl HarrisHashTable {
    /// Creates a table with `buckets` lock-free buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        BucketTable::new_with(buckets, HarrisOptList::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn lazy_hash_table_full_suite() {
        testing::full_suite(|| LazyHashTable::with_buckets(64));
    }

    #[test]
    fn pugh_hash_table_full_suite() {
        testing::full_suite(|| PughHashTable::with_buckets(64));
    }

    #[test]
    fn copy_hash_table_full_suite() {
        testing::full_suite(|| CopyHashTable::with_buckets(64));
    }

    #[test]
    fn coupling_hash_table_full_suite() {
        testing::full_suite(|| CouplingHashTable::with_buckets(64));
    }

    #[test]
    fn harris_hash_table_full_suite() {
        testing::full_suite(|| HarrisHashTable::with_buckets(64));
    }

    #[test]
    fn java_hash_table_full_suite() {
        testing::full_suite(|| JavaHashTable::with_capacity(64));
    }

    #[test]
    fn java_hash_table_no_ascy3_full_suite() {
        testing::full_suite(|| JavaHashTable::with_capacity_no_ascy3(64));
    }

    #[test]
    fn tbb_hash_table_full_suite() {
        testing::full_suite(|| TbbHashTable::with_buckets(64));
    }

    #[test]
    fn urcu_hash_table_full_suite() {
        testing::full_suite(|| UrcuHashTable::with_buckets(64));
    }

    #[test]
    fn urcu_ssmem_hash_table_full_suite() {
        testing::full_suite(|| UrcuHashTable::with_buckets_ssmem(64));
    }

    #[test]
    fn clht_lb_full_suite() {
        testing::full_suite(|| ClhtLb::with_capacity(64));
    }

    #[test]
    fn clht_lf_full_suite() {
        testing::full_suite(|| ClhtLf::with_capacity(64));
    }

    #[test]
    fn async_hash_table_sequential_suite() {
        testing::sequential_suite(|| AsyncHashTable::with_buckets(16));
        testing::model_check(|| AsyncHashTable::with_buckets(16), 2_000);
    }

    #[test]
    fn small_bucket_counts_force_collisions() {
        // A single bucket degenerates to the underlying list: all keys
        // collide and ordering within the bucket is exercised.
        testing::sequential_suite(|| LazyHashTable::with_buckets(1));
        testing::sequential_suite(|| ClhtLb::with_capacity(1));
        testing::sequential_suite(|| ClhtLf::with_capacity(1));
    }
}
