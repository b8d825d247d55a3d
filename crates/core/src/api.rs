//! The common search-data-structure interface (Figure 1 of the paper).
//!
//! A search data structure is a set of `(key, value)` elements with three
//! operations: `search`, `insert` and `remove`. Updates have two phases: a
//! *parse* phase that locates the update point, and a *modification* phase
//! that applies the change.
//!
//! This module is the root of the trait hierarchy: [`ConcurrentMap`] is the
//! paper's point-operation interface, and the key-sorted structures extend
//! it with range scans via [`crate::ordered::OrderedMap`].

/// Smallest key usable by callers. Key `0` is reserved for head/empty-slot
/// sentinels inside the implementations.
pub const KEY_MIN: u64 = 1;

/// Largest key usable by callers. `u64::MAX` is reserved for tail sentinels.
pub const KEY_MAX: u64 = u64::MAX - 1;

/// Largest value usable with a [`ReplaceMap`]. `u64::MAX` is reserved: the
/// Fraser skip lists store it in a removed node's value word as a
/// tombstone, so that an `upsert` racing a `remove` cannot hand the same
/// old value to both callers. Implementations `debug_assert!` this on
/// every value they are given to store or compare.
pub const VALUE_MAX: u64 = u64::MAX - 1;

/// Most lanes a native [`ConcurrentMap::search_lanes`] interleaves at once.
/// Callers may pass any number (implementations chunk); callers that build
/// their lane list on the stack chunk by this.
pub const MAX_LANES: usize = 16;

/// The common interface of every concurrent search data structure in
/// ASCYLIB-RS (a set of `u64 → u64` elements, as in the original ASCYLIB,
/// which uses 64-bit keys and values).
///
/// # Key range
///
/// Keys must lie in `[KEY_MIN, KEY_MAX]`; the boundary values `0` and
/// `u64::MAX` are reserved for internal sentinels. Implementations
/// `debug_assert!` this.
///
/// # Consistency
///
/// All implementations except those in [`crate::asynchronized`] are
/// linearizable. The asynchronized variants deliberately omit
/// synchronization (the paper uses them as performance upper bounds) and are
/// only sequentially correct.
pub trait ConcurrentMap: Send + Sync {
    /// Looks for an element with the given key and returns its value.
    fn search(&self, key: u64) -> Option<u64>;

    /// Attempts to insert a new element; succeeds iff no element with the
    /// same key is present. Returns `true` on success.
    fn insert(&self, key: u64, value: u64) -> bool;

    /// Attempts to remove the element with the given key; returns its value
    /// if such an element existed.
    fn remove(&self, key: u64) -> Option<u64>;

    /// Number of elements currently in the structure.
    ///
    /// Not linearizable (it may traverse the structure without
    /// synchronization); intended for tests, sanity checks and reporting.
    fn size(&self) -> usize;

    /// Returns `true` if the structure holds no elements (see [`Self::size`]
    /// for the consistency caveat).
    fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// `true` if the given key is present (convenience wrapper over
    /// [`Self::search`]).
    fn contains(&self, key: u64) -> bool {
        self.search(key).is_some()
    }

    /// A batch of searches, each lane on its own instance: `out[i]` is
    /// what `lanes[i].0.search(lanes[i].1)` answers, and each lane
    /// linearizes on its own exactly as that call would (the batch is not
    /// atomic). The default runs the searches one after another; a
    /// structure whose search is a chain of dependent loads may interleave
    /// the chains so their cache misses overlap
    /// ([`crate::skiplist::FraserOptSkipList`] does).
    ///
    /// # Panics
    ///
    /// If `out` and `lanes` differ in length.
    fn search_lanes(lanes: &[(&Self, u64)], out: &mut [Option<u64>])
    where
        Self: Sized,
    {
        assert_eq!(lanes.len(), out.len(), "one answer slot per lane");
        for (&(map, key), answer) in lanes.iter().zip(out) {
            *answer = map.search(key);
        }
    }
}

/// A [`ConcurrentMap`] that can overwrite a present key's value in place.
///
/// `insert` is insert-if-absent, so without this an overwrite is a
/// `remove` followed by an `insert`: two structural updates, and a window
/// in which a concurrent `search` of a key that is never deleted misses.
/// `upsert` is the store a cache's SET makes: on a present key, one
/// value-word update on the element the parse phase found (ASCY4: a
/// successful update writes what a sequential one would), and on an absent
/// one the insert, as one operation. `compare_replace` is that in-place
/// update made conditional on the value it finds, for callers that must
/// not overwrite a value they did not see, and `remove_if` is `remove`
/// under the same condition.
///
/// # Value range
///
/// Values must be at most [`VALUE_MAX`].
pub trait ReplaceMap: ConcurrentMap {
    /// Makes `value` the value of `key`: atomically swaps it over a present
    /// key's value and returns the old value, or inserts the key and
    /// answers `None`. It linearizes as one swap or one `insert`,
    /// never both, so a concurrent `remove` of the key cannot make it fail
    /// or lose a value. A structure parses once for both outcomes where it
    /// can (`fraser-opt`'s walk to an absent key is also its insert's
    /// parse).
    fn upsert(&self, key: u64, value: u64) -> Option<u64>;

    /// Atomically swaps the value of `key` to `value` if it is `expected`.
    /// A mismatch answers `Err(Some(current))` and an absent key
    /// `Err(None)`; neither writes anything. `expected` must be at most
    /// [`VALUE_MAX`] too.
    fn compare_replace(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>>;

    /// Atomically removes `key` if its value is `expected`. Errors as
    /// [`compare_replace`](Self::compare_replace)'s: a mismatch answers
    /// `Err(Some(current))` and an absent key `Err(None)`, and neither
    /// removes anything.
    fn remove_if(&self, key: u64, expected: u64) -> Result<(), Option<u64>>;
}

/// Shared handles delegate, like the [`ConcurrentMap`] impl below.
impl<M: ReplaceMap + ?Sized> ReplaceMap for std::sync::Arc<M> {
    fn upsert(&self, key: u64, value: u64) -> Option<u64> {
        (**self).upsert(key, value)
    }

    fn compare_replace(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>> {
        (**self).compare_replace(key, expected, value)
    }

    fn remove_if(&self, key: u64, expected: u64) -> Result<(), Option<u64>> {
        (**self).remove_if(key, expected)
    }
}

/// Shared handles delegate to the underlying structure, so an
/// `Arc<dyn ConcurrentMap>` (e.g. from [`crate::registry`]) is itself a
/// `ConcurrentMap` and can back composite layers such as sharded maps.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for std::sync::Arc<M> {
    fn search(&self, key: u64) -> Option<u64> {
        (**self).search(key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        (**self).insert(key, value)
    }

    fn remove(&self, key: u64) -> Option<u64> {
        (**self).remove(key)
    }

    fn size(&self) -> usize {
        (**self).size()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn contains(&self, key: u64) -> bool {
        (**self).contains(key)
    }
}

/// Checks that a caller-supplied key is within the usable range.
#[inline]
pub(crate) fn debug_check_key(key: u64) {
    debug_assert!(
        (KEY_MIN..=KEY_MAX).contains(&key),
        "keys must be in [{KEY_MIN}, {KEY_MAX}], got {key}"
    );
}

/// Checks that a caller-supplied value avoids the reserved tombstone.
#[inline]
pub(crate) fn debug_check_value(value: u64) {
    debug_assert!(value <= VALUE_MAX, "values must be at most {VALUE_MAX}, got {value}");
}

/// Which synchronization family an algorithm belongs to (Table 1 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Sequential implementation, used as an (incorrect) asynchronized
    /// concurrent baseline.
    Sequential,
    /// Fully lock-based: all three operations acquire locks.
    FullyLockBased,
    /// Hybrid lock-based: only the modification phase of updates locks.
    LockBased,
    /// Lock-free: no locks, atomic operations only.
    LockFree,
}

impl std::fmt::Display for SyncKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SyncKind::Sequential => "seq",
            SyncKind::FullyLockBased => "flb",
            SyncKind::LockBased => "lb",
            SyncKind::LockFree => "lf",
        };
        f.write_str(s)
    }
}

/// Which abstract data structure an algorithm implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Sorted singly-linked list.
    LinkedList,
    /// Hash table.
    HashTable,
    /// Skip list.
    SkipList,
    /// Binary search tree.
    Bst,
}

impl std::fmt::Display for StructureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StructureKind::LinkedList => "linked list",
            StructureKind::HashTable => "hash table",
            StructureKind::SkipList => "skip list",
            StructureKind::Bst => "bst",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_excludes_sentinels() {
        assert_eq!(KEY_MIN, 1);
        assert_eq!(KEY_MAX, u64::MAX - 1);
    }

    #[test]
    fn arc_handles_delegate_to_the_inner_structure() {
        use crate::list::LazyList;
        use std::sync::Arc;

        let inner = Arc::new(LazyList::new());
        let handle: Arc<dyn ConcurrentMap> = inner.clone();
        assert!(handle.insert(3, 30));
        // The blanket impl makes the Arc itself usable as a map...
        assert_eq!(ConcurrentMap::search(&handle, 3), Some(30));
        assert!(ConcurrentMap::contains(&handle, 3));
        assert_eq!(ConcurrentMap::size(&handle), 1);
        assert!(!ConcurrentMap::is_empty(&handle));
        // ...and mutations are visible through the original handle.
        assert_eq!(inner.search(3), Some(30));
        assert_eq!(ConcurrentMap::remove(&handle, 3), Some(30));
        assert!(inner.is_empty());
    }

    #[test]
    fn kinds_display() {
        assert_eq!(SyncKind::LockFree.to_string(), "lf");
        assert_eq!(SyncKind::LockBased.to_string(), "lb");
        assert_eq!(SyncKind::FullyLockBased.to_string(), "flb");
        assert_eq!(SyncKind::Sequential.to_string(), "seq");
        assert_eq!(StructureKind::SkipList.to_string(), "skip list");
    }
}
