//! CLHT-LB: the lock-based cache-line hash table (§6.1 of the paper).
//!
//! CLHT captures the basic idea behind ASCY: **avoid cache-line transfers**.
//! Each bucket occupies exactly one cache line (64 bytes = 8 words) laid out
//! as
//!
//! ```text
//! | concurrency | k1 | k2 | k3 | v1 | v2 | v3 | next |
//! ```
//!
//! and updates modify key/value pairs **in place**, so most operations
//! complete with at most one cache-line transfer. Searches obtain an atomic
//! snapshot of each key/value pair (read value, check key, re-check value)
//! and never store (ASCY1). Updates first search to check feasibility
//! (ASCY3), then acquire the bucket lock stored in the concurrency word,
//! re-validate, and modify in place (ASCY4: a successful update stores to a
//! single cache line). If a bucket is full, a new bucket is linked through
//! the `next` pointer (this implementation links overflow buckets instead of
//! resizing the whole table).

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, debug_check_value, ConcurrentMap, ReplaceMap};
use crate::stats;

/// Number of key/value pairs per cache-line bucket.
pub(crate) const ENTRIES_PER_BUCKET: usize = 3;

/// One cache line: concurrency word, three keys, three values, next pointer.
#[repr(C, align(64))]
pub(crate) struct Bucket {
    lock: AtomicU64,
    keys: [AtomicU64; ENTRIES_PER_BUCKET],
    vals: [AtomicU64; ENTRIES_PER_BUCKET],
    next: AtomicPtr<Bucket>,
}

impl Bucket {
    pub(crate) fn empty() -> Self {
        Self {
            lock: AtomicU64::new(0),
            keys: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            vals: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

fn new_overflow_bucket(key: u64, value: u64) -> *mut Bucket {
    let b = Bucket::empty();
    // Relaxed: the bucket is still private; the caller's `next` store (under
    // the bucket lock) is what publishes it.
    b.keys[0].store(key, Ordering::Relaxed);
    b.vals[0].store(value, Ordering::Relaxed);
    ssmem::alloc(b)
}

/// The lock-based cache-line hash table (CLHT-LB).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::hashtable::ClhtLb;
///
/// let t = ClhtLb::with_capacity(1024);
/// assert!(t.insert(11, 110));
/// assert_eq!(t.search(11), Some(110));
/// assert_eq!(t.remove(11), Some(110));
/// ```
pub struct ClhtLb {
    buckets: Box<[Bucket]>,
    mask: u64,
}

// SAFETY: all bucket words are atomics; in-place updates are serialized by
// the per-bucket lock; overflow buckets are only appended (never unlinked)
// during the table's lifetime, so traversals never touch freed memory.
unsafe impl Send for ClhtLb {}
// SAFETY: see above.
unsafe impl Sync for ClhtLb {}

impl ClhtLb {
    /// Creates a table with one cache-line bucket per expected element
    /// (rounded up to a power of two), i.e. a load factor well below the
    /// three slots per bucket.
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.max(1).next_power_of_two();
        let buckets: Vec<Bucket> = (0..n).map(|_| Bucket::empty()).collect();
        Self { buckets: buckets.into_boxed_slice(), mask: (n - 1) as u64 }
    }

    #[inline]
    fn bucket(&self, key: u64) -> &Bucket {
        let idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask;
        &self.buckets[idx as usize]
    }

    /// Store-free search of a bucket chain using the paper's atomic key/value
    /// snapshot: read the value, check the key, re-check the value.
    fn chain_search(bucket: &Bucket, key: u64) -> Option<u64> {
        let mut curr: *const Bucket = bucket;
        // SAFETY: overflow buckets are never unlinked while the table is
        // alive, so the chain is always safe to traverse.
        unsafe {
            while !curr.is_null() {
                let b = &*curr;
                for i in 0..ENTRIES_PER_BUCKET {
                    let mut val = b.vals[i].load(Ordering::Acquire);
                    while b.keys[i].load(Ordering::Acquire) == key {
                        // Atomic snapshot: the pair is consistent only if the
                        // value did not change while we examined the key.
                        let again = b.vals[i].load(Ordering::Acquire);
                        if again == val {
                            return Some(val);
                        }
                        // The value moved under a matching key: an in-place
                        // `replace` (or a reuse of the slot for this key).
                        // The key may well still be here, so look at the
                        // slot again instead of reporting a miss.
                        val = again;
                    }
                }
                curr = b.next.load(Ordering::Acquire);
                stats::record_traversal(1);
            }
        }
        None
    }

    /// Acquires a bucket's lock (word 0 of the cache line).
    fn lock_bucket(bucket: &Bucket) {
        stats::record_lock();
        loop {
            // Relaxed pre-read (TTAS): only the Acquire CAS below synchronizes.
            if bucket.lock.load(Ordering::Relaxed) == 0
                && bucket
                    .lock
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    fn unlock_bucket(bucket: &Bucket) {
        bucket.lock.store(0, Ordering::Release);
    }

    /// The shared shape of `remove` and `replace`: fail read-only when `key`
    /// is absent (ASCY3); otherwise lock the bucket, find the key's slot
    /// again and apply `update` to it — one in-place store — returning
    /// what it returns.
    fn update_in_place(
        &self,
        key: u64,
        update: impl FnOnce(&Bucket, usize) -> u64,
    ) -> Option<u64> {
        let bucket = self.bucket(key);
        if Self::chain_search(bucket, key).is_none() {
            stats::record_operation();
            return None;
        }
        Self::lock_bucket(bucket);
        let mut curr: *const Bucket = bucket;
        let mut result = None;
        // SAFETY: chain is append-only; the lock serializes modifications.
        unsafe {
            'chain: while !curr.is_null() {
                let b = &*curr;
                for i in 0..ENTRIES_PER_BUCKET {
                    if b.keys[i].load(Ordering::Acquire) == key {
                        result = Some(update(b, i));
                        stats::record_store();
                        break 'chain;
                    }
                }
                curr = b.next.load(Ordering::Acquire);
            }
        }
        Self::unlock_bucket(bucket);
        stats::record_operation();
        result
    }
}

impl ConcurrentMap for ClhtLb {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        Self::chain_search(self.bucket(key), key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        debug_check_value(value);
        let bucket = self.bucket(key);
        // ASCY3: check feasibility with a read-only search first.
        if Self::chain_search(bucket, key).is_some() {
            stats::record_operation();
            return false;
        }
        let _guard = ssmem::protect();
        Self::lock_bucket(bucket);
        // Under the lock: re-validate, find a free slot, modify in place.
        let mut curr: *const Bucket = bucket;
        let mut free_slot: Option<(*const Bucket, usize)> = None;
        let mut last: *const Bucket;
        // SAFETY: the chain is stable (append-only) and the lock serializes
        // all modifications of this bucket chain.
        let inserted = unsafe {
            loop {
                let b = &*curr;
                for i in 0..ENTRIES_PER_BUCKET {
                    let k = b.keys[i].load(Ordering::Acquire);
                    if k == key {
                        // Concurrent insert beat us to it.
                        Self::unlock_bucket(bucket);
                        stats::record_operation();
                        return false;
                    }
                    if k == 0 && free_slot.is_none() {
                        free_slot = Some((curr, i));
                    }
                }
                last = curr;
                let next = b.next.load(Ordering::Acquire);
                if next.is_null() {
                    break;
                }
                curr = next;
            }
            match free_slot {
                Some((b, i)) => {
                    let b = &*b;
                    // Value first, then key: a concurrent snapshot only
                    // treats the slot as occupied once the key is visible.
                    b.vals[i].store(value, Ordering::Release);
                    b.keys[i].store(key, Ordering::Release);
                    stats::record_stores(2);
                    true
                }
                None => {
                    // Chain a fresh cache-line bucket.
                    let nb = new_overflow_bucket(key, value);
                    (*last).next.store(nb, Ordering::Release);
                    stats::record_store();
                    true
                }
            }
        };
        Self::unlock_bucket(bucket);
        stats::record_operation();
        inserted
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.update_in_place(key, |b, i| {
            let val = b.vals[i].load(Ordering::Acquire);
            // In-place removal: clearing the key frees the slot.
            b.keys[i].store(0, Ordering::Release);
            val
        })
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: chain is append-only.
        unsafe {
            for bucket in self.buckets.iter() {
                let mut curr: *const Bucket = bucket;
                while !curr.is_null() {
                    let b = &*curr;
                    for i in 0..ENTRIES_PER_BUCKET {
                        if b.keys[i].load(Ordering::Acquire) != 0 {
                            count += 1;
                        }
                    }
                    curr = b.next.load(Ordering::Acquire);
                }
            }
        }
        count
    }
}

impl ReplaceMap for ClhtLb {
    /// In-place overwrite under the bucket lock: one store to the value
    /// word of the slot holding `key`.
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        debug_check_key(key);
        debug_check_value(value);
        self.update_in_place(key, |b, i| {
            let old = b.vals[i].load(Ordering::Acquire);
            b.vals[i].store(value, Ordering::Release);
            old
        })
    }
}

impl Drop for ClhtLb {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; only heap-allocated overflow buckets are
        // freed (the main array is owned by the Box).
        unsafe {
            for bucket in self.buckets.iter() {
                let mut curr = bucket.next.load(Ordering::Relaxed);
                while !curr.is_null() {
                    let next = (*curr).next.load(Ordering::Relaxed);
                    ssmem::dealloc_immediate(curr);
                    curr = next;
                }
            }
        }
    }
}

impl std::fmt::Debug for ClhtLb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClhtLb")
            .field("buckets", &self.buckets.len())
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn basic_semantics() {
        let t = ClhtLb::with_capacity(16);
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.search(1), Some(10));
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn overflow_buckets_are_chained() {
        // A single bucket with three slots forces chaining beyond 3 keys.
        let t = ClhtLb::with_capacity(1);
        for k in 1..=10u64 {
            assert!(t.insert(k, k * 2), "insert({k})");
        }
        assert_eq!(t.size(), 10);
        for k in 1..=10u64 {
            assert_eq!(t.search(k), Some(k * 2), "search({k})");
        }
        for k in 1..=10u64 {
            assert_eq!(t.remove(k), Some(k * 2), "remove({k})");
        }
        assert_eq!(t.size(), 0);
        // Freed slots are reused in place.
        for k in 1..=10u64 {
            assert!(t.insert(k, k), "reinsert({k})");
        }
        assert_eq!(t.size(), 10);
    }
}
