//! CLHT-LF: the lock-free cache-line hash table (§6.1 of the paper).
//!
//! The lock-free variant keeps the one-cache-line bucket layout of
//! [`super::ClhtLb`] but replaces the bucket lock with the paper's
//! `snapshot_t` object occupying the concurrency word:
//!
//! ```text
//! struct snapshot_t { uint32_t version; uint8_t map[4]; }
//! ```
//!
//! The `map` bytes describe the state of each key/value slot (invalid,
//! valid, or being inserted) and the version number lets updates perform
//! atomic changes with a single CAS on the whole word: an insert first
//! *claims* an empty slot by CAS-ing its map byte to `INSERTING` (bumping
//! the version), writes the key/value pair into the claimed slot, and then
//! publishes it by CAS-ing the byte to `VALID`. A removal simply CAS-es the
//! byte back to `INVALID`. Searches read the snapshot word and the key/value
//! pair without ever storing (ASCY1).
//!
//! Deviations from the original: the original CLHT-LF grows by resizing the
//! whole table with helping; this implementation instead links overflow
//! buckets (like CLHT-LB) and resolves the rare duplicate-insert races that
//! chaining introduces with a deterministic "earliest slot wins"
//! post-validation (`resolve_duplicates`).

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::stats;

/// Number of key/value pairs per cache-line bucket.
const ENTRIES: usize = 3;

/// Slot states stored in the `map` bytes of the snapshot word.
mod slot {
    pub const INVALID: u8 = 0;
    pub const VALID: u8 = 1;
    pub const INSERTING: u8 = 2;
}

/// Helpers for manipulating the packed `snapshot_t` word:
/// low 32 bits = version, bytes 4..7 = map[0..3] (byte 7 unused).
mod snap {
    /// Extracts the state of slot `i`.
    #[inline]
    pub fn map(word: u64, i: usize) -> u8 {
        ((word >> (32 + 8 * i)) & 0xFF) as u8
    }

    /// Returns `word` with slot `i` set to `state` and the version bumped.
    #[inline]
    pub fn with_map(word: u64, i: usize, state: u8) -> u64 {
        let version = (word as u32).wrapping_add(1) as u64;
        let shift = 32 + 8 * i;
        let cleared = word & !(0xFFu64 << shift) & !0xFFFF_FFFFu64;
        cleared | version | ((state as u64) << shift)
    }
}

#[repr(C, align(64))]
struct Bucket {
    snapshot: AtomicU64,
    keys: [AtomicU64; ENTRIES],
    vals: [AtomicU64; ENTRIES],
    next: AtomicPtr<Bucket>,
}

/// A slot located by a chain scan: `(bucket, slot index, snapshot word at
/// observation time)`.
type SlotRef = (*const Bucket, usize, u64);

impl Bucket {
    fn empty() -> Self {
        Self {
            snapshot: AtomicU64::new(0),
            keys: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            vals: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// The lock-free cache-line hash table (CLHT-LF).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::hashtable::ClhtLf;
///
/// let t = ClhtLf::with_capacity(1024);
/// assert!(t.insert(21, 210));
/// assert_eq!(t.search(21), Some(210));
/// assert_eq!(t.remove(21), Some(210));
/// ```
pub struct ClhtLf {
    buckets: Box<[Bucket]>,
    mask: u64,
}

// SAFETY: every bucket word is an atomic; slots are only written by the
// thread that claimed them through the snapshot CAS; overflow buckets are
// append-only for the lifetime of the table.
unsafe impl Send for ClhtLf {}
// SAFETY: see above.
unsafe impl Sync for ClhtLf {}

impl ClhtLf {
    /// Creates a table with one cache-line bucket per expected element
    /// (rounded up to a power of two).
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

    /// Wait-free chain search (no stores, no retries beyond the per-pair
    /// snapshot re-read).
    fn chain_search(bucket: &Bucket, key: u64) -> Option<u64> {
        let mut curr: *const Bucket = bucket;
        // SAFETY: the chain is append-only while the table is alive.
        unsafe {
            while !curr.is_null() {
                let b = &*curr;
                let s = b.snapshot.load(Ordering::Acquire);
                for i in 0..ENTRIES {
                    if snap::map(s, i) == slot::VALID && b.keys[i].load(Ordering::Acquire) == key {
                        let val = b.vals[i].load(Ordering::Acquire);
                        // Atomic pair snapshot: the slot is still valid for
                        // this key if the snapshot word did not change.
                        if b.snapshot.load(Ordering::Acquire) == s
                            || b.keys[i].load(Ordering::Acquire) == key
                        {
                            return Some(val);
                        }
                    }
                }
                curr = b.next.load(Ordering::Acquire);
                stats::record_traversal(1);
            }
        }
        None
    }

    /// Scans a chain for `key` among VALID slots; also reports whether any
    /// slot is currently `INSERTING` and the first empty slot found.
    ///
    /// Returns `(found, pending_insert, free_slot, last_bucket)`.
    ///
    /// # Safety
    ///
    /// `bucket` must belong to this (alive) table.
    unsafe fn chain_scan(
        bucket: *const Bucket,
        key: u64,
    ) -> (Option<SlotRef>, bool, Option<SlotRef>, *const Bucket) {
        let mut curr = bucket;
        let mut pending = false;
        let mut free_slot = None;
        let mut last = bucket;
        // SAFETY: chain is append-only.
        unsafe {
            while !curr.is_null() {
                let b = &*curr;
                let s = b.snapshot.load(Ordering::Acquire);
                for i in 0..ENTRIES {
                    match snap::map(s, i) {
                        slot::VALID => {
                            if b.keys[i].load(Ordering::Acquire) == key {
                                return (Some((curr, i, s)), pending, free_slot, last);
                            }
                        }
                        slot::INSERTING => pending = true,
                        _ => {
                            if free_slot.is_none() {
                                free_slot = Some((curr, i, s));
                            }
                        }
                    }
                }
                last = curr;
                curr = b.next.load(Ordering::Acquire);
            }
        }
        (None, pending, free_slot, last)
    }

    /// Post-insert duplicate resolution (see the module docs): if the same
    /// key ended up VALID in two slots, the later slot (in chain-scan order)
    /// is invalidated by its owner; "later" loses.
    ///
    /// Returns `true` if our slot survived.
    ///
    /// # Safety
    ///
    /// `bucket` must be the chain head and `(my_bucket, my_slot)` a slot this
    /// thread just published.
    unsafe fn resolve_duplicates(
        bucket: *const Bucket,
        my_bucket: *const Bucket,
        my_slot: usize,
        key: u64,
    ) -> bool {
        // SAFETY: chain is append-only; we only invalidate the slot we own.
        unsafe {
            let mut curr = bucket;
            while !curr.is_null() {
                let b = &*curr;
                let s = b.snapshot.load(Ordering::Acquire);
                for i in 0..ENTRIES {
                    if snap::map(s, i) == slot::VALID
                        && b.keys[i].load(Ordering::Acquire) == key
                    {
                        if std::ptr::eq(curr, my_bucket) && i == my_slot {
                            // Ours is the earliest occurrence: keep it.
                            return true;
                        }
                        // An earlier occurrence exists: withdraw ours.
                        let mb = &*my_bucket;
                        loop {
                            let ms = mb.snapshot.load(Ordering::Acquire);
                            if snap::map(ms, my_slot) != slot::VALID {
                                break;
                            }
                            let new = snap::with_map(ms, my_slot, slot::INVALID);
                            let ok = mb
                                .snapshot
                                .compare_exchange(ms, new, Ordering::AcqRel, Ordering::Acquire)
                                .is_ok();
                            stats::record_atomic(ok);
                            if ok {
                                break;
                            }
                        }
                        return false;
                    }
                }
                curr = b.next.load(Ordering::Acquire);
            }
            true
        }
    }
}

impl ConcurrentMap for ClhtLf {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        stats::record_operation();
        Self::chain_search(self.bucket(key), key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let head: *const Bucket = self.bucket(key);
        loop {
            // SAFETY: the chain belongs to this table.
            let (found, pending, free_slot, last) = unsafe { Self::chain_scan(head, key) };
            if found.is_some() {
                stats::record_operation();
                return false;
            }
            if pending {
                // Another insert on this bucket is in flight; it may be
                // inserting the same key, so wait for it to resolve.
                stats::record_wait();
                std::hint::spin_loop();
                continue;
            }
            match free_slot {
                Some((bptr, i, s)) => {
                    // SAFETY: bptr is a live bucket of this table.
                    let b = unsafe { &*bptr };
                    // Claim the slot.
                    let claimed = snap::with_map(s, i, slot::INSERTING);
                    let ok = b
                        .snapshot
                        .compare_exchange(s, claimed, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                    stats::record_atomic(ok);
                    if !ok {
                        stats::record_restart();
                        continue;
                    }
                    // We own the slot: write the pair, then publish.
                    b.keys[i].store(key, Ordering::Release);
                    b.vals[i].store(value, Ordering::Release);
                    stats::record_stores(2);
                    loop {
                        let cur = b.snapshot.load(Ordering::Acquire);
                        debug_assert_eq!(snap::map(cur, i), slot::INSERTING);
                        let published = snap::with_map(cur, i, slot::VALID);
                        let ok = b
                            .snapshot
                            .compare_exchange(cur, published, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok();
                        stats::record_atomic(ok);
                        if ok {
                            break;
                        }
                    }
                    // SAFETY: we just published (bptr, i).
                    let survived = unsafe { Self::resolve_duplicates(head, bptr, i, key) };
                    stats::record_operation();
                    return survived;
                }
                None => {
                    // Chain a fresh bucket containing the pair, already VALID.
                    // Relaxed: the bucket is private until the AcqRel CAS on
                    // `last.next` below publishes it.
                    let nb = Bucket::empty();
                    nb.keys[0].store(key, Ordering::Relaxed);
                    nb.vals[0].store(value, Ordering::Relaxed);
                    nb.snapshot.store(snap::with_map(0, 0, slot::VALID), Ordering::Relaxed);
                    let nb = ssmem::alloc(nb);
                    // SAFETY: `last` is a live bucket; the CAS publishes the
                    // fully initialized overflow bucket.
                    let b = unsafe { &*last };
                    let ok = b
                        .next
                        .compare_exchange(
                            std::ptr::null_mut(),
                            nb,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok();
                    stats::record_atomic(ok);
                    if !ok {
                        // Someone else appended first; free ours and rescan.
                        // SAFETY: nb was never published.
                        unsafe { ssmem::dealloc_immediate(nb) };
                        stats::record_restart();
                        continue;
                    }
                    // SAFETY: we just published (nb, 0).
                    let survived = unsafe { Self::resolve_duplicates(head, nb, 0, key) };
                    stats::record_operation();
                    return survived;
                }
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let head: *const Bucket = self.bucket(key);
        loop {
            // SAFETY: the chain belongs to this table.
            let (found, _pending, _free, _last) = unsafe { Self::chain_scan(head, key) };
            match found {
                None => {
                    // ASCY3: no store on an unsuccessful removal.
                    stats::record_operation();
                    return None;
                }
                Some((bptr, i, s)) => {
                    // SAFETY: bptr is a live bucket of this table.
                    let b = unsafe { &*bptr };
                    let value = b.vals[i].load(Ordering::Acquire);
                    let invalidated = snap::with_map(s, i, slot::INVALID);
                    let ok = b
                        .snapshot
                        .compare_exchange(s, invalidated, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                    stats::record_atomic(ok);
                    if ok {
                        stats::record_operation();
                        return Some(value);
                    }
                    stats::record_restart();
                }
            }
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: chain is append-only.
        unsafe {
            for bucket in self.buckets.iter() {
                let mut curr: *const Bucket = bucket;
                while !curr.is_null() {
                    let b = &*curr;
                    let s = b.snapshot.load(Ordering::Acquire);
                    for i in 0..ENTRIES {
                        if snap::map(s, i) == slot::VALID {
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

impl Drop for ClhtLf {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; only overflow buckets were heap-allocated
        // through SSMEM.
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

impl std::fmt::Debug for ClhtLf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClhtLf")
            .field("buckets", &self.buckets.len())
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_word_helpers() {
        let w = 0u64;
        assert_eq!(snap::map(w, 0), slot::INVALID);
        let w1 = snap::with_map(w, 1, slot::VALID);
        assert_eq!(snap::map(w1, 1), slot::VALID);
        assert_eq!(snap::map(w1, 0), slot::INVALID);
        assert_eq!(snap::map(w1, 2), slot::INVALID);
        assert_eq!(w1 as u32, 1, "version must be bumped");
        let w2 = snap::with_map(w1, 1, slot::INVALID);
        assert_eq!(snap::map(w2, 1), slot::INVALID);
        assert_eq!(w2 as u32, 2);
    }

    #[test]
    fn bucket_is_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
    }

    #[test]
    fn basic_semantics() {
        let t = ClhtLf::with_capacity(16);
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.search(1), Some(10));
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.remove(1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn overflow_chaining_and_slot_reuse() {
        let t = ClhtLf::with_capacity(1);
        for k in 1..=12u64 {
            assert!(t.insert(k, k * 7), "insert({k})");
        }
        assert_eq!(t.size(), 12);
        for k in 1..=12u64 {
            assert_eq!(t.search(k), Some(k * 7));
        }
        for k in (1..=12u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 7));
        }
        assert_eq!(t.size(), 6);
        for k in (1..=12u64).step_by(2) {
            assert!(t.insert(k, k), "reinsert({k})");
        }
        assert_eq!(t.size(), 12);
    }
}
