//! The copy-on-write list (Java `CopyOnWriteArrayList` analogue).
//!
//! Elements live in a single sorted array. Searches read the current array
//! without any store (and benefit from the serial memory accesses the paper
//! highlights in §5/ASCY1). Updates take a global lock, build a complete new
//! copy of the array, and publish it with a single pointer store — which is
//! why the paper measures an enormous number of cache-line transfers per
//! update (Figure 3) and why the global lock becomes a bottleneck as soon as
//! updates are present.
//!
//! With ASCY3 enabled (default), an update that cannot succeed returns after
//! the read-only search, without taking the global lock;
//! [`CopyList::without_ascy3`] reproduces the `copy-no` variant of Figure 6.

use std::alloc::Layout;
use std::sync::atomic::{AtomicPtr, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::TicketLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::OrderedMap;
use crate::stats;

/// Array snapshot layout: `[len, k0, v0, k1, v1, ...]`, all `u64`, allocated
/// through SSMEM so that readers can keep traversing a replaced snapshot
/// until their grace period expires.
struct Snapshot;

impl Snapshot {
    fn layout(len: usize) -> Layout {
        Layout::array::<u64>(1 + 2 * len).expect("snapshot layout")
    }

    fn alloc(len: usize) -> *mut u64 {
        let ptr = ssmem::alloc_raw(Self::layout(len)) as *mut u64;
        // SAFETY: freshly allocated with room for the length header.
        unsafe { *ptr = len as u64 };
        ptr
    }

    /// # Safety
    ///
    /// `ptr` must point to a live snapshot allocation.
    unsafe fn len(ptr: *const u64) -> usize {
        // SAFETY: per contract.
        unsafe { *ptr as usize }
    }

    /// # Safety
    ///
    /// `ptr` must point to a live snapshot with `i < len`.
    unsafe fn pair(ptr: *const u64, i: usize) -> (u64, u64) {
        // SAFETY: per contract.
        unsafe { (*ptr.add(1 + 2 * i), *ptr.add(2 + 2 * i)) }
    }

    /// # Safety
    ///
    /// `ptr` must point to a live, exclusively owned snapshot with `i < len`.
    unsafe fn set_pair(ptr: *mut u64, i: usize, key: u64, value: u64) {
        // SAFETY: per contract.
        unsafe {
            *ptr.add(1 + 2 * i) = key;
            *ptr.add(2 + 2 * i) = value;
        }
    }

    /// Binary search over the sorted keys.
    ///
    /// # Safety
    ///
    /// `ptr` must point to a live snapshot.
    unsafe fn position(ptr: *const u64, key: u64) -> Result<usize, usize> {
        // SAFETY: per contract; indices stay below len.
        unsafe {
            let len = Self::len(ptr);
            let mut lo = 0usize;
            let mut hi = len;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let (k, _) = Self::pair(ptr, mid);
                if k < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo < len && Self::pair(ptr, lo).0 == key {
                Ok(lo)
            } else {
                Err(lo)
            }
        }
    }
}

/// The copy-on-write array list (lock-based, global lock).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::CopyList;
///
/// let list = CopyList::new();
/// assert!(list.insert(3, 33));
/// assert_eq!(list.search(3), Some(33));
/// assert_eq!(list.remove(3), Some(33));
/// ```
pub struct CopyList {
    current: AtomicPtr<u64>,
    lock: TicketLock,
    ascy3: bool,
}

// SAFETY: the snapshot pointer is atomic; snapshots are immutable once
// published and reclaimed only after an SSMEM grace period; updates are
// serialized by the global lock.
unsafe impl Send for CopyList {}
// SAFETY: see above.
unsafe impl Sync for CopyList {}

impl CopyList {
    /// Creates an empty list with ASCY3 enabled.
    pub fn new() -> Self {
        Self::with_ascy3(true)
    }

    /// Creates the `copy-no` variant of Figure 6.
    pub fn without_ascy3() -> Self {
        Self::with_ascy3(false)
    }

    fn with_ascy3(ascy3: bool) -> Self {
        let empty = Snapshot::alloc(0);
        Self {
            current: AtomicPtr::new(empty),
            lock: TicketLock::new(),
            ascy3,
        }
    }
}

impl ConcurrentMap for CopyList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let snap = self.current.load(Ordering::Acquire);
        stats::record_operation();
        // SAFETY: the guard keeps the snapshot alive even if an update
        // replaces and retires it concurrently.
        unsafe {
            match Snapshot::position(snap, key) {
                Ok(i) => Some(Snapshot::pair(snap, i).1),
                Err(_) => None,
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        if self.ascy3 && self.search_inner(key).is_some() {
            stats::record_operation();
            return false;
        }
        self.lock.lock();
        stats::record_lock();
        let snap = self.current.load(Ordering::Acquire);
        // SAFETY: updates are serialized by the global lock; the old snapshot
        // is retired only after the new one is published.
        let result = unsafe {
            match Snapshot::position(snap, key) {
                Ok(_) => false,
                Err(pos) => {
                    let len = Snapshot::len(snap);
                    let new_snap = Snapshot::alloc(len + 1);
                    for i in 0..pos {
                        let (k, v) = Snapshot::pair(snap, i);
                        Snapshot::set_pair(new_snap, i, k, v);
                    }
                    Snapshot::set_pair(new_snap, pos, key, value);
                    for i in pos..len {
                        let (k, v) = Snapshot::pair(snap, i);
                        Snapshot::set_pair(new_snap, i + 1, k, v);
                    }
                    // The whole copy is traffic on shared memory once the
                    // pointer is published.
                    stats::record_stores(2 * (len as u64 + 1) + 1);
                    self.current.store(new_snap, Ordering::Release);
                    ssmem::retire_raw(snap as *mut u8, Snapshot::layout(len));
                    true
                }
            }
        };
        self.lock.unlock();
        stats::record_operation();
        result
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        if self.ascy3 && self.search_inner(key).is_none() {
            stats::record_operation();
            return None;
        }
        self.lock.lock();
        stats::record_lock();
        let snap = self.current.load(Ordering::Acquire);
        // SAFETY: as in `insert`.
        let result = unsafe {
            match Snapshot::position(snap, key) {
                Err(_) => None,
                Ok(pos) => {
                    let len = Snapshot::len(snap);
                    let value = Snapshot::pair(snap, pos).1;
                    let new_snap = Snapshot::alloc(len - 1);
                    for i in 0..pos {
                        let (k, v) = Snapshot::pair(snap, i);
                        Snapshot::set_pair(new_snap, i, k, v);
                    }
                    for i in pos + 1..len {
                        let (k, v) = Snapshot::pair(snap, i);
                        Snapshot::set_pair(new_snap, i - 1, k, v);
                    }
                    stats::record_stores(2 * (len as u64 - 1) + 1);
                    self.current.store(new_snap, Ordering::Release);
                    ssmem::retire_raw(snap as *mut u8, Snapshot::layout(len));
                    Some(value)
                }
            }
        };
        self.lock.unlock();
        stats::record_operation();
        result
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let snap = self.current.load(Ordering::Acquire);
        // SAFETY: guard keeps the snapshot alive.
        unsafe { Snapshot::len(snap) }
    }
}

impl CopyList {
    /// Read-only lookup used by the ASCY3 pre-check (caller holds a guard).
    fn search_inner(&self, key: u64) -> Option<u64> {
        let snap = self.current.load(Ordering::Acquire);
        // SAFETY: caller holds an SSMEM guard.
        unsafe {
            match Snapshot::position(snap, key) {
                Ok(i) => Some(Snapshot::pair(snap, i).1),
                Err(_) => None,
            }
        }
    }
}

impl OrderedMap for CopyList {
    /// Walks one published snapshot: binary-search to the first key `>= lo`,
    /// then emit the (already sorted, already unique) tail. The snapshot is
    /// immutable, so this is the one backing whose scans *are* atomic, and
    /// the one walk that needs no strict-ascent filter.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        let snap = self.current.load(Ordering::Acquire);
        // SAFETY: the guard keeps the snapshot alive even if an update
        // replaces and retires it concurrently; indices stay below len.
        unsafe {
            let len = Snapshot::len(snap);
            let start = match Snapshot::position(snap, lo) {
                Ok(i) | Err(i) => i,
            };
            stats::record_traversal((len - start) as u64);
            for i in start..len {
                let (k, v) = Snapshot::pair(snap, i);
                if !visit(k, v) {
                    return;
                }
            }
        }
    }
}

impl Default for CopyList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CopyList {
    fn drop(&mut self) {
        let snap = self.current.load(Ordering::Relaxed);
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; the current snapshot is owned by us.
        unsafe {
            let len = Snapshot::len(snap);
            ssmem::dealloc_raw_immediate(snap as *mut u8, Snapshot::layout(len));
        }
    }
}

impl std::fmt::Debug for CopyList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CopyList")
            .field("ascy3", &self.ascy3)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = CopyList::new();
        assert_eq!(l.size(), 0);
        for k in [10u64, 5, 20, 15] {
            assert!(l.insert(k, k * 2));
        }
        assert!(!l.insert(10, 0));
        assert_eq!(l.size(), 4);
        assert_eq!(l.search(15), Some(30));
        assert_eq!(l.remove(5), Some(10));
        assert_eq!(l.remove(5), None);
        assert_eq!(l.size(), 3);
    }

    #[test]
    fn keeps_array_sorted() {
        let l = CopyList::new();
        for k in (1..=32u64).rev() {
            assert!(l.insert(k, k));
        }
        for k in 1..=32u64 {
            assert_eq!(l.search(k), Some(k));
        }
        for k in (1..=32u64).step_by(3) {
            assert_eq!(l.remove(k), Some(k));
        }
        assert_eq!(l.size(), 32 - 32usize.div_ceil(3));
    }

    #[test]
    fn non_ascy3_variant_behaves_identically() {
        let l = CopyList::without_ascy3();
        assert!(l.insert(1, 1));
        assert!(!l.insert(1, 2));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.remove(1), Some(1));
    }
}
