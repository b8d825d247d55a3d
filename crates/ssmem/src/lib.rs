//! # ascylib-ssmem — SSMEM, an epoch-based allocator with garbage collection
//!
//! This crate reproduces **SSMEM**, the memory allocator with epoch-based
//! garbage collection that accompanies ASCYLIB in the ASPLOS'15 paper
//! *"Asynchronized Concurrency: The Secret to Scaling Concurrent Search Data
//! Structures"* (§3, "Memory management").
//!
//! The design follows the paper:
//!
//! * Memory freed by a data-structure operation ("retired") does **not**
//!   become available for reuse until a garbage-collection pass decides that
//!   no other thread can still hold a reference to it.
//! * The decision is based on **per-thread timestamps** that threads bump
//!   when they enter and leave data-structure operations (RCU/QSBR-style).
//!   A retired batch records a snapshot of all timestamps; its grace period
//!   is over once every other thread was either quiescent at the snapshot
//!   or has advanced its timestamp since.
//! * A batch is reused only after **two** grace periods: when a pass sees
//!   the first one over, the batch takes a second snapshot and waits for
//!   that one too. One grace period protects every reader that reached the
//!   object through the structure before it was unlinked. The second
//!   protects readers that reached it through a pointer a slower operation
//!   re-published after the unlink and withdrew again inside its guard —
//!   the window of `fraser-opt`'s lossy hint table (see
//!   `ascylib::skiplist`). The publisher was inside its operation at the
//!   first snapshot, so its withdraw precedes the end of the first grace
//!   period, and a reader that loaded the pointer before the withdraw is
//!   still inside its own operation at the second snapshot, or finished.
//! * The amount of garbage accumulated before a collection is attempted is
//!   configurable ([`set_gc_threshold`]), mirroring the
//!   `SSMEM_GC_FREE_SET_SIZE` knob the paper tunes per platform (512 on most
//!   machines, 128 on the Tilera).
//! * The allocator is **non-blocking**: the hot paths touch only the calling
//!   thread's state; the only shared write per operation is the owner
//!   thread's own (cache-line-padded) timestamp.
//!
//! # Where memory comes from
//!
//! Like the paper's SSMEM, objects are carved out of large chunks instead
//! of being requested from the system allocator one by one. Every layout
//! of at most 512 bytes that is a multiple of 8 bytes at alignment 8 —
//! every skip-list node, every blob with up to 496 payload bytes (488 with
//! an expiry deadline) — comes
//! from a slab arena:
//!
//! * **Chunks** of 2 MiB, 2 MiB-aligned, advised `MADV_HUGEPAGE` on Linux
//!   so one TLB entry covers a whole chunk (other targets get the same
//!   chunks on ordinary pages; a refused `madvise` is ignored). A thread
//!   takes 64 KiB **segments** from the current shared chunk and
//!   bump-allocates inside them with no per-object header, so a blob
//!   stored right before its index node sits next to it.
//! * **Freed objects** wait in their thread's pool; pool-cap overflow (in
//!   batches), the pool of an exiting thread, orphaned batches and
//!   [`dealloc_immediate`] / [`dealloc_raw_immediate`] go to a
//!   process-wide free list per size class, which a thread with an empty
//!   pool drains before it carves new memory.
//! * Arena memory is **never returned to the system** and an object never
//!   changes size class. [`census`] counts objects carved and free per
//!   class; [`arena_bytes`] is the bytes of segments carved so far.
//!
//! Other layouts (large blobs, cache-line-aligned hash buckets, zero-size
//! layouts) take the system allocator and a per-layout pool that releases
//! its overflow back to it. Memory retired with [`retire_with`] is never
//! pooled: its own release function gets it back after the grace periods.
//! A large table that must give its pages back early maps them itself
//! through [`pages`], which aligns one of 2 MiB or more to a huge page and
//! advises it as the arena advises its chunks.
//!
//! # Usage model
//!
//! Every thread that touches a concurrent structure implicitly owns a
//! thread-local [`SsmemAllocator`]. Data-structure operations wrap themselves
//! in a [`Guard`] (obtained from [`protect`]) and allocate/retire nodes with
//! [`alloc`] / [`retire`]:
//!
//! ```
//! use ascylib_ssmem as ssmem;
//!
//! // Inside a data-structure operation:
//! let _guard = ssmem::protect();
//! let node: *mut u64 = ssmem::alloc(42u64);
//! // ... publish the node, later unlink it ...
//! // SAFETY: the node has been unlinked from every shared pointer, so no new
//! // references to it can be created.
//! unsafe { ssmem::retire(node) };
//! ```
//!
//! # Safety
//!
//! [`retire`] is `unsafe`: the caller must guarantee the object has been
//! unlinked from all shared pointers before retiring it, and that readers
//! only traverse retired objects while holding a [`Guard`] that was created
//! before the retire. These are exactly the SSMEM rules from the paper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocator;
mod arena;
pub mod pages;
mod registry;

pub use allocator::{SsmemAllocator, SsmemStats};
pub use arena::{arena_bytes, census, ClassCensus};
pub use registry::registered_threads;

use std::cell::RefCell;

thread_local! {
    static THREAD_ALLOCATOR: RefCell<SsmemAllocator> = RefCell::new(SsmemAllocator::new());
}

/// Default number of retired objects accumulated before a GC pass is
/// attempted (the paper's `SSMEM_GC_FREE_SET_SIZE`, 512 on most platforms).
pub const DEFAULT_GC_THRESHOLD: usize = 512;

/// An RAII guard marking the calling thread as *inside* a data-structure
/// operation.
///
/// Creating the (outermost) guard bumps the thread's timestamp to an odd
/// value; dropping it bumps the timestamp back to even ("quiescent"). The
/// garbage collector uses these timestamps to decide when retired memory can
/// be reused. Guards may be nested; only the outermost transition touches the
/// shared timestamp.
#[derive(Debug)]
pub struct Guard {
    _private: (),
}

impl Guard {
    fn enter() -> Self {
        THREAD_ALLOCATOR.with(|a| a.borrow_mut().guard_enter());
        Guard { _private: () }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // Thread-local may already be gone during thread teardown; ignore.
        let _ = THREAD_ALLOCATOR.try_with(|a| a.borrow_mut().guard_exit());
    }
}

/// Enters a read-side / operation-side critical section.
///
/// Every search, insert, and remove of the ASCYLIB structures calls this once
/// at the top; the returned [`Guard`] keeps retired-but-not-yet-reclaimed
/// nodes alive until the operation finishes.
#[inline]
pub fn protect() -> Guard {
    Guard::enter()
}

/// Allocates an object through the calling thread's SSMEM allocator.
///
/// The allocation is served from the thread's reuse pool when a previously
/// retired object of the same layout has passed its grace period, otherwise
/// from fresh arena memory (see [Where memory comes from](crate#where-memory-comes-from))
/// or, for layouts the arena does not serve, the global allocator.
///
/// # Panics
///
/// Panics if `T` needs `Drop` (SSMEM never runs destructors; ASCYLIB nodes
/// are plain data).
#[inline]
pub fn alloc<T>(value: T) -> *mut T {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().alloc(value))
}

/// Retires an object previously returned by [`alloc`]: the memory will be
/// reused or released once no thread can still hold a reference to it.
///
/// # Safety
///
/// * `ptr` must have been returned by [`alloc`] (any thread) and not retired
///   or immediately deallocated before.
/// * The object must already be unreachable from the data structure's shared
///   pointers, so that only threads holding a [`Guard`] created before this
///   call can still be traversing it.
#[inline]
pub unsafe fn retire<T>(ptr: *mut T) {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().retire(ptr))
}

/// Immediately deallocates an object previously returned by [`alloc`].
///
/// This bypasses the grace period entirely and is only meant for tearing down
/// a data structure that is no longer shared (e.g. in `Drop` implementations,
/// which take `&mut self` and therefore have exclusive access).
///
/// # Safety
///
/// * `ptr` must have been returned by [`alloc`] and not retired/deallocated.
/// * No other thread may be able to reach the object.
#[inline]
pub unsafe fn dealloc_immediate<T>(ptr: *mut T) {
    // SAFETY: forwarded to the caller's contract.
    unsafe { allocator::dealloc_now(ptr) }
}

/// Allocates `layout` bytes of raw memory through the thread allocator
/// (used by the copy-on-write list for its array storage).
#[inline]
pub fn alloc_raw(layout: std::alloc::Layout) -> *mut u8 {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().alloc_raw(layout))
}

/// Retires raw memory previously obtained from [`alloc_raw`].
///
/// # Safety
///
/// Same contract as [`retire`], and `layout` must be the layout passed to
/// [`alloc_raw`].
#[inline]
pub unsafe fn retire_raw(ptr: *mut u8, layout: std::alloc::Layout) {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().retire_raw(ptr, layout))
}

/// Retires memory the caller allocated itself (say, a large table from the
/// system allocator): once its grace periods have passed, some thread calls
/// `release(ptr, layout)` on it, exactly once. Nothing is pooled, so memory
/// given back this way leaves the process's footprint when `release` frees
/// it.
///
/// # Safety
///
/// The [`retire`] contract for `ptr`, which must not be retired twice;
/// `release` must accept `ptr` with `layout` from any thread.
#[inline]
pub unsafe fn retire_with(ptr: *mut u8, layout: std::alloc::Layout, release: unsafe fn(*mut u8, std::alloc::Layout)) {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().retire_with(ptr, layout, release))
}

/// Immediately deallocates raw memory obtained from [`alloc_raw`].
///
/// # Safety
///
/// Same contract as [`dealloc_immediate`]; `layout` must match the
/// allocation.
#[inline]
pub unsafe fn dealloc_raw_immediate(ptr: *mut u8, layout: std::alloc::Layout) {
    // SAFETY: forwarded to the caller's contract.
    unsafe { allocator::dealloc_raw_now(ptr, layout) }
}

/// Sets the garbage threshold (number of retired objects per batch) for the
/// calling thread's allocator.
///
/// The paper sets this to 512 on most platforms and 128 on the Tilera to keep
/// TLB pressure low.
#[inline]
pub fn set_gc_threshold(threshold: usize) {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().set_gc_threshold(threshold));
}

/// Forces a garbage-collection attempt on the calling thread's allocator and
/// on the orphan sets left behind by exited threads. Returns the number of
/// objects reclaimed.
#[inline]
pub fn collect() -> usize {
    THREAD_ALLOCATOR.with(|a| a.borrow_mut().collect())
}

/// Returns a snapshot of the calling thread's allocator statistics.
#[inline]
pub fn thread_stats() -> SsmemStats {
    THREAD_ALLOCATOR.with(|a| a.borrow().stats())
}

/// Waits for a full grace period: every thread that was inside an operation
/// when `synchronize` was called has finished that operation.
///
/// This is the equivalent of `synchronize_rcu()` and is used by the
/// RCU-style hash table (`urcu` in the paper), whose removals wait for all
/// ongoing operations to complete before freeing memory.
///
/// # Panics
///
/// Panics (in debug builds) if called while the calling thread holds a
/// [`Guard`]: waiting for oneself would deadlock.
pub fn synchronize() {
    let me = THREAD_ALLOCATOR.with(|a| {
        let a = a.borrow();
        debug_assert_eq!(
            a.stats().guard_depth,
            0,
            "ssmem::synchronize must not be called inside a Guard"
        );
        a.entry_handle()
    });
    let snapshot = crate::registry::snapshot();
    for (entry, ts) in snapshot {
        if std::sync::Arc::ptr_eq(&entry, &me) {
            continue;
        }
        if ts % 2 == 0 {
            // Quiescent at snapshot time.
            continue;
        }
        // Inside an operation: wait until it finishes (timestamp changes).
        let mut spins = 0u64;
        while entry.ts.load(std::sync::atomic::Ordering::SeqCst) == ts {
            std::hint::spin_loop();
            spins += 1;
            if spins % 1024 == 0 {
                std::thread::yield_now();
            }
            if !entry.active.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn alloc_and_immediate_dealloc() {
        let p = alloc(7u64);
        // SAFETY: freshly allocated, never shared.
        unsafe {
            assert_eq!(*p, 7);
            dealloc_immediate(p);
        }
    }

    #[test]
    fn retired_memory_is_reused_after_grace_period() {
        set_gc_threshold(8);
        let mut ptrs = Vec::new();
        for i in 0..64u64 {
            let p = alloc(i);
            ptrs.push(p as usize);
            // SAFETY: never shared with another thread.
            unsafe { retire(p) };
        }
        // Other tests in this binary may briefly hold guards on their own
        // threads, which delays reclamation; retry until the grace period
        // clears.
        let mut reclaimed_any = false;
        for _ in 0..2_000 {
            collect();
            if thread_stats().reclaimed > 0 {
                reclaimed_any = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = thread_stats();
        assert!(stats.frees >= 64);
        assert!(reclaimed_any, "retirement should eventually reclaim: {stats:?}");
        // Allocate again: at least one address should be recycled.
        let mut reused = false;
        for i in 0..64u64 {
            let p = alloc(i);
            if ptrs.contains(&(p as usize)) {
                reused = true;
            }
            // SAFETY: never shared.
            unsafe { retire(p) };
        }
        assert!(reused, "expected the allocator to serve recycled addresses");
    }

    #[test]
    fn guard_blocks_reclamation_of_other_threads() {
        // Thread B holds a guard while thread A retires; A must not reclaim
        // until B drops its guard (B's timestamp is odd and unchanged).
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(AtomicU64::new(0));

        let b_barrier = Arc::clone(&barrier);
        let b_release = Arc::clone(&release);
        let handle = std::thread::spawn(move || {
            let _g = protect();
            b_barrier.wait(); // A may start retiring now.
            while b_release.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
            // Guard dropped here.
        });

        barrier.wait();
        set_gc_threshold(4);
        let pending_before = thread_stats().pending;
        for i in 0..32u64 {
            let p = alloc(i);
            // SAFETY: not shared.
            unsafe { retire(p) };
        }
        collect();
        let pending_guarded = thread_stats().pending;
        assert!(
            pending_guarded >= pending_before + 32,
            "memory must not be reclaimed while another thread is inside an operation \
             (pending before: {pending_before}, after: {pending_guarded})"
        );
        release.store(1, Ordering::Release);
        handle.join().unwrap();
        // Now the other thread is quiescent: reclamation proceeds.
        let mut drained = false;
        for _ in 0..2_000 {
            collect();
            if thread_stats().pending < pending_before + 32 {
                drained = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(drained, "reclamation should resume after the guard is dropped");
    }

    #[test]
    fn a_guard_taken_after_the_retire_snapshot_holds_back_reuse() {
        // C is inside an operation when A retires an object and seals it, so
        // the first grace period waits for C. B enters an operation after
        // the seal and before C leaves: it might have reached the object
        // through a pointer C re-published and is about to withdraw. Once C
        // leaves, the first grace period is over, and the object must still
        // not be reissued until B leaves too.
        let steps = Arc::new(std::sync::Barrier::new(3));
        let spawn = |role: fn(&std::sync::Barrier)| {
            let steps = Arc::clone(&steps);
            std::thread::spawn(move || role(&steps))
        };
        let c = spawn(|steps| {
            let guard = protect();
            steps.wait(); // 1: C is inside.
            steps.wait(); // 2: A has retired and sealed.
            steps.wait(); // 3: B is inside.
            drop(guard);
            steps.wait(); // 4: C has left.
            steps.wait();
            steps.wait();
        });
        let b = spawn(|steps| {
            let _ = thread_stats(); // register while quiescent
            steps.wait();
            steps.wait();
            let guard = protect();
            steps.wait();
            steps.wait();
            steps.wait(); // 5: A has watched its batch held back.
            drop(guard);
            steps.wait(); // 6: B has left.
        });
        // A walks every step before it asserts, so a failure cannot leave B
        // and C waiting inside their guards.
        let a = std::thread::spawn({
            let steps = Arc::clone(&steps);
            move || {
                set_gc_threshold(DEFAULT_GC_THRESHOLD);
                steps.wait();
                let object = alloc(7u64);
                // SAFETY: never shared with another thread.
                unsafe { retire(object) };
                collect();
                let held_while_c = thread_stats().pending;
                steps.wait();
                steps.wait();
                steps.wait();
                let mut held_while_b = u64::MAX;
                for _ in 0..50 {
                    collect();
                    held_while_b = held_while_b.min(thread_stats().pending);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                steps.wait();
                steps.wait();
                // Guards held by tests running beside this one can delay a
                // pass.
                for _ in 0..2_000 {
                    collect();
                    if thread_stats().pending == 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let left_after_b = thread_stats().pending;
                let reissued = alloc(9u64) == object;
                (held_while_c, held_while_b, left_after_b, reissued)
            }
        });
        let (held_while_c, held_while_b, left_after_b, reissued) = a.join().unwrap();
        for role in [b, c] {
            role.join().unwrap();
        }
        assert_eq!(held_while_c, 1, "reclaimed while C is inside");
        assert_eq!(held_while_b, 1, "reissued while B, inside since after the retire snapshot, may hold it");
        assert_eq!(left_after_b, 0, "never reclaimed after B left");
        assert!(reissued, "the pool reissues the reclaimed object first");
    }

    #[test]
    fn retire_with_hands_memory_to_its_release_function() {
        static RELEASED: AtomicU64 = AtomicU64::new(0);
        unsafe fn count_and_free(ptr: *mut u8, layout: std::alloc::Layout) {
            RELEASED.fetch_add(layout.size() as u64, Ordering::SeqCst);
            // SAFETY: allocated below with this layout.
            unsafe { std::alloc::dealloc(ptr, layout) };
        }
        let layout = std::alloc::Layout::from_size_align(1 << 16, 64).unwrap();
        // SAFETY: a non-zero layout.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        // SAFETY: never shared; freed by `count_and_free` only.
        unsafe { retire_with(ptr, layout, count_and_free) };
        for _ in 0..2_000 {
            collect();
            if RELEASED.load(Ordering::SeqCst) != 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(RELEASED.load(Ordering::SeqCst), 1 << 16, "released once, whole");
    }

    #[test]
    fn raw_alloc_roundtrip() {
        let layout = std::alloc::Layout::array::<u64>(16).unwrap();
        let p = alloc_raw(layout);
        assert!(!p.is_null());
        // SAFETY: freshly allocated raw memory of 16 u64s.
        unsafe {
            std::ptr::write_bytes(p, 0xAB, layout.size());
            retire_raw(p, layout);
        }
        collect();
    }

    #[test]
    fn allocate_free_reuse_across_epochs() {
        // Smoke test of the full epoch lifecycle on one thread: allocate,
        // retire (free), cross an epoch boundary (guard enter/exit bumps the
        // timestamp), then observe the allocator serving recycled memory.
        set_gc_threshold(4);
        let first = alloc(0xEE_u64);
        // SAFETY: never shared.
        unsafe { retire(first) };
        // The reuse pool is LIFO, so a specific address can stay buried while
        // newer retirees are recycled first; reuse of *any* retired address
        // proves the epoch lifecycle.
        let mut retired = std::collections::HashSet::from([first as usize]);
        // Cross several epochs; each protect()/drop pair advances this
        // thread's timestamp past the retire snapshot.
        for _ in 0..4 {
            drop(protect());
        }
        let mut reused = false;
        for _ in 0..2_000 {
            collect();
            let p = alloc(0xAA_u64);
            let addr = p as usize;
            // SAFETY: never shared.
            unsafe { retire(p) };
            if !retired.insert(addr) {
                reused = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(reused, "allocator never recycled a retired address across epochs");
    }

    #[test]
    fn nested_guards_are_allowed() {
        let g1 = protect();
        let g2 = protect();
        drop(g2);
        drop(g1);
        let stats = thread_stats();
        // Timestamp transitions stay balanced (even when quiescent).
        assert_eq!(stats.guard_depth, 0);
    }
}
