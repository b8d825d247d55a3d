//! The per-thread SSMEM allocator: retire batches, timestamp snapshots,
//! grace-period collection and a reuse pool per layout (the small layouts'
//! pools are the thread's side of the [arena](crate::arena)).

use std::alloc::Layout;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

use crate::arena::{self, class_of};
use crate::registry::{self, ThreadEntry};
use crate::DEFAULT_GC_THRESHOLD;

/// A single retired allocation awaiting its grace period.
#[derive(Debug)]
struct Retired {
    ptr: *mut u8,
    size: usize,
    align: usize,
}

// SAFETY: a `Retired` is just an owned pointer to memory that no thread is
// allowed to dereference anymore (the `retire` contract); moving the record
// between threads (for orphan hand-off) is sound.
unsafe impl Send for Retired {}

/// A batch of retired allocations together with the timestamp snapshot taken
/// when the batch was sealed.
#[derive(Debug)]
struct SealedSet {
    retired: Vec<Retired>,
    snapshot: Vec<(Arc<ThreadEntry>, u64)>,
}

fn orphan_sets() -> &'static Mutex<Vec<SealedSet>> {
    static ORPHANS: OnceLock<Mutex<Vec<SealedSet>>> = OnceLock::new();
    ORPHANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Maximum number of reusable allocations kept per layout in a thread's
/// pool. Past it, small objects go to the arena's process-wide free list
/// and anything else back to the system allocator.
pub(crate) const POOL_CAP_PER_CLASS: usize = 4096;

/// Counters describing the activity of one thread's SSMEM allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsmemStats {
    /// Objects handed out by [`crate::alloc`] / [`crate::alloc_raw`].
    pub allocations: u64,
    /// Objects retired (logically freed).
    pub frees: u64,
    /// Retired objects whose grace period has expired (now reusable, or
    /// given back to the arena's free lists or the system allocator).
    pub reclaimed: u64,
    /// Allocations served from the reuse pool (refilled from the arena's
    /// process-wide free list) instead of fresh memory.
    pub reused: u64,
    /// Garbage-collection passes attempted.
    pub gc_passes: u64,
    /// Retired objects still waiting for their grace period.
    pub pending: u64,
    /// Allocations sitting in the reuse pool right now (grace period
    /// passed, awaiting their next life). Bounded by the pool cap; a value
    /// that stops growing under steady churn is the "no leak across
    /// epochs" witness the blob-arena tests assert on.
    pub pooled: u64,
    /// Current guard nesting depth of the owning thread.
    pub guard_depth: u64,
}

impl SsmemStats {
    /// Adds another thread's stats into this one, field-wise and
    /// saturating, for whole-process aggregation (a server summing its
    /// workers' allocators). Every field sums meaningfully: the event
    /// counters are monotonic, and the point-in-time fields (`pending`,
    /// `pooled`, `guard_depth`) sum to the process-wide totals.
    pub fn merge(&mut self, other: &SsmemStats) {
        self.allocations = self.allocations.saturating_add(other.allocations);
        self.frees = self.frees.saturating_add(other.frees);
        self.reclaimed = self.reclaimed.saturating_add(other.reclaimed);
        self.reused = self.reused.saturating_add(other.reused);
        self.gc_passes = self.gc_passes.saturating_add(other.gc_passes);
        self.pending = self.pending.saturating_add(other.pending);
        self.pooled = self.pooled.saturating_add(other.pooled);
        self.guard_depth = self.guard_depth.saturating_add(other.guard_depth);
    }
}

/// A per-thread SSMEM allocator (see the crate-level documentation).
///
/// Normally accessed through the free functions of this crate, which manage a
/// thread-local instance; the type is public so that tests and the benchmark
/// harness can construct standalone allocators.
#[derive(Debug)]
pub struct SsmemAllocator {
    entry: Arc<ThreadEntry>,
    current: Vec<Retired>,
    sealed: VecDeque<SealedSet>,
    /// Carves and pools the layouts the arena serves.
    arena: arena::Local,
    /// Pools every other layout.
    other: HashMap<(usize, usize), Vec<*mut u8>>,
    threshold: usize,
    guard_depth: usize,
    stats: SsmemStats,
}

impl SsmemAllocator {
    /// Creates (and registers) a new allocator for the calling thread.
    pub fn new() -> Self {
        Self {
            entry: registry::register(),
            current: Vec::new(),
            sealed: VecDeque::new(),
            arena: arena::Local::new(),
            other: HashMap::new(),
            threshold: DEFAULT_GC_THRESHOLD,
            guard_depth: 0,
            stats: SsmemStats::default(),
        }
    }

    /// Sets the number of retired objects per sealed batch.
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.threshold = threshold.max(1);
    }

    /// Handle to this allocator's registry entry (used by
    /// [`crate::synchronize`] to skip the calling thread).
    pub(crate) fn entry_handle(&self) -> Arc<ThreadEntry> {
        Arc::clone(&self.entry)
    }

    /// Returns a copy of the allocator's statistics.
    pub fn stats(&self) -> SsmemStats {
        let mut s = self.stats;
        s.pending = (self.current.len()
            + self.sealed.iter().map(|s| s.retired.len()).sum::<usize>()) as u64;
        s.pooled = (self.arena.pooled() + self.other.values().map(Vec::len).sum::<usize>()) as u64;
        s.guard_depth = self.guard_depth as u64;
        s
    }

    pub(crate) fn guard_enter(&mut self) {
        self.guard_depth += 1;
        if self.guard_depth == 1 {
            // Becomes odd: "inside an operation". The RMW acts as a full
            // fence on the platforms we target, ordering it before the
            // operation's subsequent loads.
            self.entry.ts.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(crate) fn guard_exit(&mut self) {
        debug_assert!(self.guard_depth > 0, "unbalanced ssmem guard");
        self.guard_depth -= 1;
        if self.guard_depth == 0 {
            // Becomes even: "quiescent". This thread is the only writer of
            // its timestamp, and leaving only has to order the operation's
            // loads before the store: a collector whose load sees the new
            // value (acquire) may reuse what those loads read.
            let ts = self.entry.ts.load(Ordering::Relaxed);
            self.entry.ts.store(ts + 1, Ordering::Release);
        }
    }

    /// Allocates and initializes one `T`.
    ///
    /// # Panics
    ///
    /// Panics if `T` needs `Drop` — SSMEM never runs destructors.
    pub fn alloc<T>(&mut self, value: T) -> *mut T {
        assert!(
            !std::mem::needs_drop::<T>(),
            "ssmem only manages plain-data objects (no Drop)"
        );
        let ptr = self.alloc_raw(Layout::new::<T>()) as *mut T;
        // SAFETY: `alloc_raw` returned a fresh (or recycled, past its grace
        // period) allocation of the right layout; writing the initial value
        // is sound.
        unsafe { std::ptr::write(ptr, value) };
        ptr
    }

    /// Allocates `layout` bytes, reusing retired memory when possible.
    pub fn alloc_raw(&mut self, layout: Layout) -> *mut u8 {
        self.stats.allocations += 1;
        if let Some(class) = class_of(layout.size(), layout.align()) {
            return match self.arena.reuse(class) {
                Some(ptr) => {
                    self.stats.reused += 1;
                    ptr
                }
                None => self.arena.carve(class),
            };
        }
        let pooled = self.other.get_mut(&(layout.size(), layout.align())).and_then(Vec::pop);
        if let Some(ptr) = pooled {
            self.stats.reused += 1;
            return ptr;
        }
        // SAFETY: layout has non-zero size for all node types we allocate;
        // guard against zero-size just in case.
        let layout = if layout.size() == 0 {
            Layout::from_size_align(1, layout.align().max(1)).expect("valid layout")
        } else {
            layout
        };
        // SAFETY: layout is valid and non-zero-sized.
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "ssmem: out of memory");
        ptr
    }

    /// Retires a typed object (see [`crate::retire`] for the contract).
    pub fn retire<T>(&mut self, ptr: *mut T) {
        debug_assert!(!std::mem::needs_drop::<T>());
        self.retire_raw(ptr as *mut u8, Layout::new::<T>());
    }

    /// Retires raw memory of the given layout.
    pub fn retire_raw(&mut self, ptr: *mut u8, layout: Layout) {
        if class_of(layout.size(), layout.align()).is_some() {
            arena::debug_assert_carved(ptr);
        }
        self.stats.frees += 1;
        self.current.push(Retired {
            ptr,
            size: layout.size(),
            align: layout.align(),
        });
        if self.current.len() >= self.threshold {
            self.seal_current();
            self.try_collect();
        }
    }

    fn seal_current(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let retired = std::mem::take(&mut self.current);
        let snapshot = registry::snapshot();
        self.sealed.push_back(SealedSet { retired, snapshot });
    }

    /// Attempts a collection pass; returns the number of objects reclaimed.
    pub fn collect(&mut self) -> usize {
        self.seal_current();
        self.try_collect()
    }

    fn try_collect(&mut self) -> usize {
        self.stats.gc_passes += 1;
        let mut reclaimed = 0;
        while let Some(front) = self.sealed.front() {
            if !Self::set_is_safe(front, Some(&self.entry)) {
                break;
            }
            let set = self.sealed.pop_front().expect("front exists");
            reclaimed += set.retired.len();
            for r in set.retired {
                self.recycle(r);
            }
        }
        reclaimed += self.collect_orphans();
        self.stats.reclaimed += reclaimed as u64;
        reclaimed
    }

    /// Collects orphan batches left behind by exited threads. Orphaned memory
    /// is given back for good (see [`release`]).
    fn collect_orphans(&mut self) -> usize {
        let Ok(mut orphans) = orphan_sets().try_lock() else {
            return 0;
        };
        let mut reclaimed = 0;
        orphans.retain(|set| {
            if Self::set_is_safe(set, None) {
                reclaimed += set.retired.len();
                for r in &set.retired {
                    // SAFETY: grace period expired for every thread
                    // (including the collector itself, since `skip` is None);
                    // the pointer owns its allocation per the retire contract.
                    unsafe { release(r) };
                }
                false
            } else {
                true
            }
        });
        reclaimed
    }

    /// Is it safe to reclaim this batch? `skip` identifies the collecting
    /// thread itself when the batch was retired by that same thread (a thread
    /// never dereferences objects it has already retired).
    fn set_is_safe(set: &SealedSet, skip: Option<&Arc<ThreadEntry>>) -> bool {
        for (entry, ts_at_seal) in &set.snapshot {
            if let Some(me) = skip {
                if Arc::ptr_eq(entry, me) {
                    continue;
                }
            }
            if !entry.active.load(Ordering::Acquire) {
                continue;
            }
            if ts_at_seal % 2 == 0 {
                // Quiescent at seal time: it held no references then, and the
                // object was already unlinked, so later operations cannot
                // reach it.
                continue;
            }
            if entry.ts.load(Ordering::SeqCst) != *ts_at_seal {
                // The operation that was in flight at seal time has finished.
                continue;
            }
            return false;
        }
        true
    }

    fn recycle(&mut self, r: Retired) {
        if let Some(class) = class_of(r.size, r.align) {
            return self.arena.free(class, r.ptr);
        }
        let list = self.other.entry((r.size, r.align)).or_default();
        if list.len() < POOL_CAP_PER_CLASS {
            list.push(r.ptr);
        } else {
            // SAFETY: grace period expired; we own the allocation.
            unsafe { dealloc_system(&r) };
        }
    }
}

impl Default for SsmemAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SsmemAllocator {
    fn drop(&mut self) {
        // Hand pending batches to the orphan list so surviving threads can
        // finish their grace periods; release the reuse pool immediately
        // (those allocations already passed their grace period). The
        // arena's side goes to its free lists when `self.arena` drops.
        self.seal_current();
        if !self.sealed.is_empty() {
            if let Ok(mut orphans) = orphan_sets().lock() {
                orphans.extend(self.sealed.drain(..));
            }
        }
        for ((size, align), list) in self.other.drain() {
            for ptr in list {
                // SAFETY: pool entries are unreachable by any thread.
                unsafe { dealloc_system(&Retired { ptr, size, align }) };
            }
        }
        self.entry.active.store(false, Ordering::Release);
    }
}

/// Gives one allocation back for good: a small object to the arena's
/// process-wide free list of its class, anything else to the system
/// allocator.
///
/// # Safety
///
/// The pointer must own a live allocation of exactly `size`/`align` that
/// no thread can reach.
unsafe fn release(r: &Retired) {
    match class_of(r.size, r.align) {
        Some(class) => {
            arena::debug_assert_carved(r.ptr);
            arena::give(class, std::iter::once(r.ptr));
        }
        // SAFETY: forwarded caller contract.
        None => unsafe { dealloc_system(r) },
    }
}

/// Returns one allocation outside the arena's layouts to the system
/// allocator.
///
/// # Safety
///
/// The pointer must own a live allocation of exactly `size`/`align`.
unsafe fn dealloc_system(r: &Retired) {
    let size = r.size.max(1);
    let layout = Layout::from_size_align(size, r.align.max(1)).expect("valid layout");
    // SAFETY: caller guarantees ownership and matching layout.
    unsafe { std::alloc::dealloc(r.ptr, layout) };
}

/// Immediately deallocates a typed object allocated through SSMEM.
///
/// # Safety
///
/// See [`crate::dealloc_immediate`].
pub(crate) unsafe fn dealloc_now<T>(ptr: *mut T) {
    let r = Retired {
        ptr: ptr as *mut u8,
        size: std::mem::size_of::<T>(),
        align: std::mem::align_of::<T>(),
    };
    // SAFETY: forwarded caller contract.
    unsafe { release(&r) };
}

/// Immediately deallocates raw memory allocated through SSMEM.
///
/// # Safety
///
/// See [`crate::dealloc_raw_immediate`].
pub(crate) unsafe fn dealloc_raw_now(ptr: *mut u8, layout: Layout) {
    let r = Retired {
        ptr,
        size: layout.size(),
        align: layout.align(),
    };
    // SAFETY: forwarded caller contract.
    unsafe { release(&r) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_allocator_roundtrip() {
        let mut a = SsmemAllocator::new();
        a.set_gc_threshold(4);
        let mut ptrs = Vec::new();
        for i in 0..16u64 {
            let p = a.alloc(i);
            // SAFETY: freshly allocated.
            unsafe { assert_eq!(*p, i) };
            ptrs.push(p);
        }
        for p in ptrs {
            a.retire(p);
        }
        a.collect();
        let s = a.stats();
        assert!(
            s.reclaimed > 0 || s.pending > 0,
            "retired objects must be either reclaimed or still pending: {s:?}"
        );
    }

    #[test]
    fn stats_track_allocations_and_frees() {
        let mut a = SsmemAllocator::new();
        let p = a.alloc(1u64);
        a.retire(p);
        let s = a.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn pool_reuse_prefers_recycled_memory() {
        let mut a = SsmemAllocator::new();
        a.set_gc_threshold(1);
        let p = a.alloc(7u64);
        let addr = p as usize;
        a.retire(p);
        a.collect();
        if a.stats().reclaimed > 0 {
            let q = a.alloc(9u64);
            assert_eq!(q as usize, addr, "same-size allocation should reuse the slot");
            // SAFETY: q is exclusively owned.
            unsafe { dealloc_now(q) };
        }
    }

    #[test]
    fn pooled_stat_tracks_the_reuse_pool() {
        let mut a = SsmemAllocator::new();
        a.set_gc_threshold(1);
        assert_eq!(a.stats().pooled, 0);
        let p = a.alloc(5u64);
        // The first allocation may have refilled the pool from the arena's
        // process-wide free list.
        let before = a.stats().pooled;
        a.retire(p);
        a.collect();
        let s = a.stats();
        // Either still pending (another test's guard) or sitting in the
        // pool; the two states partition the retired object.
        assert_eq!(s.pooled - before + s.pending, 1, "{s:?}");
        if s.pooled > before {
            let q = a.alloc(6u64);
            assert_eq!(a.stats().pooled, before, "allocation drains the pool");
            // SAFETY: q is exclusively owned.
            unsafe { dealloc_now(q) };
        }
    }

    #[test]
    fn pool_keeps_every_layout_apart() {
        // Same size at another alignment, a size that is no multiple of the
        // word, and sizes either side of the arena's largest class: each
        // must come back only for its own layout, whichever pool holds it.
        let layouts = [(16, 8), (16, 4), (16, 16), (12, 4), (24, 8), (512, 8), (520, 8), (64, 64)]
            .map(|(size, align)| Layout::from_size_align(size, align).unwrap());
        let retired = |ptr: *mut u8, layout: Layout| Retired {
            ptr,
            size: layout.size(),
            align: layout.align(),
        };
        let mut a = SsmemAllocator::new();
        let ptrs = layouts.map(|layout| a.alloc_raw(layout));
        let (pooled, reused) = (a.stats().pooled, a.stats().reused);
        for (&ptr, &layout) in ptrs.iter().zip(&layouts) {
            a.recycle(retired(ptr, layout));
        }
        assert_eq!(a.stats().pooled, pooled + layouts.len() as u64);
        let in_arena = layouts.iter().filter(|l| class_of(l.size(), l.align()).is_some()).count();
        assert_eq!(in_arena, 3, "(16, 8), (24, 8) and (512, 8)");
        for (round, (&ptr, &layout)) in ptrs.iter().zip(&layouts).enumerate() {
            assert_eq!(a.alloc_raw(layout), ptr, "{layout:?}");
            assert_eq!(a.stats().reused, reused + round as u64 + 1);
            a.recycle(retired(ptr, layout));
        }
        for (&ptr, &layout) in ptrs.iter().zip(&layouts) {
            assert_eq!(a.alloc_raw(layout), ptr, "{layout:?}");
            // SAFETY: an owned allocation of that layout, reachable by no
            // other thread.
            unsafe { release(&retired(ptr, layout)) };
        }
    }

    #[test]
    fn zero_sized_layout_does_not_crash() {
        let mut a = SsmemAllocator::new();
        let layout = Layout::from_size_align(0, 1).unwrap();
        let p = a.alloc_raw(layout);
        assert!(!p.is_null());
        a.retire_raw(p, Layout::from_size_align(1, 1).unwrap());
        a.collect();
    }
}
