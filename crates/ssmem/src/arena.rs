//! The slab arena behind every small SSMEM object: chunks, per-thread
//! segments and pools, process-wide free lists per size class, and the
//! census (the crate docs' *Where memory comes from* has the design). A
//! thread strands at most one segment's tail; a freed object keeps its
//! size class for good, and no chunk is ever returned to the system.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::allocator::POOL_CAP_PER_CLASS;
use crate::pages;

/// Bytes in a chunk, and its alignment: one x86-64 huge page.
const CHUNK: usize = pages::HUGE_PAGE;

/// Bytes a thread takes from the current chunk at a time.
const SEGMENT: usize = 64 << 10;

/// Largest object the arena serves.
const MAX_SIZE: usize = 512;

/// The one alignment the arena serves; an object's class is its size, so
/// its alignment has to be fixed too.
const ALIGN: usize = 8;

/// Class `c` holds objects of `8 · c` bytes; class 0 (zero-size layouts)
/// stays empty.
const CLASSES: usize = MAX_SIZE / ALIGN + 1;

/// Objects a thread moves from a process-wide free list into its pool at
/// once, and the size of an overflow batch going the other way.
const FREE_BATCH: usize = POOL_CAP_PER_CLASS / 2;

/// The size class of the layout `(size, align)`, if the arena serves it.
#[inline]
pub(crate) fn class_of(size: usize, align: usize) -> Option<usize> {
    (align == ALIGN && size != 0 && size <= MAX_SIZE && size % ALIGN == 0).then_some(size / ALIGN)
}

// ---------------------------------------------------------------------------
// Chunks and segments

/// Where the next segment comes from.
struct Chunks {
    /// The current chunk's next free segment, and the chunk's end.
    next: usize,
    end: usize,
    /// Every chunk's base address, sorted.
    bases: Vec<usize>,
}

static CHUNKS: Mutex<Chunks> = Mutex::new(Chunks {
    next: 0,
    end: 0,
    bases: Vec::new(),
});

/// Bytes of segments handed to threads so far.
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);

/// Takes the next segment of the current chunk, opening a chunk when the
/// current one is used up.
fn take_segment() -> usize {
    let mut chunks = CHUNKS.lock().expect("ssmem chunk list poisoned");
    if chunks.next == chunks.end {
        let base = new_chunk();
        let at = chunks.bases.partition_point(|&b| b < base);
        chunks.bases.insert(at, base);
        chunks.next = base;
        chunks.end = base + CHUNK;
    }
    let segment = chunks.next;
    chunks.next += SEGMENT;
    // Relaxed: a gauge that publishes nothing.
    ARENA_BYTES.fetch_add(SEGMENT as u64, Ordering::Relaxed);
    segment
}

fn new_chunk() -> usize {
    let layout = std::alloc::Layout::from_size_align(CHUNK, CHUNK).expect("chunk layout");
    // SAFETY: the layout has a non-zero size.
    let base = unsafe { std::alloc::alloc(layout) };
    if base.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    pages::advise_huge_pages(base, CHUNK);
    base as usize
}

/// Is `ptr` inside a chunk the arena carved?
fn owns(ptr: *mut u8) -> bool {
    let base = ptr as usize & !(CHUNK - 1);
    let chunks = CHUNKS.lock().expect("ssmem chunk list poisoned");
    chunks.bases.binary_search(&base).is_ok()
}

/// Panics, in debug builds, unless `ptr` lies in a chunk the arena carved:
/// a stray pointer handed to a small free fails here, not as a corrupted
/// free list later.
pub(crate) fn debug_assert_carved(ptr: *mut u8) {
    debug_assert!(owns(ptr), "{ptr:p} was not carved by the ssmem arena");
}

/// Bytes the arena has carved out of its chunks for threads to allocate
/// from, process-wide: a multiple of the 64 KiB segment that never falls.
/// Chunks are 2 MiB, so the memory the arena holds from the system is
/// this rounded up to the next 2 MiB.
pub fn arena_bytes() -> u64 {
    ARENA_BYTES.load(Ordering::Relaxed)
}

/// A thread's current segment: objects are carved from `next` up to `end`.
#[derive(Debug, Default)]
struct Bump {
    next: usize,
    end: usize,
}

impl Bump {
    fn carve(&mut self, size: usize) -> *mut u8 {
        if self.end - self.next < size {
            self.next = take_segment();
            self.end = self.next + SEGMENT;
        }
        let object = self.next;
        self.next += size;
        object as *mut u8
    }
}

// ---------------------------------------------------------------------------
// Process-wide free lists

/// Free objects of one class that no thread's pool holds.
struct FreeList {
    /// `objects.len()`, readable without the lock so an empty list costs
    /// a thread with an empty pool no lock.
    len: AtomicUsize,
    /// Addresses, not pointers, so the list is `Sync`.
    objects: Mutex<Vec<usize>>,
}

static FREE: [FreeList; CLASSES] = [const {
    FreeList {
        len: AtomicUsize::new(0),
        objects: Mutex::new(Vec::new()),
    }
}; CLASSES];

impl FreeList {
    /// The list, also after a panic elsewhere: a `Vec` of addresses is
    /// valid at every step of `extend` and `drain`, and giving memory back
    /// runs in thread-local destructors, which must not panic.
    fn lock(&self) -> MutexGuard<'_, Vec<usize>> {
        self.objects.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Hands free objects of `class` to its process-wide list.
pub(crate) fn give(class: usize, objects: impl Iterator<Item = *mut u8>) {
    let list = &FREE[class];
    let mut held = list.lock();
    held.extend(objects.map(|ptr| ptr as usize));
    // Relaxed: only a hint; the objects themselves pass under the lock.
    list.len.store(held.len(), Ordering::Relaxed);
}

/// Moves up to [`FREE_BATCH`] objects of `class` from its process-wide list
/// into `pool`.
fn take(class: usize, pool: &mut Vec<*mut u8>) {
    let list = &FREE[class];
    // A stale zero carves where it could have reused, a stale non-zero
    // takes the lock for nothing; neither is wrong.
    if list.len.load(Ordering::Relaxed) == 0 {
        return;
    }
    let mut held = list.lock();
    let from = held.len().saturating_sub(FREE_BATCH);
    pool.extend(held.drain(from..).map(|addr| addr as *mut u8));
    list.len.store(held.len(), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The census

/// One thread's share of the census. Only the owning thread writes it, so
/// its counters are bumped with a plain load and store, no locked RMW.
#[derive(Debug)]
struct Tally {
    /// Objects carved, per class.
    carved: [AtomicU64; CLASSES],
    /// Objects in the thread's pool, per class.
    pooled: [AtomicU64; CLASSES],
}

/// The tallies of live threads, and what exited threads carved.
struct Tallies {
    live: Vec<Arc<Tally>>,
    exited: [u64; CLASSES],
}

static TALLIES: Mutex<Tallies> = Mutex::new(Tallies {
    live: Vec::new(),
    exited: [0; CLASSES],
});

/// One size class of the arena's [`census`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCensus {
    /// Bytes per object.
    pub size: usize,
    /// Objects carved from segments so far, process-wide.
    pub carved: u64,
    /// Objects free right now: in threads' pools and in the process-wide
    /// free list.
    pub free: u64,
}

impl ClassCensus {
    /// Objects handed out and not yet free: allocated and live, or retired
    /// and waiting for their grace period.
    pub fn in_use(&self) -> u64 {
        self.carved.saturating_sub(self.free)
    }
}

/// Objects carved and objects free, per size class of the arena (8 to
/// 512 bytes in steps of 8), summed over every thread.
///
/// Exact when no thread allocates or frees during the call; a thread that
/// is mid-way through moving objects between its pool and a free list can
/// otherwise be counted on both sides or neither.
pub fn census() -> Vec<ClassCensus> {
    let tallies = TALLIES.lock().expect("ssmem tallies poisoned");
    (1..CLASSES)
        .map(|class| {
            let mut carved = tallies.exited[class];
            let mut free = FREE[class].len.load(Ordering::Relaxed) as u64;
            for tally in &tallies.live {
                carved += tally.carved[class].load(Ordering::Relaxed);
                free += tally.pooled[class].load(Ordering::Relaxed);
            }
            ClassCensus {
                size: class * ALIGN,
                carved,
                free,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A thread's side

/// A thread's side of the arena: its segment, its pool of free objects per
/// class and its tally.
#[derive(Debug)]
pub(crate) struct Local {
    bump: Bump,
    pools: Vec<Vec<*mut u8>>,
    tally: Arc<Tally>,
}

impl Local {
    pub(crate) fn new() -> Self {
        let tally = Arc::new(Tally {
            carved: [const { AtomicU64::new(0) }; CLASSES],
            pooled: [const { AtomicU64::new(0) }; CLASSES],
        });
        TALLIES
            .lock()
            .expect("ssmem tallies poisoned")
            .live
            .push(Arc::clone(&tally));
        Self {
            bump: Bump::default(),
            pools: vec![Vec::new(); CLASSES],
            tally,
        }
    }

    /// A free object of `class` from the pool, which refills from the
    /// process-wide list when it is empty.
    #[inline]
    pub(crate) fn reuse(&mut self, class: usize) -> Option<*mut u8> {
        let pool = &mut self.pools[class];
        if pool.is_empty() {
            take(class, pool);
        }
        let ptr = pool.pop()?;
        self.tally.pooled[class].store(pool.len() as u64, Ordering::Relaxed);
        Some(ptr)
    }

    /// A fresh object of `class` from the thread's segment.
    pub(crate) fn carve(&mut self, class: usize) -> *mut u8 {
        let carved = &self.tally.carved[class];
        carved.store(carved.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.bump.carve(class * ALIGN)
    }

    /// Pools a free object of `class`; past the pool cap, the older half
    /// of the pool goes to the process-wide list in one batch.
    pub(crate) fn free(&mut self, class: usize, ptr: *mut u8) {
        let pool = &mut self.pools[class];
        pool.push(ptr);
        if pool.len() >= POOL_CAP_PER_CLASS {
            give(class, pool.drain(..FREE_BATCH));
        }
        self.tally.pooled[class].store(pool.len() as u64, Ordering::Relaxed);
    }

    /// Objects in the pool, all classes.
    pub(crate) fn pooled(&self) -> usize {
        self.pools.iter().map(Vec::len).sum()
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        for (class, pool) in self.pools.iter_mut().enumerate() {
            if !pool.is_empty() {
                give(class, pool.drain(..));
            }
        }
        // Nothing here may panic: this runs in a thread-local destructor.
        let Ok(mut tallies) = TALLIES.lock() else {
            return;
        };
        for (class, carved) in self.tally.carved.iter().enumerate() {
            tallies.exited[class] += carved.load(Ordering::Relaxed);
        }
        tallies.live.retain(|t| !Arc::ptr_eq(t, &self.tally));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    #[test]
    fn carved_objects_are_aligned_disjoint_and_inside_their_segment() {
        const PER_THREAD: usize = 3_000;
        let carved: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        let mut bump = Bump::default();
                        (0..PER_THREAD)
                            .map(|i| {
                                let size = 8 * (1 + (i * 7 + t) % 64);
                                let at = bump.carve(size) as usize;
                                let segment = bump.end - SEGMENT;
                                assert_eq!(at % ALIGN, 0, "{at:#x} is not 8-aligned");
                                assert!(
                                    segment <= at && at + size <= bump.end,
                                    "{at:#x}+{size} outside its segment at {segment:#x}"
                                );
                                let chunk = segment & !(CHUNK - 1);
                                assert!(bump.end <= chunk + CHUNK, "segment crosses a chunk");
                                assert!(owns(at as *mut u8), "{at:#x} is in no chunk");
                                (at, size)
                            })
                            .collect()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("carving thread panicked"))
                .collect()
        });
        let mut all: Vec<(usize, usize)> = carved.into_iter().flatten().collect();
        all.sort_unstable();
        for pair in all.windows(2) {
            let ((a, size), (b, _)) = (pair[0], pair[1]);
            assert!(a + size <= b, "{a:#x}+{size} overlaps {b:#x}");
        }
    }

    /// Carved objects of two classes no other test allocates.
    fn carved_of(sizes: [usize; 2]) -> u64 {
        census()
            .iter()
            .filter(|c| sizes.contains(&c.size))
            .map(|c| c.carved)
            .sum()
    }

    #[test]
    fn memory_freed_or_left_at_exit_is_reused_by_later_threads() {
        const SIZES: [usize; 2] = [456, 472];
        const PER_SIZE: usize = 300;
        let in_use = || -> u64 {
            census()
                .iter()
                .filter(|c| SIZES.contains(&c.size))
                .map(ClassCensus::in_use)
                .sum()
        };
        let mut carved_after_first = None;
        for round in 0..4 {
            std::thread::spawn(|| {
                crate::set_gc_threshold(64);
                for size in SIZES {
                    let layout = Layout::from_size_align(size, 8).unwrap();
                    let objects: Vec<_> = (0..PER_SIZE).map(|_| crate::alloc_raw(layout)).collect();
                    let (collected, rest) = objects.split_at(PER_SIZE / 3);
                    let (orphaned, immediate) = rest.split_at(PER_SIZE / 3);
                    // SAFETY (all three): every object is this thread's
                    // alone and freed exactly once.
                    for &ptr in collected {
                        unsafe { crate::retire_raw(ptr, layout) };
                    }
                    // Grace periods end in this thread's pool, which the
                    // thread leaves behind when it exits.
                    while crate::thread_stats().pending > 0 {
                        crate::collect();
                    }
                    // Retired and never collected here: orphaned at exit.
                    for &ptr in orphaned {
                        unsafe { crate::retire_raw(ptr, layout) };
                    }
                    for &ptr in immediate {
                        unsafe { crate::dealloc_raw_immediate(ptr, layout) };
                    }
                }
            })
            .join()
            .expect("round thread panicked");
            // The orphans' grace period ends once this thread collects with
            // every other thread quiescent since; other tests' guards can
            // hold it up briefly.
            for _ in 0..2_000 {
                crate::collect();
                if in_use() == 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(in_use(), 0, "round {round}: every object is free again");
            let carved = carved_of(SIZES);
            let first = *carved_after_first.get_or_insert(carved);
            assert_eq!(carved, first, "round {round} carved instead of reusing");
        }
        assert_eq!(carved_after_first, Some((SIZES.len() * PER_SIZE) as u64));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not carved by the ssmem arena")]
    fn freeing_a_stray_pointer_fails_loudly() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: a valid non-zero layout.
        let stray = unsafe { std::alloc::alloc(layout) };
        // SAFETY: not upheld on purpose — `stray` came from the system
        // allocator; the debug check must stop it before the free list.
        unsafe { crate::dealloc_raw_immediate(stray, layout) };
    }
}
