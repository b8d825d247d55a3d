//! The lossy hint table in front of [`super::FraserOptSkipList`]'s walk: a
//! map from key to skip-list node in CLHT's layout, 64-byte buckets of
//! eight slots. A slot is `node pointer (48 bits) | key fingerprint (16
//! bits)`; zero is the empty slot. The table may lose any hint at any
//! time — a missing or wrong hint only means "walk" — so it has no
//! deletion protocol beyond clearing a slot, and growing it means swapping
//! in an empty table and copying into it what the old one holds.
//! `fraser.rs`'s module doc has the publication protocol and why a read
//! through a hint is linearizable.
//!
//! Sizing takes no shared write on a read or an overwrite: an insert whose
//! tower is at least [`SAMPLE_LEVEL`] tall (one in 64, drawn by
//! `random_level` anyway) adds 64 to the list's approximate key count, and
//! its remover takes 64 off. Past [`FLOOR`], a tall insert that finds the
//! count above what the table was sized for swaps in one sized for the
//! next power of two, at [`SLOT_EIGHTHS`] eighths of a slot per key.

use std::alloc::Layout;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use ascylib_ssmem as ssmem;

use crate::prefetch;
use crate::stats;

/// Slots per bucket: one cache line of words.
const WAYS: usize = 8;

/// The approximate key count past which a list allocates its table.
///
/// `cargo bench --bench micro_ops` at 1 k, 16 k and 256 k keys, loaded and
/// searched in a fixed random order, built with this floor at 0 and at
/// `isize::MAX`, four rounds each (numbers in CHANGES.md): a hit costs
/// 36–59, 134–153 and 192–774 ns with the table against 101–134, 200–284
/// and 1 139–1 444 ns for the walk (at 5/8 slot per key a third of the keys
/// still walk); a miss pays the bucket on top of its walk, +15–30 % at 1 k
/// and within the noise at 256 k, where the walk's own misses dominate. So
/// no size makes the table a loss for hits, and the floor is set by what
/// it must leave alone: the paper's 1 024-key lists (Figure 5, the
/// ASCY ablation) stay the unhinted `fraser-opt`, with a margin the
/// sampled count never crosses, and shards of a few ten thousand keys
/// (`embed_write`'s ~25 000) spend no memory on a table.
pub(crate) const FLOOR: isize = 32_768;

/// Towers at least this tall are the count's sample: p = 2^-(SAMPLE_LEVEL-1).
pub(crate) const SAMPLE_LEVEL: usize = 7;

/// Keys one sampled tower stands for.
const SAMPLE_WEIGHT: isize = 1 << (SAMPLE_LEVEL - 1);

/// The Fibonacci multiplier `ShardRouter::route` also uses. The router
/// takes the top bits of the product, so every key of a shard shares
/// them. The table skips the top [`ROUTER_BITS`] and takes the bucket
/// from the bits below: they spread dense keys near-perfectly (the
/// multiples of the golden ratio are evenly spaced), where bits 32 and up
/// of the product left three in four buckets of a million dense keys
/// empty. The fingerprint is bits 16–31, below the bucket bits of any
/// table up to 2^24 buckets.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Top bits of the product left to the router: enough for 256 shards.
const ROUTER_BITS: u32 = 8;

/// Tables allocated and not yet released, over every list in the process.
static LIVE_TABLES: AtomicUsize = AtomicUsize::new(0);

/// Number of hint tables allocated and not yet released, process-wide.
pub(crate) fn live_tables() -> usize {
    LIVE_TABLES.load(Ordering::SeqCst)
}

#[repr(C, align(64))]
struct Bucket([AtomicU64; WAYS]);

/// Slots per key a table is sized for, in eighths: 5/8 of a slot, so
/// 5–10 table bytes per key as the count moves between two doublings, and
/// about 65 % of keys hinted (a GET on `embed_read` ~3.5× faster at the
/// median). One slot per key hints ~90 % and serves ~40 % more ops per
/// second there, but `embed_read`'s `peak_rss_mb` then read +12–14 %
/// against its 10 % bound: that metric counts the benchmark's own latency
/// samples (8 bytes per 16 ops), which grow with throughput, and the
/// tables. Raise this once the benchmark reads the store's peak alone.
const SLOT_EIGHTHS: usize = 5;

/// A table's header line; its buckets follow it in the same allocation.
#[repr(C, align(64))]
pub(crate) struct Table {
    buckets: usize,
    /// The key count the table was sized for (a power of two): past it,
    /// the list grows a new one.
    keys: usize,
}

/// `key`'s bucket word (its bucket is the word's top bits, scaled to the
/// table's bucket count) and its fingerprint.
#[inline]
fn split(key: u64) -> (u64, u64) {
    let h = key.wrapping_mul(FIB);
    (h << ROUTER_BITS, (h >> 16) & 0xFFFF)
}

/// The slot word hinting `node` for a key with fingerprint `fp`.
#[inline]
fn encode<N>(node: *mut N, fp: u64) -> u64 {
    let addr = node as u64;
    debug_assert!(addr != 0 && addr >> 48 == 0, "{addr:#x} does not fit a hint slot");
    addr << 16 | fp
}

impl Table {
    fn layout(buckets: usize) -> Layout {
        Layout::from_size_align((buckets + 1) * size_of::<Bucket>(), align_of::<Bucket>())
            .expect("hint table layout")
    }

    /// Bytes of the allocation behind the table.
    fn bytes(&self) -> usize {
        Self::layout(self.buckets).size()
    }

    #[inline]
    fn bucket(&self, word: u64) -> &Bucket {
        // Lemire's multiply-shift: the top bits of `word`, scaled to any
        // bucket count.
        self.bucket_at(((word as u128 * self.buckets as u128) >> 64) as usize)
    }

    #[inline]
    fn bucket_at(&self, index: usize) -> &Bucket {
        debug_assert!(index < self.buckets);
        // SAFETY: the allocation holds `buckets` buckets after the header
        // line, and every caller's index is below `buckets` (a loop bound,
        // or a product shifted down past the bucket count's own bits).
        unsafe { &*(self as *const Self).cast::<Bucket>().add(1 + index) }
    }

    /// Starts the load of `key`'s bucket line.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        prefetch(self.bucket(split(key).0) as *const Bucket);
    }

    /// The first node hinted under `key`'s fingerprint, not dereferenced:
    /// its key may be another one.
    #[inline]
    pub(crate) fn probe<N>(&self, key: u64) -> Option<*mut N> {
        let (bits, fp) = split(key);
        self.bucket(bits).0.iter().find_map(|slot| {
            let word = slot.load(Ordering::Acquire);
            (word != 0 && word & 0xFFFF == fp).then_some((word >> 16) as *mut N)
        })
    }

    /// Publishes `node` as `key`'s hint in an empty slot or, with
    /// `overwrite`, in the slot the fingerprint picks. Returns the slot
    /// taken. `SeqCst`: see the publication protocol in `fraser.rs`.
    pub(crate) fn publish<N>(&self, key: u64, node: *mut N, overwrite: bool) -> Option<usize> {
        let (bits, fp) = split(key);
        let slots = &self.bucket(bits).0;
        let (index, seen) = match slots.iter().position(|s| s.load(Ordering::Relaxed) == 0) {
            Some(empty) => (empty, 0),
            None if overwrite => {
                let victim = fp as usize % WAYS;
                (victim, slots[victim].load(Ordering::Relaxed))
            }
            None => return None,
        };
        let ok = slots[index]
            .compare_exchange(seen, encode(node, fp), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        stats::record_atomic(ok);
        ok.then_some(index)
    }

    /// Takes back the hint [`Self::publish`] put in slot `index`, unless
    /// something replaced it since.
    pub(crate) fn withdraw<N>(&self, key: u64, node: *mut N, index: usize) {
        let (bits, fp) = split(key);
        let ok = self.bucket(bits).0[index]
            .compare_exchange(encode(node, fp), 0, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        stats::record_atomic(ok);
    }

    /// Calls `f` on every hinted node, not dereferenced, bucket by bucket;
    /// the next bucket's nodes are prefetched while `f` reads this one's.
    pub(crate) fn for_each_node<N>(&self, mut f: impl FnMut(*mut N)) {
        let each = |index: usize, f: &mut dyn FnMut(*mut N)| {
            for slot in &self.bucket_at(index).0 {
                let word = slot.load(Ordering::Acquire);
                if word != 0 {
                    f((word >> 16) as *mut N);
                }
            }
        };
        for index in 0..self.buckets {
            if index + 1 < self.buckets {
                each(index + 1, &mut |node| prefetch(node));
            }
            each(index, &mut f);
        }
    }

    /// Slots that hint `node` under `key`.
    #[cfg(test)]
    pub(crate) fn hints_of<N>(&self, key: u64, node: *mut N) -> usize {
        let (bits, fp) = split(key);
        let hint = encode(node, fp);
        self.bucket(bits).0.iter().filter(|s| s.load(Ordering::SeqCst) == hint).count()
    }

    /// Clears every slot hinting `node`: a remover's step between its
    /// tombstone and the node's retirement.
    pub(crate) fn clear<N>(&self, key: u64, node: *mut N) {
        let (bits, fp) = split(key);
        let hint = encode(node, fp);
        for slot in &self.bucket(bits).0 {
            if slot.load(Ordering::SeqCst) == hint {
                let ok = slot.compare_exchange(hint, 0, Ordering::SeqCst, Ordering::Relaxed).is_ok();
                stats::record_atomic(ok);
            }
        }
    }
}

/// Where tables come from. On Linux, straight from the kernel: fresh zero
/// pages that cost RSS only once a hint lands on them, and leave it the
/// moment the table is given back. Through `std::alloc`, glibc serves a
/// table from its heap once a table of that size has been freed (its mmap
/// threshold rises to the largest mapping freed), and `calloc` there
/// touches every page and `free` keeps them: on `embed_read`'s four shards
/// that held 9 MB of RSS beyond the live tables.
#[cfg(target_os = "linux")]
mod pages {
    use std::alloc::Layout;
    use std::ffi::{c_int, c_long, c_void};

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: c_long) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_DONTNEED: c_int = 4;

    /// Zeroed, page-aligned memory for `layout`, or null.
    pub(super) fn alloc_zeroed(layout: Layout) -> *mut u8 {
        // SAFETY: a fresh anonymous mapping; no existing memory is touched.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), layout.size(), PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        if ptr as isize == -1 {
            std::ptr::null_mut()
        } else {
            ptr.cast()
        }
    }

    /// # Safety
    ///
    /// `ptr` came from [`alloc_zeroed`] with `layout` and is not used again.
    pub(super) unsafe fn dealloc(ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract: exactly one mapping.
        unsafe { munmap(ptr.cast(), layout.size()) };
    }

    /// Bytes at the start of a table that [`discard`] keeps: its header
    /// line lives there, and 64 KiB is a whole number of pages on every
    /// Linux page size.
    const KEEP: usize = 1 << 16;

    /// Hands the pages behind a swapped-out table back to the kernel now,
    /// ahead of its grace periods, all but the first [`KEEP`] bytes: its
    /// slots read as zeros — empty — from here on, and a late write faults
    /// in a fresh zero page.
    ///
    /// # Safety
    ///
    /// `ptr` came from [`alloc_zeroed`] with `layout`, and every slot of
    /// the table may be lost (it is a table no new reader can load).
    pub(super) unsafe fn discard(ptr: *mut u8, layout: Layout) {
        if layout.size() > KEEP {
            // SAFETY: forwarded caller contract; `ptr + KEEP` is page
            // aligned, and the mapping stays in place.
            unsafe { madvise(ptr.add(KEEP).cast(), layout.size() - KEEP, MADV_DONTNEED) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod pages {
    pub(super) use std::alloc::{alloc_zeroed, dealloc};

    pub(super) unsafe fn discard(_ptr: *mut u8, _layout: std::alloc::Layout) {}
}

/// Gives a table back to the system: at teardown, for a grow's loser, and
/// from ssmem once a retired table's grace periods are over.
///
/// # Safety
///
/// `ptr` is a table allocated by [`Hints::grow`] with `layout`, which no
/// thread can reach any more.
unsafe fn free_table(ptr: *mut u8, layout: Layout) {
    LIVE_TABLES.fetch_sub(1, Ordering::SeqCst);
    // SAFETY: forwarded caller contract.
    unsafe { pages::dealloc(ptr, layout) };
}

/// One list's table and the approximate key count that sizes it.
pub(crate) struct Hints {
    table: AtomicPtr<Table>,
    count: AtomicIsize,
}

impl Hints {
    pub(crate) fn new() -> Self {
        Self {
            table: AtomicPtr::new(std::ptr::null_mut()),
            count: AtomicIsize::new(0),
        }
    }

    /// The current table, if the list has passed [`FLOOR`]. `SeqCst`, so
    /// that a remover loads a table at least as new as the one any filler
    /// it races published into.
    ///
    /// Caller must hold an SSMEM guard for as long as it uses the table.
    #[inline]
    pub(crate) fn table(&self) -> Option<&Table> {
        // SAFETY: a table is released only after the grace periods of its
        // retirement, which the caller's guard holds back.
        unsafe { self.table.load(Ordering::SeqCst).as_ref() }
    }

    /// Bytes of the current table.
    pub(crate) fn bytes(&self) -> usize {
        let _guard = ssmem::protect();
        self.table().map_or(0, Table::bytes)
    }

    /// Counts a linked tower of [`SAMPLE_LEVEL`] or more, and grows the
    /// table when the count has passed what it was sized for;
    /// `refill(old, new)` copies what it can of the old table into the new
    /// one (see [`Self::grow`]).
    ///
    /// Caller must hold an SSMEM guard.
    pub(crate) fn tall_linked(&self, refill: impl FnOnce(&Table, &Table)) {
        let count = self.count.fetch_add(SAMPLE_WEIGHT, Ordering::Relaxed) + SAMPLE_WEIGHT;
        stats::record_atomic(true);
        if count <= FLOOR {
            return;
        }
        let current = self.table.load(Ordering::SeqCst);
        // SAFETY: under the caller's guard, as in `table`.
        let sized_for = unsafe { current.as_ref() }.map_or(0, |t| t.keys);
        if count as usize > sized_for {
            self.grow(current, (count as usize).next_power_of_two(), refill);
        }
    }

    /// Uncounts a removed tower of [`SAMPLE_LEVEL`] or more.
    pub(crate) fn tall_removed(&self) {
        self.count.fetch_sub(SAMPLE_WEIGHT, Ordering::Relaxed);
        stats::record_atomic(true);
    }

    /// Doubles the table now, whatever the count.
    #[cfg(test)]
    pub(crate) fn force_grow(&self, refill: impl FnOnce(&Table, &Table)) {
        let current = self.table.load(Ordering::SeqCst);
        // SAFETY: the table is live while the list is.
        let keys = unsafe { current.as_ref() }.map_or(WAYS, |t| t.keys);
        self.grow(current, 2 * keys, refill);
    }

    /// Swaps an empty table sized for `keys` keys in for `current`, then has
    /// `refill` copy the old table's hints into it and retires the old one.
    /// The copy is what keeps a list that grew under a bulk load hinted:
    /// without it, every key loaded before the last grow would walk until
    /// its first read. `refill` runs after the swap, so removers already
    /// clear in the new table, and it publishes as any filler does. The
    /// loser of a race frees its table at once.
    fn grow(&self, current: *mut Table, keys: usize, refill: impl FnOnce(&Table, &Table)) {
        let buckets = (keys * SLOT_EIGHTHS / 8).div_ceil(WAYS);
        let layout = Table::layout(buckets);
        // Zeroed memory is a table of empty slots.
        #[allow(unused_unsafe)]
        // SAFETY: a non-zero layout (the `std::alloc` fallback's contract).
        let fresh = unsafe { pages::alloc_zeroed(layout) }.cast::<Table>();
        if fresh.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: private until the swap below publishes it.
        unsafe { fresh.write(Table { buckets, keys }) };
        LIVE_TABLES.fetch_add(1, Ordering::SeqCst);
        let swapped = self.table.compare_exchange(current, fresh, Ordering::SeqCst, Ordering::SeqCst);
        stats::record_atomic(swapped.is_ok());
        if swapped.is_err() {
            // SAFETY: never published.
            return unsafe { free_table(fresh.cast(), layout) };
        }
        // SAFETY: the caller's guard predates the swap, which leaves
        // `current` readable to it; `fresh` is live while the list is.
        let Some(old) = (unsafe { current.as_ref() }) else {
            return;
        };
        // SAFETY: as above.
        refill(old, unsafe { &*fresh });
        // SAFETY: unreachable from the list now; only threads whose guards
        // predate the swap can still be reading it, and a lost hint only
        // sends them down the walk. Its memory leaves the footprint now,
        // so two tables' worth is resident only while the copy runs; the
        // mapping goes once the grace periods are over.
        unsafe {
            let layout = Table::layout(old.buckets);
            pages::discard(current.cast(), layout);
            ssmem::retire_with(current.cast(), layout, free_table);
        }
    }
}

impl Drop for Hints {
    fn drop(&mut self) {
        let table = *self.table.get_mut();
        if !table.is_null() {
            // SAFETY: `&mut self`: no thread reads the table any more.
            unsafe { free_table(table.cast(), Table::layout((*table).buckets)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_keys_of_one_shard_fill_its_table() {
        // The router's shard is the top of the product. The keys of one of
        // four shards, in a table sized for them: nearly every slot (or
        // every key, if there are fewer) must fill, and fingerprints must
        // tell the keys apart.
        let keys: Vec<u64> = (1..=1_000_000u64).filter(|k| k.wrapping_mul(FIB) >> 62 == 1).collect();
        let hints = Hints::new();
        hints.grow(std::ptr::null_mut(), keys.len().next_power_of_two(), |_, _| ());
        let _guard = ssmem::protect();
        let table = hints.table().expect("grown");
        let node = Box::into_raw(Box::new(0u64));
        let placed = keys.iter().filter(|&&k| table.publish(k, node, false).is_some()).count();
        let fps: std::collections::HashSet<u64> = keys.iter().map(|&k| split(k).1).collect();
        drop(unsafe { Box::from_raw(node) });
        let room = keys.len().min(table.buckets * WAYS);
        assert!(placed as f64 > 0.9 * room as f64, "{placed} of {} placed in {room} slots", keys.len());
        assert!(fps.len() > 60_000, "only {} fingerprints", fps.len());
    }

    #[test]
    fn a_slot_round_trips_a_node_and_publish_respects_occupancy() {
        let hints = Hints::new();
        hints.grow(std::ptr::null_mut(), 64, |_, _| ());
        let _guard = ssmem::protect();
        let table = hints.table().expect("grown");
        let nodes: Vec<Box<u64>> = (0..=WAYS as u64).map(Box::new).collect();
        let ptr = |i: usize| &*nodes[i] as *const u64 as *mut u64;
        // Nine nodes hinted under one key: eight fill the bucket, the ninth
        // only lands by overwriting.
        for i in 0..WAYS {
            assert_eq!(table.publish(7, ptr(i), false), Some(i));
        }
        assert_eq!(table.publish(7, ptr(WAYS), false), None, "a read fills only an empty slot");
        assert_eq!(table.probe::<u64>(7), Some(ptr(0)));
        let slot = |i: usize| table.bucket(split(7).0).0[i].load(Ordering::SeqCst);
        let victim = table.publish(7, ptr(WAYS), true).expect("an insert overwrites");
        table.clear(7, ptr(WAYS));
        assert_eq!(slot(victim), 0);
        let other = (victim + 1) % WAYS;
        table.withdraw(7, ptr(victim), other);
        assert_ne!(slot(other), 0, "a withdraw takes back only its own hint");
        table.withdraw(7, ptr(other), other);
        assert_eq!(slot(other), 0);
    }
}
