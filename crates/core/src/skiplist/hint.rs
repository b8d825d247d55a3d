//! The lossy hint table in front of [`super::FraserOptSkipList`]'s walk: a
//! map from key to skip-list node in CLHT's layout, 64-byte buckets of
//! eight slots. A slot is `node pointer (48 bits) | key fingerprint (16
//! bits)`; zero is the empty slot. Each key has two candidate buckets, as
//! in MemC3's partial-key cuckoo hashing: its own, and that one XORed with
//! a hash of its fingerprint. A fill takes an empty slot of the emptier
//! one, and a probe requests both lines before it scans them, so a hit
//! costs one round trip to memory whichever holds the hint. There is no
//! cuckoo displacement: a key whose sixteen slots are full walks. The
//! table may lose any hint at any time — a missing or wrong hint only
//! means "walk" — so it has no deletion protocol beyond clearing a slot,
//! and growing it means swapping in an empty table and copying into it
//! what the old one holds.
//! `fraser.rs`'s module doc has the publication protocol and why a read
//! through a hint is linearizable.
//!
//! Sizing takes no shared write on a read or an overwrite: an insert whose
//! tower is at least [`SAMPLE_LEVEL`] tall (one in 64, drawn by
//! `random_level` anyway) adds 64 to the list's approximate key count, and
//! its remover takes 64 off. Past [`FLOOR`], a tall insert that finds the
//! count an eighth ([`GROW_MARGIN`]) above what the table was sized for
//! swaps in one sized for the next power of two, at one slot per key: 7 to
//! 16 table bytes per key as the count moves between two doublings. A
//! table comes straight from the kernel ([`ssmem::pages`]), so it costs
//! RSS only where hints land and leaves it the moment it is discarded; one
//! of 2 MiB or more starts on a huge page and is advised as ssmem's node
//! chunks are, so a hinted read pays no page walk for its bucket line
//! either.

use std::alloc::Layout;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use ascylib_ssmem as ssmem;

use crate::prefetch;
use crate::stats;

/// Slots per bucket: one cache line of words.
pub(crate) const WAYS: usize = 8;

/// The approximate key count past which a list allocates its table.
///
/// Set by the paper's skip-list sizes, which measure the unhinted
/// `fraser-opt`: Figure 5 and the ASCY ablation run 1 024 elements, and
/// Figure 2 at average contention 4 096 on an 8 192-key range. The floor
/// is twice that. At 4 096 keys the sampled count stands for 64 ± 8 tall
/// towers (binomial, one in 64); passing the floor takes 128 of them,
/// eight standard deviations out, so those lists never allocate a table.
/// Figure 2's low-contention row (16 384 elements) runs past the floor,
/// hinted: clearing it by the same eight deviations (±1 024 keys there)
/// would take a floor of 24 576, which leaves lists of ten to twenty
/// thousand keys walking. Past the floor nothing argues for walking:
/// `cargo bench --bench micro_ops` at 1 k, 16 k and 256 k keys, loaded
/// and searched in a fixed random order, built with this floor at 0 and
/// at `isize::MAX`, four rounds each (numbers in CHANGES.md), measured a
/// hit at 36–59, 134–153 and 192–774 ns with the table against 101–134,
/// 200–284 and 1 139–1 444 ns for the walk (at 5/8 slot per key, when a
/// third of the keys still walked); a miss pays the bucket on top of its
/// walk, +15–30 % at 1 k and within the noise at 256 k, where the walk's
/// own misses dominate.
pub(crate) const FLOOR: isize = 8_192;

/// Towers at least this tall are the count's sample: p = 2^-(SAMPLE_LEVEL-1).
pub(crate) const SAMPLE_LEVEL: usize = 7;

/// Keys one sampled tower stands for.
const SAMPLE_WEIGHT: isize = 1 << (SAMPLE_LEVEL - 1);

/// A table sized for `keys` grows once the count passes `keys` by
/// `keys / GROW_MARGIN`, an eighth. The count is a sample: a list just
/// under a power of two reads above it now and then (±4 000 keys, one
/// standard deviation, at 250 000), and growing at the power itself gave
/// such a list a table for twice its keys.
const GROW_MARGIN: usize = 8;

/// The Fibonacci multiplier `ShardRouter::route` also uses. The router
/// takes the top bits of the product, so every key of a shard shares
/// them. The table skips the top [`ROUTER_BITS`] and takes the first
/// bucket from the bits below: over all of a million dense keys they
/// spread near-perfectly (the multiples of the golden ratio are evenly
/// spaced), where bits 32 and up of the product left three in four
/// buckets empty. One shard's keys are not spread so evenly: over keys
/// 1..=1 000 000 in four shards, the 8-slot buckets of a 262 144-slot
/// table hold between 5 and 14 of a shard's keys each, so with one bucket
/// per key 8.9 % of them found no slot. The second bucket, named by the
/// fingerprint, places all but 1.1 %. The fingerprint is bits 16–31,
/// below the bucket bits of any table up to 2^24 buckets.
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

/// A table's header line; its buckets follow it in the same allocation.
#[repr(C, align(64))]
pub(crate) struct Table {
    buckets: usize,
    /// The key count the table was sized for (a power of two): an eighth
    /// past it, the list grows a new one.
    keys: usize,
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

    /// `key`'s two buckets and its fingerprint. The first bucket is the
    /// top bits of the product below the router's, the second the first
    /// XORed with a hash of the fingerprint alone (MemC3's partial-key
    /// cuckoo), so either bucket and a slot's fingerprint name the other.
    /// The `| 1` keeps the two apart in any table of two or more buckets.
    #[inline]
    pub(crate) fn place(&self, key: u64) -> (usize, usize, u64) {
        debug_assert!(self.buckets.is_power_of_two());
        let h = key.wrapping_mul(FIB);
        let fp = (h >> 16) & 0xFFFF;
        // Lemire's multiply-shift: the top bits of the word, scaled to the
        // bucket count.
        let first = (((h << ROUTER_BITS) as u128 * self.buckets as u128) >> 64) as usize;
        let other = (first ^ (fp.wrapping_mul(FIB) >> 32 | 1) as usize) & (self.buckets - 1);
        (first, other, fp)
    }

    #[inline]
    fn bucket_at(&self, index: usize) -> &Bucket {
        debug_assert!(index < self.buckets);
        // SAFETY: the allocation holds `buckets` buckets after the header
        // line, and every caller's index is below `buckets` (a loop bound,
        // a product shifted down past the bucket count's own bits, or a
        // value masked to the bucket count, a power of two).
        unsafe { &*(self as *const Self).cast::<Bucket>().add(1 + index) }
    }

    /// The slots of buckets `first` and `other`, in that order: the
    /// `i`-th is slot `i` of [`Self::publish`]'s `0..2·WAYS`.
    #[inline]
    fn slots(&self, first: usize, other: usize) -> impl Iterator<Item = &AtomicU64> {
        self.bucket_at(first).0.iter().chain(&self.bucket_at(other).0)
    }

    /// Slot `index` of [`Self::slots`].
    #[inline]
    fn slot(&self, first: usize, other: usize, index: usize) -> &AtomicU64 {
        if index < WAYS {
            &self.bucket_at(first).0[index]
        } else {
            &self.bucket_at(other).0[index - WAYS]
        }
    }

    /// Starts the loads of `key`'s two bucket lines.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        let (first, other, _) = self.place(key);
        prefetch(self.bucket_at(first) as *const Bucket);
        prefetch(self.bucket_at(other) as *const Bucket);
    }

    /// The nodes hinted under `key`'s fingerprint, first bucket first, not
    /// dereferenced: a node's key may be another one. The second bucket's
    /// line is requested before the first is scanned, so the two misses
    /// overlap.
    #[inline]
    pub(crate) fn probe<N>(&self, key: u64) -> impl Iterator<Item = *mut N> + '_ {
        let (first, other, fp) = self.place(key);
        prefetch(self.bucket_at(other) as *const Bucket);
        self.slots(first, other).filter_map(move |slot| {
            let word = slot.load(Ordering::Acquire);
            (word != 0 && word & 0xFFFF == fp).then_some((word >> 16) as *mut N)
        })
    }

    /// Publishes `node` as `key`'s hint in an empty slot of whichever of
    /// its buckets has more (the first on a tie) or, with `overwrite` and
    /// both full, in the slot of the first bucket the fingerprint picks.
    /// Returns the slot taken, in `0..2·WAYS`. `SeqCst`: see the
    /// publication protocol in `fraser.rs`.
    pub(crate) fn publish<N>(&self, key: u64, node: *mut N, overwrite: bool) -> Option<usize> {
        let (first, other, fp) = self.place(key);
        // Empty slots of a bucket, and the first of them.
        let vacancies = |bucket: usize| {
            let mut found = (0, None);
            for (i, slot) in self.bucket_at(bucket).0.iter().enumerate() {
                if slot.load(Ordering::Relaxed) == 0 {
                    found.0 += 1;
                    found.1.get_or_insert(i);
                }
            }
            found
        };
        let (in_first, at_first) = vacancies(first);
        let (in_other, at_other) = vacancies(other);
        let empty = if in_other > in_first { at_other.map(|i| WAYS + i) } else { at_first };
        let (index, seen) = match empty {
            Some(empty) => (empty, 0),
            None if overwrite => {
                let victim = fp as usize % WAYS;
                (victim, self.slot(first, other, victim).load(Ordering::Relaxed))
            }
            None => return None,
        };
        let ok = self
            .slot(first, other, index)
            .compare_exchange(seen, encode(node, fp), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        stats::record_atomic(ok);
        ok.then_some(index)
    }

    /// Takes back the hint [`Self::publish`] put in slot `index`, unless
    /// something replaced it since.
    pub(crate) fn withdraw<N>(&self, key: u64, node: *mut N, index: usize) {
        let (first, other, fp) = self.place(key);
        let ok = self
            .slot(first, other, index)
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

    /// Slots of `key`'s two buckets that hint `node` under `key`.
    #[cfg(test)]
    pub(crate) fn hints_of<N>(&self, key: u64, node: *mut N) -> usize {
        self.slots_of(key, node).len()
    }

    /// The slots of `key`'s two buckets, in `0..2·WAYS`, that hint `node`
    /// under `key`.
    #[cfg(test)]
    pub(crate) fn slots_of<N>(&self, key: u64, node: *mut N) -> Vec<usize> {
        let (first, other, fp) = self.place(key);
        let hint = encode(node, fp);
        (0..2 * WAYS).filter(|&i| self.slot(first, other, i).load(Ordering::SeqCst) == hint).collect()
    }

    /// Hints `node` under `key` in slot `index` of its two buckets,
    /// whatever the slot held.
    #[cfg(test)]
    pub(crate) fn put<N>(&self, key: u64, node: *mut N, index: usize) {
        let (first, other, fp) = self.place(key);
        self.slot(first, other, index).store(encode(node, fp), Ordering::SeqCst);
    }

    /// Clears every slot of `key`'s two buckets hinting `node`: a remover's
    /// step between its tombstone and the node's retirement.
    pub(crate) fn clear<N>(&self, key: u64, node: *mut N) {
        let (first, other, fp) = self.place(key);
        let hint = encode(node, fp);
        for slot in self.slots(first, other) {
            if slot.load(Ordering::SeqCst) == hint {
                let ok = slot.compare_exchange(hint, 0, Ordering::SeqCst, Ordering::Relaxed).is_ok();
                stats::record_atomic(ok);
            }
        }
    }
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
    unsafe { ssmem::pages::dealloc(ptr, layout) };
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
    /// table when the count has passed [`FLOOR`] with no table, or what the
    /// table was sized for by more than an eighth ([`GROW_MARGIN`]);
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
        let limit = unsafe { current.as_ref() }.map_or(0, |t| t.keys + t.keys / GROW_MARGIN);
        if count as usize > limit {
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
        let buckets = keys.div_ceil(WAYS);
        let layout = Table::layout(buckets);
        // Zeroed memory is a table of empty slots.
        let fresh = ssmem::pages::alloc_zeroed(layout).cast::<Table>();
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
            ssmem::pages::discard(current.cast(), layout);
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
        let fps: std::collections::HashSet<u64> = keys.iter().map(|&k| table.place(k).2).collect();
        drop(unsafe { Box::from_raw(node) });
        let room = keys.len().min(table.buckets * WAYS);
        assert!(placed as f64 >= 0.98 * room as f64, "{placed} of {} placed in {room} slots", keys.len());
        assert!(fps.len() > 60_000, "only {} fingerprints", fps.len());
    }

    #[test]
    fn a_table_takes_a_huge_page_from_2_mib_and_reads_empty_after_discard() {
        const HUGE: usize = 2 << 20;
        // 128 KiB of slots on ordinary pages, then 2 MiB on a huge page.
        for keys in [1 << 14, 1 << 18] {
            let hints = Hints::new();
            hints.grow(std::ptr::null_mut(), keys, |_, _| ());
            let _guard = ssmem::protect();
            let table = hints.table().expect("grown");
            assert_eq!(table.buckets * WAYS, keys, "one slot per key");
            let at = table as *const Table as usize;
            if table.bytes() >= HUGE {
                assert_eq!(at % HUGE, 0, "a {} B table at {at:#x}", table.bytes());
            }
            let slots = || (0..table.buckets).flat_map(|b| &table.bucket_at(b).0);
            assert!(slots().all(|s| s.load(Ordering::Relaxed) == 0), "a fresh table holds a hint");
            let node = Box::into_raw(Box::new(0u64));
            for key in 0..keys as u64 {
                table.publish(key, node, true);
            }
            let hinted = (0..keys as u64).filter(|&key| table.probe::<u64>(key).next() == Some(node)).count();
            assert!(hinted > keys / 2, "{hinted} of {keys} keys hinted");
            // SAFETY: the table's own allocation; every slot may be lost.
            unsafe { ssmem::pages::discard((table as *const Table).cast_mut().cast(), Table::layout(table.buckets)) };
            // The first page (the header line and the buckets after it)
            // stays; every slot past it reads empty.
            let kept = slots().filter(|s| s.load(Ordering::Relaxed) != 0).count();
            assert!(kept * 8 < ssmem::pages::page_size(), "{kept} slots still hint after the discard");
            let last = table.bucket_at(table.buckets - 1);
            assert!(last.0.iter().all(|s| s.load(Ordering::Relaxed) == 0));
            assert_eq!(table.keys, keys, "the header survives the discard");
            drop(unsafe { Box::from_raw(node) });
        }
    }

    #[test]
    fn a_table_grows_only_an_eighth_past_the_keys_it_was_sized_for() {
        let hints = Hints::new();
        let _guard = ssmem::protect();
        let count = || hints.count.load(Ordering::Relaxed) as usize;
        let keys = || hints.table().map_or(0, |t| t.keys);
        let tall_until = |stop: &dyn Fn(usize) -> bool| {
            while !stop(count()) {
                hints.tall_linked(|_, _| ());
            }
        };
        tall_until(&|c| c >= FLOOR as usize);
        assert_eq!(keys(), 0, "a table at the floor");
        tall_until(&|c| c > FLOOR as usize);
        let first = keys();
        assert_eq!(first, 2 * FLOOR as usize, "the first table takes the next power of two");
        // Past the power of two the table was sized for, up to the margin:
        // the same table.
        tall_until(&|c| c > first);
        assert_eq!(keys(), first, "grew at {} keys, just past {first}", count());
        tall_until(&|c| c + SAMPLE_WEIGHT as usize > first + first / GROW_MARGIN);
        assert_eq!(keys(), first, "grew at {} keys, inside the margin", count());
        // One more tall tower crosses the margin.
        hints.tall_linked(|_, _| ());
        assert!(count() > first + first / GROW_MARGIN);
        assert_eq!(keys(), 2 * first, "no grow at {} keys, past the margin", count());
    }

    #[test]
    fn a_slot_round_trips_a_node_and_publish_respects_occupancy() {
        let hints = Hints::new();
        hints.grow(std::ptr::null_mut(), 64, |_, _| ());
        let _guard = ssmem::protect();
        let table = hints.table().expect("grown");
        const SLOTS: usize = 2 * WAYS;
        let nodes: Vec<Box<u64>> = (0..=SLOTS as u64).map(Box::new).collect();
        let ptr = |i: usize| &*nodes[i] as *const u64 as *mut u64;
        let (first, other, _) = table.place(7);
        assert_ne!(first, other, "two buckets");
        let slot = |i: usize| table.slot(first, other, i).load(Ordering::SeqCst);
        // Seventeen nodes hinted under one key: sixteen fill its two
        // buckets, the seventeenth only lands by overwriting.
        let mut held = [usize::MAX; SLOTS];
        for i in 0..SLOTS {
            held[table.publish(7, ptr(i), false).expect("a read fills an empty slot")] = i;
        }
        assert!(held.iter().all(|&i| i < SLOTS), "sixteen fills missed a slot: {held:?}");
        assert_eq!(table.publish(7, ptr(SLOTS), false), None, "a read fills only an empty slot");
        assert_eq!(table.probe::<u64>(7).collect::<Vec<_>>(), held.map(ptr));
        let victim = table.publish(7, ptr(SLOTS), true).expect("an insert overwrites");
        assert!(victim < WAYS, "the overwrite took slot {victim}, outside the first bucket");
        table.clear(7, ptr(SLOTS));
        assert_eq!(slot(victim), 0);
        // One slot of each bucket.
        for index in [(victim + 1) % WAYS, WAYS + victim] {
            table.withdraw(7, ptr(held[victim]), index);
            assert_ne!(slot(index), 0, "a withdraw takes back only its own hint");
            table.withdraw(7, ptr(held[index]), index);
            assert_eq!(slot(index), 0);
        }
    }
}
