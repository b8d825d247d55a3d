//! The blob-value layer: variable-length `[u8]` payloads over the untouched
//! `u64 → u64` machinery — now a **budgeted cache tier**.
//!
//! The ASCYLIB structures (and [`ShardedMap`] over them) move 64-bit values
//! — enough for the paper's figures, not for a KV store that must hold real
//! payloads. Instead of rewriting 18 structures, this module stores payloads
//! *outside* the structures and indexes them with 64-bit **handles**:
//!
//! * a per-shard payload arena (private to this module) owns the payload
//!   memory. Each blob is a header-prefixed allocation from `ascylib-ssmem`
//!   (`alloc_raw`/`retire_raw`), so blob lifetime rides the same epoch
//!   machinery that protects the structures' own nodes: a blob retired by a
//!   `DEL`/overwrite is not reused until every thread that could still be
//!   copying it has left its operation.
//! * [`BlobMap`] is the safe facade: `set` writes the blob, publishes its
//!   handle through the sharded map, and retires the displaced blob;
//!   `get`/`multi_get`/`scan` fetch handles and copy payloads out **under
//!   one [`ssmem::protect`] guard**, so a concurrent delete can never free a
//!   blob mid-read. Readers therefore never observe torn, truncated, or
//!   reused payloads — only values that were fully written before publish.
//!
//! # The cache tier: handle tags and the blob header
//!
//! A handle is still `ptr as u64`, but the spare bits now carry metadata
//! (blobs are 8-aligned and user-space pointers fit 48 bits, so the low 3
//! and top 16 bits of the word are free — `debug_assert`ed at store time):
//!
//! ```text
//! bit 63..48   per-arena generation tag (defeats handle ABA: a recycled
//!              pointer re-stored gets a different tag, so an evictor's
//!              stale snapshot never matches a fresh value)
//! bit 47..3    the blob address (8-aligned)
//! bit 0        TTL flag: set iff the value carries an expiry deadline,
//!              so reads of never-expiring values skip the expiry check
//!              without loading anything
//! ```
//!
//! The blob header is three words, 24 bytes, and the payload follows it in
//! the same allocation:
//!
//! ```text
//! word 0   meta: payload length (low 63 bits) | CLOCK reference bit (63)
//! word 1   expire_at_ms (0 = no deadline); atomic, EXPIRE/PERSIST mutate it
//! word 2   this blob's position in its shard's ledger; read and written
//!          only under the ledger mutex
//! ```
//!
//! The allocation is header + payload rounded up at one of two
//! granularities: to 16 bytes while the total is at most 256 bytes, to 64
//! bytes above. Small values are where rounding costs most — at 64-byte
//! steps a 64-byte value took 128 bytes, now 96 — and 16 bytes is what the
//! system allocator rounds to anyway; large values keep the coarse step so
//! the reuse pool sees few classes per kilobyte. Either way the size is a
//! function of the payload length alone, which the header records.
//!
//! The CLOCK reference bit lives in the header word the read path already
//! loads for the length, so tracking a hit costs **one relaxed bit-set and
//! zero extra cache lines** — and only when a byte budget is configured and
//! the bit isn't already set (hot blobs settle into a read-only state).
//!
//! # Budget enforcement
//!
//! Every `set` **reserves** its payload bytes on the shard's live-byte
//! gauge before allocating, and every retire releases them, so the gauge is
//! the one count of live payload bytes: [`BlobMap::total_arena_stats`] and
//! [`BlobMap::cache_stats`] both read it, and it equals the stored payloads
//! whenever no `set` is between its reservation and its store. With a
//! [`CacheConfig`] budget the reservation is a CAS loop against the shard's
//! share; one that would overflow the budget runs CLOCK eviction (clear
//! reference bits, evict the first unreferenced victim) until it fits. The
//! per-shard gauge therefore never exceeds the budget at any externally
//! observable instant — except `forced` admissions, counted separately,
//! when nothing is evictable (e.g. one value larger than a shard's whole
//! share).
//!
//! # Expiry
//!
//! Expiry is **lazy**: a read that finds a dead value answers "missing",
//! then unlinks and retires the corpse after its epoch guard drops. An
//! incremental sweep piggybacks on the write path (every
//! `SWEEP_EVERY`th `set` per shard walks a few ledger entries — no new
//! threads) and on `scan`, which reclaims any corpse it walks over.
//!
//! # Hot-key cooperation
//!
//! Values carrying a TTL are **never** installed in the hot-key front
//! cache (their fill leases are simply dropped), so a front hit can never
//! outlive its deadline. Eviction and expiry of a fronted key poison its
//! seqlock slot *before* the handle is retired — the engine's never-stale
//! guarantee survives the cache tier.
//!
//! # Consistency
//!
//! Per-key operations keep the shard layer's linearizability. An
//! **overwrite** (`set` on a present key) swaps the handle in place with
//! [`ReplaceMap::replace`], so a reader of a key that is never deleted
//! never misses. Two windows remain in which a present key can read as
//! absent, both unlink-then-republish on the index, and both end in
//! `republish` (insert the unlinked handle back, or retire it if a fresher
//! write took the key):
//!
//! * `retag_with_ttl`: `expire` on a value stored without a deadline
//!   retags its handle, because readers consult the expiry word only when
//!   the handle carries the TTL flag;
//! * `reclaim`: the evictor and the expiry reclaim unlink the key they
//!   chose and, when the handle they get is not the one they chose (an
//!   overwrite raced them), put it back.
//!
//! Closing them takes a compare-and-replace on the index, not `replace`.
//! Readers never see a mix of old and new payload bytes — payloads are
//! immutable after publish (the expiry word is the one mutable, atomic
//! field). `expire`/`persist` racing an overwrite of the same key resolve
//! in an arbitrary order.
//!
//! # Teardown
//!
//! Hash backings cannot enumerate their keys, so each shard's arena keeps a
//! write-path-only ledger of live handles: a dense vector under one mutex
//! per *shard*, touched only by `set`/`del` and the eviction/sweep
//! machinery — reads stay asynchronized. Its length is the shard's live
//! blob count. There is no hash index beside it; each blob's header says
//! where its entry sits. Dropping the map frees every live blob through the
//! ledger; blobs already retired are owned by the epoch machinery and freed
//! by its collector.

use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ascylib::api::{ConcurrentMap, ReplaceMap};
use ascylib::ordered::OrderedMap;
use ascylib::prefetch;
use ascylib_ssmem as ssmem;
use crossbeam_utils::CachePadded;

use crate::cache::{CacheConfig, CacheStatsSnapshot, MsClock};
use crate::hotkey::{FillTicket, FrontRead, HotKeyConfig, HotKeyEngine, HotKeyStatsSnapshot};
use crate::map::ShardedMap;

/// Bytes of blob header: the meta word (payload length + CLOCK reference
/// bit), the expiry word and the ledger-position word. The retire path
/// reconstructs the allocation layout from the header alone.
const HEADER: usize = 24;

/// Blob alignment (a header of three `u64` words).
const ALIGN: usize = 8;

/// Allocation sizes above [`SMALL_BLOB_MAX`] are rounded up to this
/// granularity, so the ssmem reuse pool sees a bounded number of size classes
/// per kilobyte of value length (two payloads within the same 64-byte bucket
/// recycle each other's memory).
const SIZE_CLASS: usize = 64;

/// Allocation sizes up to [`SMALL_BLOB_MAX`] are rounded up to this finer
/// granularity: it is the system allocator's own, so a finer one would save
/// nothing, and it adds at most fifteen classes (32, 48, .. 256 bytes).
const SMALL_SIZE_CLASS: usize = 16;

/// Largest allocation (header included) rounded at [`SMALL_SIZE_CLASS`].
const SMALL_BLOB_MAX: usize = 256;

/// Handle bit 0: the value carries an expiry deadline.
const TAG_TTL: u64 = 1;

/// Handle bits 63..48: the arena generation tag.
const TAG_GEN_MASK: u64 = 0xFFFF << 48;

/// Clears every tag bit, leaving the 8-aligned blob address.
const ADDR_MASK: u64 = !(TAG_GEN_MASK | 0x7);

/// Meta-word bit 63: the CLOCK reference bit.
const META_REF: u64 = 1 << 63;

/// Meta-word bits 62..0: the payload length.
const META_LEN_MASK: u64 = META_REF - 1;

/// Every `SWEEP_EVERY`th `set` on a shard walks a slice of the ledger
/// looking for expired values (skipped entirely while no value on the
/// shard carries a deadline).
const SWEEP_EVERY: u64 = 64;

/// Ledger entries examined per sweep step.
const SWEEP_BATCH: usize = 8;

/// Consecutive fruitless eviction attempts before a reservation is forced
/// through over budget (progress guarantee; see `CacheStatsSnapshot::forced`).
const EVICT_FORCE_ATTEMPTS: u32 = 128;

/// Payload capacity a [`BatchValues`] keeps from one batch to the next: a
/// larger buffer is shrunk to this before it is refilled, so one batch of
/// large values does not pin its memory for every batch after it.
const BATCH_KEEP_BYTES: usize = 64 * 1024;

/// The blob address a (possibly tagged) handle points at.
#[inline]
fn blob_addr(handle: u64) -> *mut u8 {
    (handle & ADDR_MASK) as *mut u8
}

/// `true` if the handle's value carries an expiry deadline.
#[inline]
fn has_ttl(handle: u64) -> bool {
    handle & TAG_TTL != 0
}

/// The meta word (length + reference bit) of a blob.
///
/// # Safety
///
/// `ptr` must be a live (or owned/protected) blob allocation.
#[inline]
unsafe fn meta_cell<'a>(ptr: *mut u8) -> &'a AtomicU64 {
    // SAFETY: forwarded caller contract; word 0 is 8-aligned by `ALIGN`.
    unsafe { &*(ptr as *const AtomicU64) }
}

/// The expiry word of a blob. Same safety contract as [`meta_cell`].
#[inline]
unsafe fn expire_cell<'a>(ptr: *mut u8) -> &'a AtomicU64 {
    // SAFETY: forwarded caller contract; word 1 sits inside the header.
    unsafe { &*(ptr.add(8) as *const AtomicU64) }
}

/// The ledger-position word of a blob. Same safety contract as
/// [`meta_cell`]; the ledger mutex orders every access, so they are all
/// `Relaxed`.
#[inline]
unsafe fn pos_cell<'a>(ptr: *mut u8) -> &'a AtomicU64 {
    // SAFETY: forwarded caller contract; word 2 sits inside the header.
    unsafe { &*(ptr.add(16) as *const AtomicU64) }
}

/// Prefetches the line holding a blob's last payload byte (the header line
/// holds its first ones).
///
/// # Safety
///
/// As [`ValueArena::read_into`]: the blob's length word is read.
#[inline]
unsafe fn prefetch_payload_end(handle: u64) {
    let ptr = blob_addr(handle);
    // SAFETY: forwarded caller contract; `HEADER + len - 1` is the blob's
    // last payload byte, or inside its header when the payload is empty.
    unsafe {
        let len = (meta_cell(ptr).load(Ordering::Relaxed) & META_LEN_MASK) as usize;
        prefetch(ptr.add(HEADER + len - 1));
    }
}

/// The allocation layout backing a blob of `len` payload bytes. Must be a
/// pure function of `len`: `store` and `retire` both derive it, and the
/// layouts have to match for the allocator.
fn blob_layout(len: usize) -> Layout {
    let exact = HEADER + len;
    let class = if exact <= SMALL_BLOB_MAX { SMALL_SIZE_CLASS } else { SIZE_CLASS };
    let size = exact.div_ceil(class) * class;
    Layout::from_size_align(size, ALIGN).expect("valid blob layout")
}

/// Cache-tier counters of one arena (monotone, `Relaxed`: independent event
/// counts with no ordering obligations, as everywhere else in this crate).
/// `live_now` is the live payload-byte gauge: `reserve` adds to it before
/// every store, `retire` subtracts.
#[derive(Debug, Default)]
struct CacheCounters {
    live_now: AtomicU64,
    evictions: AtomicU64,
    expired_lazy: AtomicU64,
    expired_swept: AtomicU64,
    forced: AtomicU64,
    ttl_live: AtomicU64,
    sweep_tick: AtomicU64,
    generation: AtomicU64,
}

/// What the arenas hold right now (one arena's, or a sum over arenas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStatsSnapshot {
    blobs: u64,
    bytes: u64,
}

impl ArenaStatsSnapshot {
    /// Blobs currently live: the ledgers' length.
    pub fn live_blobs(&self) -> u64 {
        self.blobs
    }

    /// Payload bytes currently live: the live-byte gauge (module docs,
    /// "Budget enforcement").
    pub fn live_bytes(&self) -> u64 {
        self.bytes
    }
}

/// The write-path ledger: every live handle with its key, plus the
/// persistent CLOCK hand and the TTL-sweep cursor. An entry is found from
/// its blob: header word 2 holds the entry's position (so retagging a
/// handle in place — `EXPIRE` on a previously deadline-free value — keeps
/// the entry findable).
#[derive(Debug, Default)]
struct Ledger {
    /// `(key, tagged handle)` of every live blob on this shard.
    entries: Vec<(u64, u64)>,
    /// CLOCK hand: where the next victim scan resumes.
    hand: usize,
    /// TTL-sweep cursor: where the next sweep step resumes.
    sweep: usize,
}

impl Ledger {
    /// The position of `handle`'s entry, from its blob header.
    ///
    /// # Safety
    ///
    /// `handle`'s blob must be allocated and in this ledger.
    unsafe fn position(&self, handle: u64) -> usize {
        // SAFETY: forwarded caller contract.
        let pos = unsafe { pos_cell(blob_addr(handle)).load(Ordering::Relaxed) } as usize;
        debug_assert_eq!(
            self.entries.get(pos).map(|e| e.1 & ADDR_MASK),
            Some(handle & ADDR_MASK),
            "blob header and ledger disagree (handle retired twice?)"
        );
        pos
    }

    /// # Safety
    ///
    /// `handle`'s blob must be allocated and not in any ledger.
    unsafe fn insert(&mut self, key: u64, handle: u64) {
        // SAFETY: forwarded caller contract.
        unsafe { pos_cell(blob_addr(handle)).store(self.entries.len() as u64, Ordering::Relaxed) };
        self.entries.push((key, handle));
    }

    /// # Safety
    ///
    /// As [`position`](Self::position).
    unsafe fn remove(&mut self, handle: u64) {
        // SAFETY: forwarded caller contract.
        let pos = unsafe { self.position(handle) };
        self.entries.swap_remove(pos);
        if let Some(&(_, moved)) = self.entries.get(pos) {
            // SAFETY: `moved` is in the ledger, so its blob is allocated.
            unsafe { pos_cell(blob_addr(moved)).store(pos as u64, Ordering::Relaxed) };
        }
    }

    /// Rewrites the stored handle of a live entry (same blob address).
    ///
    /// # Safety
    ///
    /// As [`position`](Self::position).
    unsafe fn retag(&mut self, handle: u64, new_handle: u64) {
        debug_assert_eq!(handle & ADDR_MASK, new_handle & ADDR_MASK);
        // SAFETY: forwarded caller contract.
        let pos = unsafe { self.position(handle) };
        self.entries[pos].1 = new_handle;
    }
}

/// One shard's payload arena: header-prefixed `[u8]` blobs in
/// ssmem-managed memory, addressed by opaque 64-bit handles that fit
/// wherever a `u64` value goes.
///
/// The arena does not synchronize readers itself — it inherits ssmem's
/// epoch protocol, whose rules [`BlobMap`] keeps:
///
/// * a handle is [`read`](Self::read_into) only under an
///   [`ssmem::protect`] guard created *before* the handle was fetched from
///   the index;
/// * a handle is [`retire`](Self::retire)d exactly once, after it has been
///   unlinked from the index, and every [`store`](Self::store) follows a
///   reservation of its bytes.
///
/// Budget *policy* (reservation loops, eviction) lives in [`BlobMap`]; the
/// arena only carries the mechanism (the ledger, the gauges, the clock).
#[derive(Debug)]
struct ValueArena {
    /// Live handles + CLOCK state, maintained by the write path only, so
    /// teardown can free payloads without key enumeration from the backing.
    ledger: Mutex<Ledger>,
    cache: CachePadded<CacheCounters>,
    /// This shard's payload-byte budget (`None` = unbounded).
    budget: Option<u64>,
    /// The clock expiry deadlines are measured against.
    clock: Arc<dyn MsClock>,
}

impl ValueArena {
    /// An empty arena with a byte budget (`None` = unbounded) and a clock.
    fn new(budget: Option<u64>, clock: Arc<dyn MsClock>) -> Self {
        ValueArena {
            ledger: Mutex::new(Ledger::default()),
            cache: CachePadded::default(),
            budget,
            clock,
        }
    }

    /// Milliseconds on this arena's clock.
    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Copies `value` into a fresh header-prefixed blob and returns its
    /// tagged handle. The payload is immutable from here on (readers rely
    /// on it); `expire_at_ms` (0 = none) sets the expiry word and the
    /// handle's TTL flag. The caller has reserved `value.len()` bytes (see
    /// [`BlobMap`]'s reservation path).
    fn store(&self, key: u64, value: &[u8], expire_at_ms: u64) -> u64 {
        let layout = blob_layout(value.len());
        let ptr = ssmem::alloc_raw(layout);
        debug_assert_eq!(
            ptr as u64 & !ADDR_MASK,
            0,
            "blob pointers must fit the 48-bit/8-aligned tag layout"
        );
        // SAFETY: `ptr` is a fresh (or recycled past its grace period)
        // allocation of `layout`, which holds HEADER + value.len() bytes;
        // nothing else references it until we publish the handle. The
        // reference bit starts clear — only an actual read earns survival,
        // so a churn stream of never-read inserts evicts itself instead of
        // lapping the hand over (and past) the genuinely hot entries.
        unsafe {
            meta_cell(ptr).store(value.len() as u64, Ordering::Relaxed);
            expire_cell(ptr).store(expire_at_ms, Ordering::Relaxed);
            ptr.add(HEADER).copy_from_nonoverlapping(value.as_ptr(), value.len());
        }
        let generation = self.cache.generation.fetch_add(1, Ordering::Relaxed);
        let mut handle = (ptr as u64) | ((generation << 48) & TAG_GEN_MASK);
        if expire_at_ms != 0 {
            handle |= TAG_TTL;
            self.cache.ttl_live.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated above and is in no ledger yet.
        unsafe { self.ledger.lock().expect("arena ledger poisoned").insert(key, handle) };
        handle
    }

    /// Appends the blob's payload bytes to `out`.
    ///
    /// # Safety
    ///
    /// The caller must hold an [`ssmem::protect`] guard that was created
    /// before `handle` was fetched from the shared index (or own the
    /// unlinked handle outright), and the handle must have been produced
    /// by [`store`](Self::store) on this or any other arena sharing the
    /// ssmem runtime.
    unsafe fn read_into(&self, handle: u64, out: &mut Vec<u8>) {
        let ptr = blob_addr(handle);
        // SAFETY: the guard (caller contract) keeps the blob from being
        // reclaimed; payloads are immutable after publish, so the length
        // and payload reads race with nothing.
        unsafe {
            let len = (meta_cell(ptr).load(Ordering::Relaxed) & META_LEN_MASK) as usize;
            out.extend_from_slice(std::slice::from_raw_parts(ptr.add(HEADER), len));
        }
    }

    /// [`read_into`](Self::read_into) for point reads: additionally sets
    /// the CLOCK reference bit — one relaxed bit-set in the header word
    /// the length load already pulled in, and only when a budget makes
    /// eviction live and the bit isn't already set. Same safety contract.
    unsafe fn read_into_marked(&self, handle: u64, out: &mut Vec<u8>) {
        let ptr = blob_addr(handle);
        // SAFETY: as `read_into`; the bit-set is atomic and races only
        // with other bit ops on the same word.
        unsafe {
            let meta = meta_cell(ptr).load(Ordering::Relaxed);
            let len = (meta & META_LEN_MASK) as usize;
            out.extend_from_slice(std::slice::from_raw_parts(ptr.add(HEADER), len));
            if self.budget.is_some() && meta & META_REF == 0 {
                meta_cell(ptr).fetch_or(META_REF, Ordering::Relaxed);
            }
        }
    }

    /// The blob's expiry deadline (0 = none). Same safety contract as
    /// [`read_into`](Self::read_into).
    unsafe fn expire_of(&self, handle: u64) -> u64 {
        // SAFETY: forwarded caller contract.
        unsafe { expire_cell(blob_addr(handle)).load(Ordering::Relaxed) }
    }

    /// `true` if the value carries a deadline that has passed on this
    /// arena's clock — the one liveness test of every read. A handle
    /// without the TTL flag answers from the handle word alone, loading
    /// nothing. Same safety contract as [`read_into`](Self::read_into).
    #[inline]
    unsafe fn is_expired(&self, handle: u64) -> bool {
        if !has_ttl(handle) {
            return false;
        }
        // SAFETY: forwarded caller contract.
        let exp = unsafe { self.expire_of(handle) };
        exp != 0 && self.now_ms() >= exp
    }

    /// Rewrites the blob's expiry deadline (EXPIRE/PERSIST). Same safety
    /// contract as [`read_into`](Self::read_into).
    unsafe fn set_expire(&self, handle: u64, deadline_ms: u64) {
        // SAFETY: forwarded caller contract; the word is atomic, payloads
        // stay immutable.
        unsafe { expire_cell(blob_addr(handle)).store(deadline_ms, Ordering::Relaxed) };
    }

    /// Rewrites a live ledger entry's handle in place (EXPIRE retagging a
    /// deadline-free value) and keeps the TTL gauge coherent.
    ///
    /// # Safety
    ///
    /// `handle` must come from [`store`](Self::store) on this arena and
    /// not have been retired.
    unsafe fn retag(&self, handle: u64, new_handle: u64) {
        if !has_ttl(handle) && has_ttl(new_handle) {
            self.cache.ttl_live.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: stored here and not retired, so allocated and in the ledger.
        unsafe { self.ledger.lock().expect("arena ledger poisoned").retag(handle, new_handle) };
    }

    /// Reserves `len` payload bytes against the gauge unconditionally
    /// (unbounded arenas, or a forced over-budget admission).
    fn add_live(&self, len: u64) {
        self.cache.live_now.fetch_add(len, Ordering::Relaxed);
    }

    /// Tries to reserve `len` payload bytes under the budget; `false`
    /// means the caller must evict (or force) first. With no budget the
    /// reservation always succeeds.
    fn try_reserve(&self, len: u64) -> bool {
        let Some(budget) = self.budget else {
            self.add_live(len);
            return true;
        };
        let mut cur = self.cache.live_now.load(Ordering::Relaxed);
        loop {
            if cur.saturating_add(len) > budget {
                return false;
            }
            match self.cache.live_now.compare_exchange_weak(
                cur,
                cur + len,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// CLOCK victim selection: advance the hand, clear reference bits on
    /// referenced entries, return the first unreferenced `(key, handle)`
    /// (forcing one after two full laps so concurrent re-referencing
    /// cannot starve the evictor). `None` if the ledger is empty.
    fn clock_victim(&self) -> Option<(u64, u64)> {
        let mut ledger = self.ledger.lock().expect("arena ledger poisoned");
        let n = ledger.entries.len();
        if n == 0 {
            return None;
        }
        for _ in 0..2 * n {
            let i = ledger.hand % n;
            ledger.hand = (i + 1) % n;
            let (key, handle) = ledger.entries[i];
            // SAFETY: the entry is in the ledger, and `retire` removes an
            // entry (under this lock) strictly before freeing its blob, so
            // the header is readable while we hold the lock.
            let meta = unsafe { meta_cell(blob_addr(handle)) };
            if meta.load(Ordering::Relaxed) & META_REF != 0 {
                meta.fetch_and(!META_REF, Ordering::Relaxed);
                continue;
            }
            return Some((key, handle));
        }
        let i = ledger.hand % n;
        ledger.hand = (i + 1) % n;
        Some(ledger.entries[i])
    }

    /// Collects up to `max` expired `(key, handle)` entries from the sweep
    /// cursor (the caller reclaims them after this lock is released).
    fn collect_expired(&self, max: usize, out: &mut Vec<(u64, u64)>) {
        let mut ledger = self.ledger.lock().expect("arena ledger poisoned");
        let n = ledger.entries.len();
        for _ in 0..max.min(n) {
            let i = ledger.sweep % n;
            ledger.sweep = (i + 1) % n;
            let entry = ledger.entries[i];
            // SAFETY: in-ledger entry under the ledger lock (see
            // `clock_victim`).
            if unsafe { self.is_expired(entry.1) } {
                out.push(entry);
            }
        }
    }

    /// Retires a blob: its memory returns to the ssmem pool once every
    /// operation concurrent with this call has finished, and its bytes
    /// leave the live gauge.
    ///
    /// # Safety
    ///
    /// `handle` must come from [`store`](Self::store) on this arena, must
    /// already be unlinked from every shared index, and must not be retired
    /// twice.
    unsafe fn retire(&self, handle: u64) {
        let ptr = blob_addr(handle);
        // SAFETY: the handle is unlinked (caller contract), so this thread
        // owns the right to read its header and retire it.
        let len = unsafe { meta_cell(ptr).load(Ordering::Relaxed) } & META_LEN_MASK;
        // SAFETY: stored here and not yet retired (caller contract), so the
        // blob is allocated and in this ledger.
        unsafe { self.ledger.lock().expect("arena ledger poisoned").remove(handle) };
        let live = self.cache.live_now.fetch_sub(len, Ordering::Relaxed);
        debug_assert!(live >= len, "live-byte gauge underflow (a store without a reservation)");
        if has_ttl(handle) {
            let ttl = self.cache.ttl_live.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(ttl > 0, "TTL gauge underflow");
        }
        // SAFETY: unlinked and never retired before (caller contract);
        // layout is the same pure function of `len` used at allocation.
        unsafe { ssmem::retire_raw(ptr, blob_layout(len as usize)) };
    }

    /// Retires a handle this thread unlinked and reports whether its value
    /// was live — an expired corpse answers `false`. Same contract as
    /// [`retire`](Self::retire).
    unsafe fn retire_was_live(&self, handle: u64) -> bool {
        // SAFETY: forwarded caller contract; the blob is read before it is
        // retired.
        unsafe {
            let live = !self.is_expired(handle);
            self.retire(handle);
            live
        }
    }

    /// What this arena holds right now.
    fn stats(&self) -> ArenaStatsSnapshot {
        ArenaStatsSnapshot {
            blobs: self.ledger.lock().expect("arena ledger poisoned").entries.len() as u64,
            bytes: self.cache.live_now.load(Ordering::Relaxed),
        }
    }

    /// A copy of the arena's cache-tier counters.
    fn cache_stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            budget_bytes: self.budget.unwrap_or(0),
            live_bytes: self.cache.live_now.load(Ordering::Relaxed),
            evictions: self.cache.evictions.load(Ordering::Relaxed),
            expired_lazy: self.cache.expired_lazy.load(Ordering::Relaxed),
            expired_swept: self.cache.expired_swept.load(Ordering::Relaxed),
            forced: self.cache.forced.load(Ordering::Relaxed),
            ttl_live: self.cache.ttl_live.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ValueArena {
    fn drop(&mut self) {
        // `&mut self`: no concurrent operations; every handle still in the
        // ledger is live (retired ones were removed at retire time and are
        // owned by the epoch collector).
        let ledger = std::mem::take(self.ledger.get_mut().expect("arena ledger poisoned"));
        for (_key, handle) in ledger.entries {
            let ptr = blob_addr(handle);
            // SAFETY: live blob, unreachable by any thread after Drop began.
            unsafe {
                let len = (meta_cell(ptr).load(Ordering::Relaxed) & META_LEN_MASK) as usize;
                ssmem::dealloc_raw_immediate(ptr, blob_layout(len));
            }
        }
    }
}

/// Where one value sits in a [`BatchValues`] buffer: `start..end`.
type Span = (usize, usize);

/// One batched read's answers in input order, with every found value's
/// bytes in one buffer: a batch costs two vectors however many values it
/// finds, and [`BlobMap::multi_get_into`] refills them in place.
#[derive(Debug, Default)]
pub struct BatchValues {
    /// Every found value's payload, in the order the values were copied.
    bytes: Vec<u8>,
    /// Per key, in input order: where its value sits in `bytes`, or `None`
    /// if the key was missing.
    spans: Vec<Option<Span>>,
}

impl BatchValues {
    /// Number of keys answered.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if the batch answered no key.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every key's value in input order (`None` = missing).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<&[u8]>> + '_ {
        self.spans.iter().map(|span| span.map(|(start, end)| &self.bytes[start..end]))
    }

    /// Owned copies of every answer, one vector per found value.
    pub fn to_vec(&self) -> Vec<Option<Vec<u8>>> {
        self.iter().map(|value| value.map(<[u8]>::to_vec)).collect()
    }

    /// Empties the batch for a refill, keeping at most
    /// [`BATCH_KEEP_BYTES`] of payload capacity.
    fn clear(&mut self) {
        self.spans.clear();
        self.bytes.clear();
        self.bytes.shrink_to(BATCH_KEEP_BYTES);
    }
}

/// The keys of a batch the front cache left to the backing.
struct Rest {
    keys: Vec<u64>,
    /// Per key of `keys`: its input position and fill lease.
    slots: Vec<(usize, Option<FillTicket>)>,
}

thread_local! {
    /// Scratch handle buffer for `multi_get`, so the server's batched reads
    /// (`MGET`, pipelined `GET` runs) perform no per-batch allocation for
    /// the handle pass.
    static HANDLE_SCRATCH: RefCell<Vec<Option<u64>>> = const { RefCell::new(Vec::new()) };
    /// Scratch for `multi_get_into` with a hot-key engine.
    static REST_SCRATCH: RefCell<Rest> =
        const { RefCell::new(Rest { keys: Vec::new(), slots: Vec::new() }) };
}

/// Why a value is reclaimed; picks the counter the reclaim bumps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reclaim {
    /// A read found it expired.
    Lazy,
    /// The piggybacked write/scan sweep found it expired.
    Swept,
    /// CLOCK chose it to make room under the budget.
    Evicted,
}

/// The front cache's one fill rule, for [`BlobMap::get`] and
/// [`BlobMap::multi_get_into`]: `found` is the backing read's value and
/// whether it carries a TTL. A value without one is installed and a miss
/// caches absence; a TTL'd value is never installed — dropping the lease
/// leaves the slot pending, and every read keeps consulting the
/// (expiry-checking) backing.
fn fill_front(hot: &HotKeyEngine, ticket: &FillTicket, found: Option<(&[u8], bool)>) {
    match found {
        Some((_, true)) => {}
        Some((value, false)) => hot.fill(ticket, Some(value)),
        None => hot.fill(ticket, None),
    }
}

/// Variable-length byte values over a [`ShardedMap`] of any backing: the
/// map stores arena handles, per-shard arenas store payloads, and every
/// read copies out under an epoch guard. With a [`CacheConfig`], the map
/// is a **bounded cache**: byte budgets enforced by CLOCK eviction on the
/// SET path, TTLs expired lazily on read plus an incremental sweep (see
/// the module docs).
///
/// `get`/`multi_get`/`scan` have **copy-out** semantics (the caller's
/// buffer is cleared and refilled), `set` **overwrites** (unlike the raw
/// structures' insert-if-absent — the displaced blob is retired), and
/// range scans are available when the backing is ordered.
pub struct BlobMap<M> {
    map: ShardedMap<M>,
    arenas: Box<[ValueArena]>,
    /// The blob map's *own* hot-key engine: it caches **payload bytes**
    /// (never arena handles — a cached handle could outlive a retire and
    /// dangle), so the inner index stays engine-less and the front cache
    /// sits above the epoch machinery entirely.
    hot: Option<Box<HotKeyEngine>>,
    /// TTL stamped on plain `set` calls (`None` = values don't expire).
    default_ttl_ms: Option<u64>,
}

impl<M: ReplaceMap> BlobMap<M> {
    /// Builds a blob map over `shards` instances of the backing; `make(i)`
    /// constructs the `i`-th shard. No hot-key engine, inert cache tier.
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn new(shards: usize, make: impl FnMut(usize) -> M) -> Self {
        Self::with_config(shards, HotKeyConfig::with_k(0), CacheConfig::unbounded(), make)
    }

    /// Like [`new`](Self::new), attaching a hot-key engine (see
    /// [`crate::hotkey`]): hot values up to
    /// [`crate::hotkey::FRONT_VALUE_CAP`] bytes are served from seqlock'd
    /// copies without touching the epoch guard, index, or arena, and hot
    /// writes apply write-through under the key's front-slot lock.
    /// `cfg.k == 0` yields a plain map.
    pub fn with_hotkeys(shards: usize, cfg: HotKeyConfig, make: impl FnMut(usize) -> M) -> Self {
        Self::with_config(shards, cfg, CacheConfig::unbounded(), make)
    }

    /// The full constructor: hot-key engine plus cache-tier policy. The
    /// byte budget is split evenly over shards (each shard enforces its
    /// share, so the store-wide `live_bytes` can never exceed the total);
    /// the default TTL stamps every plain `set`.
    pub fn with_config(
        shards: usize,
        hot: HotKeyConfig,
        cache: CacheConfig,
        make: impl FnMut(usize) -> M,
    ) -> Self {
        let per_shard = cache.budget_bytes.map(|b| (b / shards as u64).max(1));
        BlobMap {
            map: ShardedMap::new(shards, make),
            arenas: (0..shards).map(|_| ValueArena::new(per_shard, cache.clock.clone())).collect(),
            hot: HotKeyEngine::new(shards, hot),
            default_ttl_ms: cache.default_ttl_ms,
        }
    }

    /// The attached hot-key engine, if any.
    pub fn hotkey_engine(&self) -> Option<&HotKeyEngine> {
        self.hot.as_deref()
    }

    /// Hot-key engine counters, when an engine is attached.
    pub fn hotkey_stats(&self) -> Option<HotKeyStatsSnapshot> {
        self.hot.as_deref().map(HotKeyEngine::stats)
    }

    /// Current top-k hot keys (empty without an engine).
    pub fn hot_keys(&self) -> Vec<(u64, u64)> {
        self.hot.as_deref().map(HotKeyEngine::hot_keys).unwrap_or_default()
    }

    /// Cache-tier counters summed over shards (budget and live gauges are
    /// per-shard sums). Always available — an inert config reports a zero
    /// budget and zero policy counters but a live `live_bytes` gauge.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        let mut total = CacheStatsSnapshot::default();
        for a in self.arenas.iter() {
            total.merge(&a.cache_stats());
        }
        total
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shard_count()
    }

    /// The shard (and arena) index `key` routes to — the same routing the
    /// data path uses, exposed so observability layers can attribute an
    /// operation to a contended shard.
    pub fn shard_of(&self, key: u64) -> usize {
        self.map.shard_of(key)
    }

    #[inline]
    fn arena_of(&self, key: u64) -> &ValueArena {
        &self.arenas[self.map.shard_of(key)]
    }

    /// Keys currently present — including expired values whose corpses a
    /// read or sweep has not reclaimed yet (same consistency caveat as
    /// [`ConcurrentMap::size`]).
    pub fn len(&self) -> usize {
        self.map.size()
    }

    /// `true` if no keys are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Copies the value of `key` into `out` (cleared first); `true` if the
    /// key was present and alive. With a hot-key engine attached, fronted
    /// keys are answered from the engine's value copy (never older than
    /// the last completed write — see [`crate::hotkey`]) without touching
    /// the epoch guard, the index, or the arena; values carrying a TTL are
    /// never front-cached, so a front hit cannot outlive its deadline.
    pub fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
        out.clear();
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            match hot.read(key, out) {
                // Front-served reads skip the shard-stats RMWs (that's
                // the point of the front path); `total_stats` folds the
                // engine's own hit/absent counters back in.
                FrontRead::Hit => return true,
                FrontRead::Absent => return false,
                FrontRead::Pending(ticket) => {
                    let found = self.get_backing(key, out);
                    fill_front(hot, &ticket, found.map(|ttl| (out.as_slice(), ttl)));
                    return found.is_some();
                }
                FrontRead::Miss => {}
            }
        }
        self.get_backing(key, out).is_some()
    }

    /// The engine-less read: [`lookup`](Self::lookup) and the arena copy
    /// into `out` (empty on entry). `Some(carries_ttl)` on a live hit.
    fn get_backing(&self, key: u64, out: &mut Vec<u8>) -> Option<bool> {
        self.lookup(key, |arena, handle| {
            // SAFETY: `lookup` runs this under the guard that protected
            // the fetch.
            unsafe { arena.read_into_marked(handle, out) };
            has_ttl(handle)
        })
    }

    /// The one guarded lookup of every single-key read and expiry verb:
    /// takes the epoch guard, searches the index, and hands a live handle
    /// to `live`, which runs under that guard and may dereference it. An
    /// expired handle answers `None` like a missing key and is reclaimed
    /// once the guard has dropped.
    #[inline]
    fn lookup<R>(&self, key: u64, live: impl FnOnce(&ValueArena, u64) -> R) -> Option<R> {
        let arena = self.arena_of(key);
        let dead = {
            // Guard before the handle fetch: a concurrent DEL/overwrite
            // retires the blob, and this guard is what keeps it readable
            // until `live` is done with it.
            let _guard = ssmem::protect();
            let handle = self.map.search(key)?;
            // SAFETY: guard created before the fetch (above).
            if !unsafe { arena.is_expired(handle) } {
                return Some(live(arena, handle));
            }
            handle
        };
        self.reclaim(key, dead, Reclaim::Lazy);
        None
    }

    /// Like [`get`](Self::get), returning a fresh vector.
    pub fn get_owned(&self, key: u64) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.get(key, &mut out).then_some(out)
    }

    /// `true` if the key is present and alive. Like a read, it reclaims an
    /// expired value it finds.
    pub fn contains(&self, key: u64) -> bool {
        self.lookup(key, |_, _| ()).is_some()
    }

    /// Stores `value` under `key`, overwriting any previous value (the
    /// displaced blob is retired) and stamping the config's default TTL,
    /// if any. Returns `true` if the key was newly created (an expired
    /// corpse counts as absent), `false` if a live value was replaced.
    /// Writes to a fronted key publish under the key's front-slot lock and
    /// refresh the front-cache copy before it releases
    /// ([`HotKeyEngine::write_through`]); TTL-stamped writes take the plain
    /// path and poison instead (TTL'd values are never front-cached).
    pub fn set(&self, key: u64, value: &[u8]) -> bool {
        self.set_with_ttl(key, value, self.default_ttl_ms)
    }

    /// [`set`](Self::set) with an explicit TTL (milliseconds; `0` = no
    /// expiry, overriding any config default).
    pub fn set_ex(&self, key: u64, value: &[u8], ttl_ms: u64) -> bool {
        self.set_with_ttl(key, value, (ttl_ms != 0).then_some(ttl_ms))
    }

    fn set_with_ttl(&self, key: u64, value: &[u8], ttl_ms: Option<u64>) -> bool {
        let shard = self.map.shard_of(key);
        let arena = &self.arenas[shard];
        self.maybe_sweep(shard);
        self.reserve(shard, value.len() as u64);
        let expire_at = match ttl_ms {
            // `.max(1)`: 0 is the no-deadline sentinel; a 0 ms TTL on a
            // clock still at 0 must still produce a real deadline.
            Some(t) => arena.now_ms().saturating_add(t).max(1),
            None => 0,
        };
        // Store the blob before any front-slot lock is taken (arena stores
        // are uncontended); only the index publish runs under it.
        let handle = arena.store(key, value, expire_at);
        self.write(key, Some(value), expire_at, || self.publish(key, handle))
    }

    /// Makes `handle` the value of `key`: swaps it over a present handle in
    /// place (retiring the displaced blob), else inserts it; loops while a
    /// concurrent `del`/`set` of the key wins between the two. `true` if
    /// the key was created — overwriting an expired corpse is a create, not
    /// a replace.
    fn publish(&self, key: u64, handle: u64) -> bool {
        loop {
            if let Some(old) = self.map.replace(key, handle) {
                // SAFETY: `replace` returned `old` to this thread alone, so
                // it is unlinked, readable, and retired exactly once.
                return !unsafe { self.arena_of(key).retire_was_live(old) };
            }
            if self.map.insert(key, handle) {
                return true;
            }
        }
    }

    /// Removes `key`; `true` if a live value was present (the blob is
    /// retired either way — removing an expired corpse reports `false`).
    /// Same fronted-key handling as [`set`](Self::set).
    pub fn del(&self, key: u64) -> bool {
        self.write(key, None, 0, || self.del_backing(key))
    }

    fn del_backing(&self, key: u64) -> bool {
        let Some(handle) = self.map.remove(key) else {
            return false;
        };
        let arena = self.arena_of(key);
        // SAFETY: unlinked by the remove, returned only to us.
        let live = unsafe { arena.retire_was_live(handle) };
        if !live {
            arena.cache.expired_lazy.fetch_add(1, Ordering::Relaxed);
        }
        live
    }

    /// The one write routing of [`set`](Self::set) and [`del`](Self::del):
    /// `apply` performs the write on the index, `value` is what it writes
    /// (`None`: a delete) and `expire_at` its deadline (0 = none). A write
    /// of a fronted key without a deadline applies under the key's
    /// front-slot lock and refreshes its copy
    /// ([`HotKeyEngine::write_through`]); any other write applies, then
    /// poisons the key — it may have been promoted meanwhile, and TTL'd
    /// values are never front-cached — so no reader sees a front copy older
    /// than this write.
    fn write(
        &self,
        key: u64,
        value: Option<&[u8]>,
        expire_at: u64,
        apply: impl FnOnce() -> bool,
    ) -> bool {
        let Some(hot) = &self.hot else {
            return apply();
        };
        hot.record_access(key);
        if expire_at == 0 && hot.fronted(key) {
            return hot.write_through(key, value, apply);
        }
        let applied = apply();
        hot.poison(key);
        applied
    }

    /// Drops `key`'s front-cache copy, if an engine is attached. Called
    /// *before* a handle is retired, so a front copy never outlives the
    /// value it mirrors.
    fn poison(&self, key: u64) {
        if let Some(hot) = &self.hot {
            hot.poison(key);
        }
    }

    // -- expiry verbs ------------------------------------------------------

    /// Sets the expiry deadline of a live key to `ttl_ms` from now;
    /// `true` if the key was present and alive. A `ttl_ms` of 0 expires
    /// the value immediately (the next read or sweep reclaims it).
    /// Racing a concurrent overwrite of the same key resolves in an
    /// arbitrary order (module docs).
    pub fn expire(&self, key: u64, ttl_ms: u64) -> bool {
        let deadline = self.arena_of(key).now_ms().saturating_add(ttl_ms).max(1);
        let retag = self.lookup(key, |arena, h| {
            if !has_ttl(h) {
                return Some(h);
            }
            // SAFETY: under `lookup`'s guard; the expiry word is atomic.
            unsafe { arena.set_expire(h, deadline) };
            None
        });
        match retag {
            None => false,
            Some(None) => true,
            Some(Some(h)) => self.retag_with_ttl(key, h, deadline),
        }
    }

    /// Republishes a deadline-free value with the TTL flag set (readers
    /// only consult the expiry word when the handle carries the flag): the
    /// unlinked blob gets its deadline, its ledger entry the new handle,
    /// and any front copy from its deadline-free life is poisoned before it
    /// goes back. An overwrite that raced in goes back untouched. Between
    /// the remove and [`republish`](Self::republish) a reader of the key
    /// misses (the first of the two windows in the module docs).
    fn retag_with_ttl(&self, key: u64, h: u64, deadline: u64) -> bool {
        let Some(mut back) = self.map.remove(key) else {
            return false;
        };
        if back == h {
            let arena = self.arena_of(key);
            back = h | TAG_TTL;
            // SAFETY: unlinked by our remove and returned only to us, so
            // stored and not retired.
            unsafe {
                arena.set_expire(h, deadline);
                arena.retag(h, back);
            }
            self.poison(key);
        }
        self.republish(key, back);
        true
    }

    /// Clears the expiry deadline of a live key; `true` if the key was
    /// present and alive (with or without a deadline to clear).
    pub fn persist(&self, key: u64) -> bool {
        self.lookup(key, |arena, h| {
            // The TTL flag stays in the handle (republishing is an
            // overwrite-shaped disruption); a zero expiry word reads as
            // "no deadline".
            if has_ttl(h) {
                // SAFETY: under `lookup`'s guard; the expiry word is atomic.
                unsafe { arena.set_expire(h, 0) };
            }
        })
        .is_some()
    }

    /// Remaining lifetime of `key`: `None` = missing (or expired),
    /// `Some(None)` = present with no deadline, `Some(Some(ms))` =
    /// milliseconds until expiry.
    pub fn ttl_ms(&self, key: u64) -> Option<Option<u64>> {
        self.lookup(key, |arena, h| {
            // SAFETY: under `lookup`'s guard.
            let exp = if has_ttl(h) { unsafe { arena.expire_of(h) } } else { 0 };
            // A PERSISTed value keeps the flag and a zero deadline. The
            // value was alive when `lookup` read the clock, so at least
            // 1 ms was left then.
            (exp != 0).then(|| exp.saturating_sub(arena.now_ms()).max(1))
        })
    }

    // -- cache-tier internals ----------------------------------------------

    /// Reserves `len` payload bytes on `shard`, evicting via CLOCK until
    /// the reservation fits the shard's budget. Never blocks on readers;
    /// forces the admission (counted) after [`EVICT_FORCE_ATTEMPTS`]
    /// consecutive fruitless evictions so a value larger than the budget
    /// cannot wedge the write path.
    fn reserve(&self, shard: usize, len: u64) {
        let arena = &self.arenas[shard];
        let mut fruitless = 0u32;
        while !arena.try_reserve(len) {
            let victim = arena.clock_victim();
            if victim.is_some_and(|(key, h)| self.reclaim(key, h, Reclaim::Evicted)) {
                fruitless = 0;
                continue;
            }
            fruitless += 1;
            if fruitless >= EVICT_FORCE_ATTEMPTS {
                arena.add_live(len);
                arena.cache.forced.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// The piggybacked TTL sweep: every [`SWEEP_EVERY`]th `set` on a shard
    /// walks [`SWEEP_BATCH`] ledger entries from the sweep cursor and
    /// reclaims the expired ones. Free when no value carries a deadline.
    fn maybe_sweep(&self, shard: usize) {
        let arena = &self.arenas[shard];
        if arena.cache.ttl_live.load(Ordering::Relaxed) == 0 {
            return;
        }
        if arena.cache.sweep_tick.fetch_add(1, Ordering::Relaxed) % SWEEP_EVERY != 0 {
            return;
        }
        let mut expired: Vec<(u64, u64)> = Vec::with_capacity(SWEEP_BATCH);
        arena.collect_expired(SWEEP_BATCH, &mut expired);
        for (key, handle) in expired {
            self.reclaim(key, handle, Reclaim::Swept);
        }
    }

    /// Unlinks and retires the binding `key → handle` — an expired value or
    /// a CLOCK victim, as `why` says — tolerating every race: only that
    /// exact binding is reclaimed (and counted under `why`), and a fresher
    /// value that raced in goes back through [`republish`](Self::republish).
    /// Nothing here dereferences the stale `handle`; the only blobs touched
    /// are the ones `remove` handed this thread. `true` if a blob was
    /// retired.
    fn reclaim(&self, key: u64, handle: u64, why: Reclaim) -> bool {
        let arena = self.arena_of(key);
        let counted = match self.map.remove(key) {
            Some(got) if got == handle => {
                // Poison before retire: a fronted copy must die before the
                // backing value does (never-stale guarantee).
                self.poison(key);
                // SAFETY: unlinked by our remove, returned only to us.
                unsafe { arena.retire(got) };
                true
            }
            // The binding went stale (an overwrite raced us — the
            // generation tag makes a recycled pointer unmistakable): put
            // the fresh value back. If an even fresher write took the key
            // meanwhile, `republish` retired the value that lost to it —
            // still an eviction, but not an expiry.
            Some(other) => {
                if self.republish(key, other) {
                    return false;
                }
                why == Reclaim::Evicted
            }
            None => return false,
        };
        if counted {
            let counter = match why {
                Reclaim::Lazy => &arena.cache.expired_lazy,
                Reclaim::Swept => &arena.cache.expired_swept,
                Reclaim::Evicted => &arena.cache.evictions,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Puts `handle`, which this thread holds unlinked from `key`, back
    /// into the index — or, when a fresher write took the key meanwhile,
    /// poisons the key and retires `handle`. `true` if it went back. With
    /// `publish`, the only place a handle is inserted into the index.
    fn republish(&self, key: u64, handle: u64) -> bool {
        if self.map.insert(key, handle) {
            return true;
        }
        self.poison(key);
        // SAFETY: unlinked by the caller's remove and not republished, so
        // owned by this thread.
        unsafe { self.arena_of(key).retire(handle) };
        false
    }

    // -- batched ops -------------------------------------------------------

    /// Batched lookup with copy-out: refills `out` with per-key answers in
    /// input order. With a hot-key engine attached, fronted keys are
    /// answered from their front-cache copies and only the remainder takes
    /// the batched backing path (one epoch guard).
    pub fn multi_get_into(&self, keys: &[u64], out: &mut BatchValues) {
        out.clear();
        let Some(hot) = self.hot.as_deref() else {
            out.spans.reserve(keys.len());
            let spans = &mut out.spans;
            self.resolve_batch(keys, &mut out.bytes, |_, found| {
                spans.push(found.map(|(span, ..)| span));
            });
            return;
        };
        REST_SCRATCH.with(|scratch| {
            // The keys the front cache could not answer take the batched
            // backing path.
            let rest = &mut *scratch.borrow_mut();
            rest.keys.clear();
            rest.slots.clear();
            for (i, &key) in keys.iter().enumerate() {
                hot.record_access(key);
                let start = out.bytes.len();
                // As in `get`: front-served keys skip the shard-stats RMWs;
                // `total_stats` folds the engine counters back in.
                let ticket = match hot.read(key, &mut out.bytes) {
                    FrontRead::Hit => {
                        out.spans.push(Some((start, out.bytes.len())));
                        continue;
                    }
                    FrontRead::Absent => {
                        out.spans.push(None);
                        continue;
                    }
                    FrontRead::Pending(ticket) => Some(ticket),
                    FrontRead::Miss => None,
                };
                out.spans.push(None);
                rest.keys.push(key);
                rest.slots.push((i, ticket));
            }
            if rest.keys.is_empty() {
                return;
            }
            let (slots, spans) = (&rest.slots, &mut out.spans);
            self.resolve_batch(&rest.keys, &mut out.bytes, |j, found| {
                let (pos, ticket) = &slots[j];
                if let Some(ticket) = ticket {
                    fill_front(hot, ticket, found.map(|(_, value, ttl)| (value, ttl)));
                }
                spans[*pos] = found.map(|(span, ..)| span);
            });
        });
    }

    /// Resolves `keys` against the index under one epoch guard, appending
    /// every live value to `bytes`: `each(i, found)` gets, in input order,
    /// the value's span in `bytes`, the value, and whether it carries a
    /// TTL — or `None` for a missing or expired key. Expired corpses are
    /// reclaimed once the guard is dropped.
    ///
    /// Before the first copy, every found blob's header line and then its
    /// last payload line are prefetched (the second address needs the
    /// length from the first), so the batch's blob misses overlap as its
    /// index searches did.
    fn resolve_batch(
        &self,
        keys: &[u64],
        bytes: &mut Vec<u8>,
        mut each: impl FnMut(usize, Option<(Span, &[u8], bool)>),
    ) {
        let mut dead: Vec<(u64, u64)> = Vec::new();
        HANDLE_SCRATCH.with(|scratch| {
            let mut handles = scratch.borrow_mut();
            let _guard = ssmem::protect();
            self.map.multi_get_into(keys, &mut handles);
            for &handle in handles.iter().flatten() {
                prefetch(blob_addr(handle));
            }
            for &handle in handles.iter().flatten() {
                // SAFETY: guard created before the batched fetch.
                unsafe { prefetch_payload_end(handle) };
            }
            for (i, (&key, &handle)) in keys.iter().zip(handles.iter()).enumerate() {
                let arena = self.arena_of(key);
                let Some(h) = handle else {
                    each(i, None);
                    continue;
                };
                // SAFETY: guard created before the batched fetch.
                if unsafe { arena.is_expired(h) } {
                    dead.push((key, h));
                    each(i, None);
                    continue;
                }
                let start = bytes.len();
                // SAFETY: guard created before the batched fetch.
                unsafe { arena.read_into_marked(h, bytes) };
                each(i, Some(((start, bytes.len()), &bytes[start..], has_ttl(h))));
            }
        });
        // Guard dropped (the closure ended): reclaim the corpses.
        for (key, h) in dead {
            self.reclaim(key, h, Reclaim::Lazy);
        }
    }

    /// Allocating wrapper over [`multi_get_into`](Self::multi_get_into).
    pub fn multi_get(&self, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
        let mut out = BatchValues::default();
        self.multi_get_into(keys, &mut out);
        out.to_vec()
    }

    /// Batched overwrite in input order; `result[i]` tells whether
    /// `entries[i]` created its key. Per-key semantics are exactly a loop
    /// of [`set`](Self::set) calls (a duplicate key within one batch: later
    /// occurrences overwrite earlier ones).
    pub fn multi_set<B: AsRef<[u8]>>(&self, entries: &[(u64, B)]) -> Vec<bool> {
        entries.iter().map(|(k, v)| self.set(*k, v.as_ref())).collect()
    }

    /// Live blobs and payload bytes summed over all shards.
    pub fn total_arena_stats(&self) -> ArenaStatsSnapshot {
        let mut total = ArenaStatsSnapshot::default();
        for a in self.arenas.iter() {
            let s = a.stats();
            total.blobs += s.blobs;
            total.bytes += s.bytes;
        }
        total
    }

    /// Traffic counters of the underlying sharded index, plus the reads
    /// the hot-key front cache answered without touching a shard (folded
    /// into `searches`/`hits` here so a fronted GET still counts as a
    /// search; the per-shard snapshots deliberately exclude them).
    pub fn total_stats(&self) -> crate::stats::ShardStatsSnapshot {
        let mut total = self.map.total_stats();
        if let Some(h) = self.hotkey_stats() {
            total.searches = total.searches.saturating_add(h.front_hits + h.front_absent);
            total.hits = total.hits.saturating_add(h.front_hits);
        }
        total
    }
}

impl<M: OrderedMap + ReplaceMap> BlobMap<M> {
    /// Up to `n` `(key, value)` pairs with key `>= from` in ascending key
    /// order, values copied out. Inherits the non-snapshot scan semantics
    /// of [`OrderedMap`] (each pair was present at some point during the
    /// scan; payloads are never torn). Expired values are filtered out
    /// (and reclaimed — the scan doubles as a sweep pass), so a page may
    /// come back shorter than `n` even mid-keyspace; callers already
    /// resume from the last returned key + 1.
    pub fn scan(&self, from: u64, n: usize) -> Vec<(u64, Vec<u8>)> {
        self.scan_bounded(from, n, usize::MAX)
    }

    /// Like [`scan`](Self::scan), additionally stopping once the copied
    /// payload bytes reach `max_bytes` (a *soft* cap: the value that
    /// crosses the budget is still included, so a scan over huge values
    /// always makes progress). Serving tiers use this to bound per-reply
    /// memory; callers page by resuming from the last returned key + 1.
    pub fn scan_bounded(
        &self,
        from: u64,
        n: usize,
        max_bytes: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut dead: Vec<(u64, u64)> = Vec::new();
        let mut out;
        {
            // One guard across handle gather and payload copy-out.
            let _guard = ssmem::protect();
            let pairs = self.map.scan(from, n);
            out = Vec::with_capacity(pairs.len());
            let mut copied = 0usize;
            for (key, handle) in pairs {
                let arena = self.arena_of(key);
                // SAFETY: guard created before the scan fetched the handle.
                if unsafe { arena.is_expired(handle) } {
                    dead.push((key, handle));
                    continue;
                }
                let mut value = Vec::new();
                // SAFETY: guard created before the scan fetched the handle.
                unsafe { arena.read_into(handle, &mut value) };
                copied = copied.saturating_add(value.len());
                out.push((key, value));
                if copied >= max_bytes {
                    break;
                }
            }
        }
        // Guard dropped: the scan doubles as a sweep pass.
        for (key, h) in dead {
            self.reclaim(key, h, Reclaim::Swept);
        }
        out
    }
}

impl<M: ReplaceMap> std::fmt::Debug for BlobMap<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobMap")
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .field("payload", &self.total_arena_stats())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{FakeClock, WallClock};
    use ascylib::hashtable::ClhtLb;
    use ascylib::skiplist::FraserOptSkipList;

    fn blob_map() -> BlobMap<FraserOptSkipList> {
        BlobMap::new(4, |_| FraserOptSkipList::new())
    }

    /// Stores into a bare arena the way `BlobMap::set` does: reserve, then
    /// store.
    fn reserve_and_store(arena: &ValueArena, key: u64, value: &[u8], expire_at_ms: u64) -> u64 {
        assert!(arena.try_reserve(value.len() as u64));
        arena.store(key, value, expire_at_ms)
    }

    /// A single-shard map on a hand-cranked clock (TTL-focused tests).
    fn clocked_map(cfg: CacheConfig) -> (BlobMap<FraserOptSkipList>, Arc<FakeClock>) {
        let clock = Arc::new(FakeClock::new());
        let cfg = cfg.with_clock(clock.clone());
        let map =
            BlobMap::with_config(1, HotKeyConfig::default(), cfg, |_| FraserOptSkipList::new());
        (map, clock)
    }

    #[test]
    fn blob_layout_rounds_small_blobs_to_16_and_large_ones_to_64() {
        let table = [(0, 32), (8, 32), (9, 48), (64, 96), (232, 256), (233, 320), (256, 320)];
        for (len, size) in table {
            assert_eq!(blob_layout(len).size(), size, "payload of {len} bytes");
        }
        let mut classes = std::collections::BTreeSet::new();
        let mut previous = 0;
        for len in 0..=4096 {
            let layout = blob_layout(len);
            assert_eq!(layout.align(), ALIGN);
            assert!(layout.size() >= HEADER + len, "a {len}-byte payload does not fit");
            assert!(layout.size() < HEADER + len + SIZE_CLASS, "payload {len} over-rounded");
            assert!(layout.size() >= previous, "not monotone at {len}");
            previous = layout.size();
            classes.insert(layout.size());
        }
        // 15 fine classes up to 256 bytes, then one per 64: bounded.
        assert_eq!(classes.len(), 15 + (4160 - 256) / 64);
    }

    #[test]
    fn set_get_del_roundtrip_with_binary_payloads() {
        let map = blob_map();
        let payload = [0u8, 1, 2, b'\n', b'\r', 0, 255, 42];
        assert!(map.set(7, &payload));
        assert_eq!(map.len(), 1);
        let mut out = vec![9u8; 3]; // stale contents must be cleared
        assert!(map.get(7, &mut out));
        assert_eq!(out, payload);
        assert_eq!(map.get_owned(7), Some(payload.to_vec()));
        assert!(!map.get(8, &mut out));
        assert!(out.is_empty());
        assert!(map.del(7));
        assert!(!map.del(7));
        assert!(map.is_empty());
    }

    #[test]
    fn empty_and_large_values_roundtrip() {
        let map = blob_map();
        assert!(map.set(1, b""));
        assert_eq!(map.get_owned(1), Some(Vec::new()));
        let big = vec![0xA5u8; 64 * 1024];
        assert!(map.set(2, &big));
        assert_eq!(map.get_owned(2).unwrap(), big);
        let stats = map.total_arena_stats();
        assert_eq!(stats.live_blobs(), 2);
        assert_eq!(stats.live_bytes(), big.len() as u64);
        // The reservation gauge agrees with the arena accounting.
        assert_eq!(map.cache_stats().live_bytes, big.len() as u64);
    }

    #[test]
    fn overwrite_replaces_and_retires_the_old_blob() {
        let map = blob_map();
        assert!(map.set(5, b"first"), "fresh key creates");
        assert!(!map.set(5, b"second, longer value"), "overwrite reports replacement");
        assert_eq!(map.get_owned(5).unwrap(), b"second, longer value");
        assert_eq!(map.len(), 1);
        let stats = map.total_arena_stats();
        assert_eq!(stats.live_blobs(), 1, "the overwrite retired the first blob");
        assert_eq!(stats.live_bytes(), b"second, longer value".len() as u64);
    }

    #[test]
    fn multi_ops_follow_input_order() {
        let map = blob_map();
        let outcomes = map.multi_set(&[
            (1, b"one".as_slice()),
            (2, b"two"),
            (1, b"uno"),
        ]);
        assert_eq!(outcomes, vec![true, true, false], "later duplicate overwrites");
        assert_eq!(
            map.multi_get(&[1, 3, 2, 1]),
            vec![
                Some(b"uno".to_vec()),
                None,
                Some(b"two".to_vec()),
                Some(b"uno".to_vec())
            ]
        );
        let mut out = BatchValues::default();
        map.multi_get_into(&[2], &mut out);
        assert_eq!(out.to_vec(), vec![Some(b"two".to_vec())]);
    }

    #[test]
    fn multi_get_into_recycles_value_buffers_across_batches() {
        let map = blob_map();
        map.set(1, &[0xAA; 300]);
        map.set(2, &[0xBB; 50]);
        let mut out = BatchValues::default();
        map.multi_get_into(&[1, 2, 3], &mut out);
        assert_eq!(out.to_vec(), vec![Some(vec![0xAA; 300]), Some(vec![0xBB; 50]), None]);
        let first_ptr = out.bytes.as_ptr();
        // The next batch (same result buffer) copies its values into the
        // payload buffer the first batch grew.
        map.multi_get_into(&[2, 1], &mut out);
        assert_eq!(out.to_vec(), vec![Some(vec![0xBB; 50]), Some(vec![0xAA; 300])]);
        assert_eq!(out.len(), 2);
        assert!(
            std::ptr::eq(out.bytes.as_ptr(), first_ptr),
            "warmed value capacity must be recycled, not reallocated"
        );
    }

    #[test]
    fn batch_values_shed_oversized_capacity() {
        let map = blob_map();
        map.set(1, &vec![7u8; 4 * BATCH_KEEP_BYTES]);
        map.set(2, b"small");
        let mut out = BatchValues::default();
        map.multi_get_into(&[1, 2], &mut out);
        assert_eq!(out.iter().map(|v| v.map(<[u8]>::len)).collect::<Vec<_>>(), [
            Some(4 * BATCH_KEEP_BYTES),
            Some(5)
        ]);
        // The next batch holds only what it needs, not the big value's
        // buffer.
        map.multi_get_into(&[2], &mut out);
        assert_eq!(out.to_vec(), vec![Some(b"small".to_vec())]);
        assert!(
            out.bytes.capacity() <= BATCH_KEEP_BYTES,
            "batch kept {} bytes of capacity",
            out.bytes.capacity()
        );
    }

    #[test]
    fn scan_returns_key_ordered_payloads_across_shards() {
        let map = blob_map();
        for k in (2..=40u64).step_by(2) {
            map.set(k, format!("v{k}").as_bytes());
        }
        let got = map.scan(7, 4);
        assert_eq!(
            got,
            vec![
                (8, b"v8".to_vec()),
                (10, b"v10".to_vec()),
                (12, b"v12".to_vec()),
                (14, b"v14".to_vec())
            ]
        );
        assert!(map.scan(41, 8).is_empty());
    }

    #[test]
    fn scan_bounded_stops_at_the_payload_budget_but_always_progresses() {
        let map = blob_map();
        for k in 1..=10u64 {
            map.set(k, &[k as u8; 100]);
        }
        // Budget of 250 bytes: pairs of 100 bytes each — the third value
        // crosses the budget and is included (soft cap), then the scan
        // stops.
        let got = map.scan_bounded(1, 10, 250);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (1, vec![1u8; 100]));
        assert_eq!(got[2].0, 3);
        // A budget smaller than one value still returns that value.
        assert_eq!(map.scan_bounded(5, 10, 1).len(), 1);
        // Paging from the last key + 1 completes the sweep.
        let rest = map.scan_bounded(4, 10, usize::MAX);
        assert_eq!(rest.len(), 7);
        // No budget behaves like plain scan.
        assert_eq!(map.scan_bounded(1, 10, usize::MAX), map.scan(1, 10));
    }

    #[test]
    fn drop_frees_live_blobs_through_the_ledger() {
        // The hash backing cannot enumerate keys; the ledger must still
        // account (and free) every live blob. Observable here as exact
        // ledger bookkeeping; leaks would show up under ASan/valgrind runs.
        let map = BlobMap::new(3, |_| ClhtLb::with_capacity(64));
        for k in 1..=50u64 {
            map.set(k, &vec![k as u8; (k % 17) as usize]);
        }
        for k in 1..=20u64 {
            map.del(k);
        }
        for k in 10..=15u64 {
            map.set(k + 100, b"replacement");
        }
        let stats = map.total_arena_stats();
        assert_eq!(stats.live_blobs(), 36);
        let ledger_total: usize = map
            .arenas
            .iter()
            .map(|a| {
                let ledger = a.ledger.lock().unwrap();
                for (pos, &(_, handle)) in ledger.entries.iter().enumerate() {
                    // SAFETY: in-ledger blobs are allocated.
                    assert_eq!(unsafe { ledger.position(handle) }, pos);
                }
                ledger.entries.len()
            })
            .sum();
        assert_eq!(ledger_total as u64, stats.live_blobs());
        drop(map); // frees the 36 live blobs via the ledger
    }

    #[test]
    fn ledger_positions_survive_retires_in_any_order() {
        // Every retire is a `swap_remove` that moves the last entry into the
        // hole and must rewrite that blob's position word.
        const BLOBS: u64 = 97;
        let arena = ValueArena::new(Some(1 << 20), Arc::new(WallClock));
        let mut handles: Vec<(u64, u64)> = (1..=BLOBS)
            .map(|k| (k, reserve_and_store(&arena, k, &k.to_le_bytes(), 0)))
            .collect();
        // A fixed shuffle (multiplicative hash order), then retire two of
        // every three.
        handles.sort_by_key(|&(k, _)| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let survivors = handles.split_off(2 * handles.len() / 3);
        for (_, handle) in handles {
            // SAFETY: stored above, never published, retired once.
            unsafe { arena.retire(handle) };
        }
        // CLOCK must still reach every survivor: reference bits start clear,
        // so each call returns the entry under the hand and advances it.
        let mut visited: Vec<(u64, u64)> =
            (0..survivors.len()).map(|_| arena.clock_victim().expect("non-empty")).collect();
        visited.sort_unstable();
        let mut expected = survivors.clone();
        expected.sort_unstable();
        assert_eq!(visited, expected);
        // And a retag finds its entry through the moved position words.
        let (key, handle) = survivors[0];
        // SAFETY: a survivor: stored here, not retired.
        unsafe { arena.retag(handle, handle | TAG_TTL) };
        let ledger = arena.ledger.lock().unwrap();
        assert!(ledger.entries.contains(&(key, handle | TAG_TTL)));
        assert_eq!(ledger.entries.len(), survivors.len());
    }

    #[test]
    fn works_over_hash_backings_too() {
        let map = BlobMap::new(2, |_| ClhtLb::with_capacity(128));
        for k in 1..=100u64 {
            assert!(map.set(k, &k.to_le_bytes()));
        }
        for k in 1..=100u64 {
            assert_eq!(map.get_owned(k).unwrap(), k.to_le_bytes());
        }
        assert_eq!(map.len(), 100);
    }

    // -- cache tier --------------------------------------------------------

    #[test]
    fn handles_carry_tags_and_reads_mask_them() {
        let arena = ValueArena::new(None, Arc::new(WallClock));
        let h1 = reserve_and_store(&arena, 1, b"alpha", 0);
        let h2 = reserve_and_store(&arena, 2, b"beta", 1234);
        assert!(!has_ttl(h1));
        assert!(has_ttl(h2));
        assert_ne!(h1 & TAG_GEN_MASK, h2 & TAG_GEN_MASK, "generations differ");
        assert_eq!(arena.stats().live_bytes(), 9);
        let mut out = Vec::new();
        // SAFETY: both handles are live and owned by this test.
        unsafe {
            arena.read_into(h1, &mut out);
            assert_eq!(out, b"alpha");
            out.clear();
            arena.read_into(h2, &mut out);
            assert_eq!(out, b"beta");
            assert_eq!(arena.expire_of(h2), 1234);
            arena.retire(h1);
            arena.retire(h2);
        }
        assert_eq!(arena.stats().live_blobs(), 0);
    }

    #[test]
    fn ttl_expires_at_the_exact_boundary() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        assert!(map.set_ex(1, b"short-lived", 100));
        assert!(map.get_owned(1).is_some());
        assert_eq!(map.ttl_ms(1), Some(Some(100)));
        clock.advance(99);
        assert!(map.get_owned(1).is_some(), "alive strictly before the deadline");
        assert_eq!(map.ttl_ms(1), Some(Some(1)));
        clock.advance(1);
        assert!(map.get_owned(1).is_none(), "dead exactly at the deadline");
        assert!(!map.contains(1));
        assert_eq!(map.ttl_ms(1), None);
        // The lazy read reclaimed the corpse: index entry and bytes gone.
        assert_eq!(map.len(), 0);
        assert_eq!(map.total_arena_stats().live_blobs(), 0);
        assert!(map.cache_stats().expired_lazy >= 1);
    }

    #[test]
    fn overwrite_resets_ttl_and_del_of_a_corpse_reports_absent() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        map.set_ex(1, b"v1", 100);
        clock.advance(50);
        assert!(!map.set_ex(1, b"v2", 100), "live overwrite replaces");
        clock.advance(99);
        assert_eq!(map.get_owned(1).unwrap(), b"v2", "overwrite restarted the clock");
        clock.advance(1);
        assert!(map.get_owned(1).is_none());
        map.set_ex(2, b"w", 10);
        clock.advance(10);
        assert!(!map.del(2), "deleting an expired corpse is a no-op answer");
        assert!(map.set_ex(3, b"x", 10));
        clock.advance(10);
        assert!(map.set(3, b"y"), "overwriting a corpse is a create");
        assert!(map.get_owned(3).is_some());
    }

    #[test]
    fn default_ttl_stamps_plain_sets() {
        let (map, clock) =
            clocked_map(CacheConfig::unbounded().with_ttl_ms(50));
        map.set(1, b"fleeting");
        assert_eq!(map.ttl_ms(1), Some(Some(50)));
        clock.advance(50);
        assert!(map.get_owned(1).is_none());
        // An explicit 0 TTL overrides the default: the value persists.
        map.set_ex(2, b"durable", 0);
        assert_eq!(map.ttl_ms(2), Some(None));
        clock.advance(10_000);
        assert!(map.get_owned(2).is_some());
    }

    #[test]
    fn expire_persist_and_ttl_cover_both_handle_shapes() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        // Retag path: the value was stored without a deadline.
        map.set(1, b"v");
        assert_eq!(map.ttl_ms(1), Some(None));
        assert!(map.expire(1, 100));
        assert_eq!(map.ttl_ms(1), Some(Some(100)));
        clock.advance(60);
        assert_eq!(map.ttl_ms(1), Some(Some(40)));
        // Fast path: the handle already carries the TTL flag.
        assert!(map.expire(1, 500));
        assert_eq!(map.ttl_ms(1), Some(Some(500)));
        // PERSIST clears the deadline; the value survives forever after.
        assert!(map.persist(1));
        assert_eq!(map.ttl_ms(1), Some(None));
        clock.advance(10_000);
        assert_eq!(map.get_owned(1).unwrap(), b"v");
        // Re-EXPIRE after PERSIST works through the zeroed word.
        assert!(map.expire(1, 10));
        clock.advance(10);
        assert!(!map.expire(1, 10), "expired corpse answers absent");
        assert!(!map.persist(1));
        assert!(!map.expire(2, 10), "missing key answers absent");
        assert!(!map.persist(2));
    }

    #[test]
    fn sweep_reclaims_corpses_without_reads() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        for k in 1..=32u64 {
            map.set_ex(k, &[k as u8; 64], 100);
        }
        clock.advance(100);
        assert_eq!(map.total_arena_stats().live_blobs(), 32);
        // Writes to *other* keys drive the piggybacked sweep over the
        // corpses (SWEEP_EVERY=64, SWEEP_BATCH=8 — give it enough ticks).
        for i in 0..((SWEEP_EVERY as usize) * 40) {
            map.set(1000 + i as u64, b"driver");
        }
        let stats = map.cache_stats();
        assert!(
            stats.expired_swept >= 16,
            "sweep reclaimed only {} corpses",
            stats.expired_swept
        );
    }

    #[test]
    fn budget_is_enforced_by_clock_eviction() {
        let budget = 16 * 1024u64;
        let map = BlobMap::with_config(
            1,
            HotKeyConfig::default(),
            CacheConfig::unbounded().with_budget(budget),
            |_| FraserOptSkipList::new(),
        );
        // 256 keys × 256 B = 64 KiB of demand against a 16 KiB budget.
        for k in 1..=256u64 {
            map.set(k, &[k as u8; 256]);
        }
        let stats = map.cache_stats();
        assert_eq!(stats.budget_bytes, budget);
        assert!(stats.live_bytes <= budget, "live {} > budget {budget}", stats.live_bytes);
        assert!(stats.evictions >= 192, "only {} evictions", stats.evictions);
        assert_eq!(stats.forced, 0);
        assert_eq!(map.total_arena_stats().live_bytes(), stats.live_bytes);
        // Survivors still answer correctly.
        let mut present = 0;
        for k in 1..=256u64 {
            if let Some(v) = map.get_owned(k) {
                assert_eq!(v, vec![k as u8; 256]);
                present += 1;
            }
        }
        assert_eq!(present as u64, stats.live_bytes / 256);
    }

    #[test]
    fn clock_eviction_spares_referenced_values() {
        let map = BlobMap::with_config(
            1,
            HotKeyConfig::default(),
            CacheConfig::unbounded().with_budget(8 * 1024),
            |_| FraserOptSkipList::new(),
        );
        for k in 1..=16u64 {
            map.set(k, &[k as u8; 256]);
        }
        // Keep re-referencing key 1 while churning enough inserts that
        // CLOCK must lap the ledger repeatedly.
        for round in 0..64u64 {
            assert!(map.get_owned(1).is_some(), "hot key evicted at round {round}");
            map.set(100 + round, &[0u8; 256]);
        }
    }

    #[test]
    fn oversized_value_forces_admission_but_is_counted() {
        let map = BlobMap::with_config(
            1,
            HotKeyConfig::default(),
            CacheConfig::unbounded().with_budget(1024),
            |_| FraserOptSkipList::new(),
        );
        map.set(1, &[9u8; 4096]); // larger than the whole budget
        assert_eq!(map.get_owned(1).unwrap().len(), 4096);
        let stats = map.cache_stats();
        assert!(stats.forced >= 1);
        assert!(stats.live_bytes >= 4096);
    }

    #[test]
    fn eviction_poisons_fronted_keys_before_retiring() {
        // Covered end-to-end (promotion → fill → evict → must-miss) in
        // crates/shard/tests/cache.rs; this is the cheap in-module smoke:
        // eviction with an engine attached must not serve stale bytes.
        let map = BlobMap::with_config(
            1,
            HotKeyConfig::eager(8),
            CacheConfig::unbounded().with_budget(4 * 1024),
            |_| FraserOptSkipList::new(),
        );
        map.set(1, &[1u8; 128]);
        for _ in 0..64 {
            assert!(map.get_owned(1).is_some());
        }
        for k in 2..=256u64 {
            map.set(k, &[k as u8; 128]);
        }
        // Whatever happened above, a read of key 1 must answer either the
        // current backing truth or absence — never freed memory. If the
        // key was evicted, the front copy must have died with it.
        match map.get_owned(1) {
            Some(v) => assert_eq!(v, vec![1u8; 128]),
            None => assert!(!map.contains(1)),
        }
    }

    #[test]
    fn ttl_values_are_never_front_cached() {
        let (clock_map, clock) = {
            let clock = Arc::new(FakeClock::new());
            let cfg = CacheConfig::unbounded().with_clock(clock.clone());
            let map = BlobMap::with_config(1, HotKeyConfig::eager(8), cfg, |_| {
                FraserOptSkipList::new()
            });
            (map, clock)
        };
        clock_map.set_ex(7, b"ephemeral", 100);
        for _ in 0..128 {
            assert_eq!(clock_map.get_owned(7).unwrap(), b"ephemeral");
        }
        let stats = clock_map.hotkey_stats().unwrap();
        assert_eq!(stats.front_hits, 0, "TTL'd value leaked into the front cache");
        clock.advance(100);
        assert!(clock_map.get_owned(7).is_none(), "front copy outlived the deadline");
    }

    // -- the unlink-then-republish branches, one interleaving each ----------

    #[test]
    fn reclaiming_a_replaced_handle_puts_the_overwrite_back_uncounted() {
        for why in [Reclaim::Evicted, Reclaim::Lazy] {
            let map = BlobMap::with_hotkeys(1, HotKeyConfig::eager(8), |_| {
                FraserOptSkipList::new()
            });
            map.set(7, b"v1");
            let stale = map.map.search(7).expect("stored");
            assert!(!map.set(7, b"v2"), "overwrite");
            // An evictor or expiry reclaim that chose (7, v1) before the
            // overwrite unlinks v2 instead, and must put it back.
            assert!(!map.reclaim(7, stale, why), "{why:?}: nothing was retired");
            assert_eq!(map.get_owned(7).unwrap(), b"v2", "{why:?}");
            assert_eq!(map.total_arena_stats().live_blobs(), 1, "{why:?}");
            let c = map.cache_stats();
            assert_eq!((c.evictions, c.expired_lazy, c.expired_swept), (0, 0, 0), "{why:?}");
            // The current binding is reclaimed, and counted under `why`.
            let fresh = map.map.search(7).expect("put back");
            assert!(map.reclaim(7, fresh, why), "{why:?}");
            assert_eq!(map.get_owned(7), None, "{why:?}: the front copy died with it");
            assert_eq!(map.total_arena_stats(), ArenaStatsSnapshot::default(), "{why:?}");
            let c = map.cache_stats();
            assert_eq!(c.evictions + c.expired_lazy, 1, "{why:?}");
            assert_eq!(c.evictions, u64::from(why == Reclaim::Evicted), "{why:?}");
        }
    }

    #[test]
    fn expire_retag_of_a_replaced_handle_puts_the_overwrite_back_untouched() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        map.set(3, b"v1");
        let stale = map.map.search(3).expect("stored");
        assert!(!map.set(3, b"v2"), "overwrite");
        // EXPIRE saw the deadline-free v1, then the overwrite landed before
        // its remove.
        assert!(map.retag_with_ttl(3, stale, clock.now_ms() + 100));
        assert_eq!(map.get_owned(3).unwrap(), b"v2");
        assert_eq!(map.ttl_ms(3), Some(None), "v2 keeps its own (absent) deadline");
        assert_eq!(map.total_arena_stats().live_blobs(), 1);
        let c = map.cache_stats();
        assert_eq!((c.evictions, c.expired_lazy, c.ttl_live), (0, 0, 0));
        // The handle it was given is retagged in place.
        let current = map.map.search(3).expect("put back");
        assert!(map.retag_with_ttl(3, current, clock.now_ms() + 100));
        assert_eq!(map.ttl_ms(3), Some(Some(100)));
        assert_eq!(map.cache_stats().ttl_live, 1);
        assert_eq!(map.total_arena_stats().live_blobs(), 1);
    }

    #[test]
    fn republish_retires_a_value_a_fresher_write_displaced() {
        let map = BlobMap::with_hotkeys(1, HotKeyConfig::eager(8), |_| FraserOptSkipList::new());
        map.set(5, b"old");
        // This thread unlinks `old` (as a reclaim or retag would), and a
        // fresh write creates the key before it can put `old` back.
        let held = map.map.remove(5).expect("stored");
        assert!(map.set(5, b"new"), "the key was absent");
        assert!(!map.republish(5, held));
        assert_eq!(map.get_owned(5).unwrap(), b"new");
        let stats = map.total_arena_stats();
        assert_eq!((stats.live_blobs(), stats.live_bytes()), (1, 3));
    }
}
