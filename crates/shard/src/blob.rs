//! The blob-value layer: variable-length `[u8]` payloads over the untouched
//! `u64 → u64` machinery — now a **budgeted cache tier**.
//!
//! The ASCYLIB structures (and [`ShardedMap`] over them) move 64-bit values
//! — enough for the paper's figures, not for a KV store that must hold real
//! payloads. Instead of rewriting 18 structures, this module stores payloads
//! *outside* the structures and indexes them with 64-bit **handles**:
//!
//! * [`ValueArena`] owns the payload memory. Each blob is a header-prefixed
//!   allocation from `ascylib-ssmem` (`alloc_raw`/`retire_raw`), so blob
//!   lifetime rides the same epoch machinery that protects the structures'
//!   own nodes: a blob retired by a `DEL`/overwrite is not reused until
//!   every thread that could still be copying it has left its operation.
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
//! With a [`CacheConfig`] budget, every `set` **reserves** its payload
//! bytes against the shard's share via a CAS loop before allocating; a
//! reservation that would overflow the budget runs CLOCK eviction (clear
//! reference bits, evict the first unreferenced victim) until it fits. The
//! per-shard `live_bytes` gauge therefore never exceeds the budget at any
//! externally observable instant — except `forced` admissions, counted
//! separately, when nothing is evictable (e.g. one value larger than a
//! shard's whole share).
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
//! absent, both unlink-then-republish on the index:
//!
//! * `expire` on a value stored without a deadline retags its handle
//!   (`retag_with_ttl`), because readers consult the expiry word only when
//!   the handle carries the TTL flag;
//! * the evictor and the expiry reclaim (`evict_one`, `expire_reclaim`)
//!   unlink the key they chose and, when the handle they get is not the
//!   one they chose (an overwrite raced them), put it back.
//!
//! Closing them takes a compare-and-replace on the index, not `replace`.
//! Readers never see a mix of old and new payload bytes — payloads are
//! immutable after publish (the expiry word is the one mutable, atomic
//! field). `expire`/`persist` racing an overwrite of the same key resolve
//! in an arbitrary order.
//!
//! # Teardown
//!
//! Hash backings cannot enumerate their keys, so each arena keeps a
//! write-path-only ledger of live handles: a dense vector under one mutex
//! per *shard*, touched only by `set`/`del` and the eviction/sweep
//! machinery — reads stay asynchronized. There is no hash index beside it;
//! each blob's header says where its entry sits. Dropping the map frees
//! every live blob through the ledger; blobs already retired are owned by
//! the epoch machinery and freed by its collector.

use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ascylib::api::{ConcurrentMap, ReplaceMap};
use ascylib::ordered::OrderedMap;
use ascylib_ssmem as ssmem;
use crossbeam_utils::CachePadded;

use crate::cache::{CacheConfig, CacheStatsSnapshot, MsClock, WallClock};
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

/// The allocation layout backing a blob of `len` payload bytes. Must be a
/// pure function of `len`: `store` and `retire` both derive it, and the
/// layouts have to match for the allocator.
fn blob_layout(len: usize) -> Layout {
    let exact = HEADER + len;
    let class = if exact <= SMALL_BLOB_MAX { SMALL_SIZE_CLASS } else { SIZE_CLASS };
    let size = exact.div_ceil(class) * class;
    Layout::from_size_align(size, ALIGN).expect("valid blob layout")
}

/// Traffic counters of one arena (monotone, `Relaxed`: independent event
/// counts with no ordering obligations, as everywhere else in this crate).
#[derive(Debug, Default)]
struct ArenaCounters {
    blobs_stored: AtomicU64,
    blobs_retired: AtomicU64,
    bytes_stored: AtomicU64,
    bytes_retired: AtomicU64,
}

/// Cache-tier counters of one arena (same `Relaxed` convention; `live_now`
/// is the budget-reservation gauge, written by `reserve`/`retire`).
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

/// A point-in-time copy of one arena's counters (or a sum over arenas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStatsSnapshot {
    /// Blobs written through [`ValueArena::store`].
    pub blobs_stored: u64,
    /// Blobs retired (displaced by an overwrite, deleted, evicted, or
    /// expired).
    pub blobs_retired: u64,
    /// Payload bytes written (headers and size-class padding excluded).
    pub bytes_stored: u64,
    /// Payload bytes retired.
    pub bytes_retired: u64,
}

impl ArenaStatsSnapshot {
    /// Blobs currently live (stored minus retired).
    pub fn live_blobs(&self) -> u64 {
        self.blobs_stored.saturating_sub(self.blobs_retired)
    }

    /// Payload bytes currently live.
    pub fn live_bytes(&self) -> u64 {
        self.bytes_stored.saturating_sub(self.bytes_retired)
    }

    /// Adds another snapshot (aggregation across shards).
    pub fn merge(&mut self, other: &ArenaStatsSnapshot) {
        self.blobs_stored = self.blobs_stored.saturating_add(other.blobs_stored);
        self.blobs_retired = self.blobs_retired.saturating_add(other.blobs_retired);
        self.bytes_stored = self.bytes_stored.saturating_add(other.bytes_stored);
        self.bytes_retired = self.bytes_retired.saturating_add(other.bytes_retired);
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

/// A payload arena: header-prefixed `[u8]` blobs in ssmem-managed memory,
/// addressed by opaque 64-bit handles that fit wherever a `u64` value goes.
///
/// The arena does not synchronize readers itself — it inherits ssmem's
/// epoch protocol. The safety rules (enforced by [`BlobMap`], stated here
/// for direct users):
///
/// * a handle may be [`read`](Self::read_into) only under an
///   [`ssmem::protect`] guard created *before* the handle was fetched from
///   whatever shared index published it;
/// * a handle must be [`retire`](Self::retire)d at most once, and only
///   after it has been unlinked from every shared index.
///
/// Budget *policy* (reservation loops, eviction) lives in [`BlobMap`]; the
/// arena only carries the mechanism (the ledger, the gauges, the clock).
#[derive(Debug)]
pub struct ValueArena {
    /// Live handles + CLOCK state, maintained by the write path only, so
    /// teardown can free payloads without key enumeration from the backing.
    ledger: Mutex<Ledger>,
    stats: CachePadded<ArenaCounters>,
    cache: CachePadded<CacheCounters>,
    /// This shard's payload-byte budget (`None` = unbounded).
    budget: Option<u64>,
    /// The clock expiry deadlines are measured against.
    clock: Arc<dyn MsClock>,
}

impl Default for ValueArena {
    fn default() -> Self {
        Self::with_policy(None, Arc::new(WallClock))
    }
}

impl ValueArena {
    /// A fresh, empty, unbounded arena on the wall clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena with a byte budget and a clock (the [`BlobMap`]
    /// constructors split a store budget over shards and pass each share
    /// here).
    fn with_policy(budget: Option<u64>, clock: Arc<dyn MsClock>) -> Self {
        ValueArena {
            ledger: Mutex::new(Ledger::default()),
            stats: CachePadded::default(),
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
    /// handle's TTL flag. Byte-budget accounting is the caller's job (see
    /// [`BlobMap`]'s reservation path).
    pub fn store(&self, key: u64, value: &[u8], expire_at_ms: u64) -> u64 {
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
        self.stats.blobs_stored.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_stored.fetch_add(value.len() as u64, Ordering::Relaxed);
        handle
    }

    /// Payload length of a live (or protected) blob.
    ///
    /// # Safety
    ///
    /// Same contract as [`read_into`](Self::read_into).
    pub unsafe fn len_of(&self, handle: u64) -> usize {
        // SAFETY: forwarded caller contract; the meta word is word 0.
        (unsafe { meta_cell(blob_addr(handle)).load(Ordering::Relaxed) } & META_LEN_MASK) as usize
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
    pub unsafe fn read_into(&self, handle: u64, out: &mut Vec<u8>) {
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

    /// `true` if the blob's deadline has passed on this arena's clock.
    /// Same safety contract as [`read_into`](Self::read_into).
    unsafe fn is_expired(&self, handle: u64) -> bool {
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
        let now = self.now_ms();
        let mut ledger = self.ledger.lock().expect("arena ledger poisoned");
        let n = ledger.entries.len();
        if n == 0 {
            return;
        }
        for _ in 0..max.min(n) {
            let i = ledger.sweep % n;
            ledger.sweep = (i + 1) % n;
            let (key, handle) = ledger.entries[i];
            if !has_ttl(handle) {
                continue;
            }
            // SAFETY: in-ledger entry under the ledger lock (see
            // `clock_victim`).
            let exp = unsafe { expire_cell(blob_addr(handle)).load(Ordering::Relaxed) };
            if exp != 0 && now >= exp {
                out.push((key, handle));
            }
        }
    }

    /// Retires a blob: its memory returns to the ssmem pool once every
    /// operation concurrent with this call has finished.
    ///
    /// # Safety
    ///
    /// `handle` must come from [`store`](Self::store) on this arena, must
    /// already be unlinked from every shared index, and must not be retired
    /// twice.
    pub unsafe fn retire(&self, handle: u64) {
        let ptr = blob_addr(handle);
        // SAFETY: the handle is unlinked (caller contract), so this thread
        // owns the right to read its header and retire it.
        let len = (unsafe { meta_cell(ptr).load(Ordering::Relaxed) } & META_LEN_MASK) as usize;
        // SAFETY: stored here and not yet retired (caller contract), so the
        // blob is allocated and in this ledger.
        unsafe { self.ledger.lock().expect("arena ledger poisoned").remove(handle) };
        self.stats.blobs_retired.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_retired.fetch_add(len as u64, Ordering::Relaxed);
        // Saturating release of the reservation: direct arena users that
        // never reserved must not wrap the gauge.
        let _ = self.cache.live_now.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(len as u64))
        });
        if has_ttl(handle) {
            let _ = self.cache.ttl_live.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        }
        // SAFETY: unlinked and never retired before (caller contract);
        // layout is the same pure function of `len` used at allocation.
        unsafe { ssmem::retire_raw(ptr, blob_layout(len)) };
    }

    /// A copy of the arena's counters.
    pub fn stats(&self) -> ArenaStatsSnapshot {
        ArenaStatsSnapshot {
            blobs_stored: self.stats.blobs_stored.load(Ordering::Relaxed),
            blobs_retired: self.stats.blobs_retired.load(Ordering::Relaxed),
            bytes_stored: self.stats.bytes_stored.load(Ordering::Relaxed),
            bytes_retired: self.stats.bytes_retired.load(Ordering::Relaxed),
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

thread_local! {
    /// Scratch handle buffer for `multi_get`, so the server's MGET hot path
    /// performs no per-batch allocation for the handle pass.
    static HANDLE_SCRATCH: RefCell<Vec<Option<u64>>> = const { RefCell::new(Vec::new()) };
    /// Recycled per-value buffers: `multi_get_into` harvests the previous
    /// batch's `Vec<u8>`s from the caller's result buffer before clearing
    /// it, so a steady stream of batches reuses value capacity instead of
    /// allocating one vector per hit per frame.
    static VALUE_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Most recycled value buffers kept per thread (matches the largest batch
/// the serving tier dispatches at once).
const VALUE_POOL_CAP: usize = 1024;

/// Pooled buffers are shrunk to at most this capacity on return, so a
/// burst of maximum-size values cannot pin `VALUE_POOL_CAP × 64 KiB` of
/// heap per thread forever — the pool's worst case is bounded at
/// `VALUE_POOL_CAP × POOLED_VALUE_CAP_BYTES` (4 MiB). Values at or under
/// this size still recycle their full capacity.
const POOLED_VALUE_CAP_BYTES: usize = 4096;

/// Takes a recycled value buffer (empty) or a fresh one.
fn pool_take() -> Vec<u8> {
    VALUE_POOL.with(|pool| pool.borrow_mut().pop()).unwrap_or_default()
}

/// Returns an unneeded buffer to the pool for the next hit to reuse,
/// shrinking oversized ones so the pool's footprint stays bounded.
fn pool_put(mut value: Vec<u8>) {
    VALUE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < VALUE_POOL_CAP {
            value.clear();
            if value.capacity() > POOLED_VALUE_CAP_BYTES {
                value.shrink_to(POOLED_VALUE_CAP_BYTES);
            }
            pool.push(value);
        }
    });
}

/// Harvests the previous batch's value buffers out of a result vector into
/// the pool (capacity reuse across a stream of batches; oversized buffers
/// are shrunk, as in [`pool_put`]).
fn harvest_buffers(out: &mut [Option<Vec<u8>>]) {
    VALUE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        for slot in out.iter_mut() {
            if pool.len() >= VALUE_POOL_CAP {
                break;
            }
            if let Some(mut value) = slot.take() {
                value.clear();
                if value.capacity() > POOLED_VALUE_CAP_BYTES {
                    value.shrink_to(POOLED_VALUE_CAP_BYTES);
                }
                pool.push(value);
            }
        }
    });
}

/// How an expired value reached its reclaim (drives the counter split).
#[derive(Clone, Copy)]
enum Reclaim {
    /// A read found the corpse.
    Lazy,
    /// The piggybacked write/scan sweep found it.
    Swept,
}

/// Variable-length byte values over a [`ShardedMap`] of any backing: the
/// map stores arena handles, the per-shard [`ValueArena`]s store payloads,
/// and every read copies out under an epoch guard. With a [`CacheConfig`],
/// the map is a **bounded cache**: byte budgets enforced by CLOCK eviction
/// on the SET path, TTLs expired lazily on read plus an incremental sweep
/// (see the module docs).
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
        BlobMap {
            map: ShardedMap::new(shards, make),
            arenas: (0..shards).map(|_| ValueArena::new()).collect(),
            hot: None,
            default_ttl_ms: None,
        }
    }

    /// Like [`new`](Self::new), attaching a hot-key engine (see
    /// [`crate::hotkey`]): hot values up to
    /// [`crate::hotkey::FRONT_VALUE_CAP`] bytes are served from seqlock'd
    /// copies without touching the epoch guard, index, or arena, and hot
    /// writes apply write-through under the key's front-slot lock.
    /// `cfg.k == 0` yields a plain map.
    pub fn with_hotkeys(shards: usize, cfg: HotKeyConfig, make: impl FnMut(usize) -> M) -> Self {
        let mut map = Self::new(shards, make);
        map.hot = HotKeyEngine::new(shards, cfg);
        map
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
            arenas: (0..shards)
                .map(|_| ValueArena::with_policy(per_shard, cache.clock.clone()))
                .collect(),
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
                    let found = self.get_backing_ex(key, out);
                    match found {
                        // TTL'd values are never installed: dropping the
                        // lease leaves the slot pending, and every read
                        // keeps consulting the (expiry-checking) backing.
                        Some(true) => {}
                        Some(false) => hot.fill(&ticket, Some(out.as_slice())),
                        None => hot.fill(&ticket, None),
                    }
                    return found.is_some();
                }
                FrontRead::Miss => {}
            }
        }
        self.get_backing_ex(key, out).is_some()
    }

    /// The engine-less read path: epoch guard, index search, expiry check,
    /// arena copy. `Some(carries_ttl)` on a live hit; `None` on a miss
    /// (reclaiming the corpse when the miss was an expired value).
    fn get_backing_ex(&self, key: u64, out: &mut Vec<u8>) -> Option<bool> {
        out.clear();
        let arena = self.arena_of(key);
        let dead = {
            // Guard before the handle fetch: a concurrent DEL/overwrite
            // retires the blob, and this guard is what keeps it readable
            // until we're done copying.
            let _guard = ssmem::protect();
            match self.map.search(key) {
                None => return None,
                // SAFETY: guard created before the fetch (above).
                Some(handle) if has_ttl(handle) && unsafe { arena.is_expired(handle) } => handle,
                Some(handle) => {
                    // SAFETY: guard created before the fetch (above).
                    unsafe { arena.read_into_marked(handle, out) };
                    return Some(has_ttl(handle));
                }
            }
        };
        // Guard dropped: unlink and retire the corpse.
        self.expire_reclaim(key, dead, Reclaim::Lazy);
        None
    }

    /// Like [`get`](Self::get), returning a fresh vector.
    pub fn get_owned(&self, key: u64) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.get(key, &mut out).then_some(out)
    }

    /// `true` if the key is present and alive (expired-but-unreclaimed
    /// values answer `false`; this read-only probe does not reclaim them).
    pub fn contains(&self, key: u64) -> bool {
        let arena = self.arena_of(key);
        let _guard = ssmem::protect();
        match self.map.search(key) {
            // SAFETY: guard created before the fetch.
            Some(handle) => !(has_ttl(handle) && unsafe { arena.is_expired(handle) }),
            None => false,
        }
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
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            if expire_at == 0 && hot.fronted(key) {
                // Store the blob before taking the slot lock (arena stores
                // are uncontended); only the index publish runs under it.
                let handle = arena.store(key, value, 0);
                return hot.write_through(key, Some(value), || self.publish(key, handle));
            }
            let created = self.set_backing_at(key, value, expire_at);
            // The key may have been promoted while we wrote (and TTL'd
            // values are never front-cached): drop any cached copy so no
            // reader sees a value older than this write.
            hot.poison(key);
            return created;
        }
        self.set_backing_at(key, value, expire_at)
    }

    fn set_backing_at(&self, key: u64, value: &[u8], expire_at_ms: u64) -> bool {
        let handle = self.arena_of(key).store(key, value, expire_at_ms);
        self.publish(key, handle)
    }

    /// Makes `handle` the value of `key`: swaps it over a present handle in
    /// place (retiring the displaced blob), else inserts it; loops while a
    /// concurrent `del`/`set` of the key wins between the two. `true` if
    /// the key was created — overwriting an expired corpse is a create, not
    /// a replace.
    fn publish(&self, key: u64, handle: u64) -> bool {
        let arena = self.arena_of(key);
        loop {
            if let Some(old) = self.map.replace(key, handle) {
                // SAFETY: `replace` returned `old` to this thread alone, so
                // it is unlinked, readable, and retired exactly once.
                unsafe {
                    let was_dead = has_ttl(old) && arena.is_expired(old);
                    arena.retire(old);
                    return was_dead;
                }
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
        if let Some(hot) = &self.hot {
            hot.record_access(key);
            if hot.fronted(key) {
                return hot.write_through(key, None, || self.del_backing(key));
            }
            let removed = self.del_backing(key);
            hot.poison(key);
            return removed;
        }
        self.del_backing(key)
    }

    fn del_backing(&self, key: u64) -> bool {
        match self.map.remove(key) {
            Some(handle) => {
                let arena = self.arena_of(key);
                // SAFETY: unlinked by the remove, returned only to us.
                let was_dead = unsafe { has_ttl(handle) && arena.is_expired(handle) };
                // SAFETY: as above; retired exactly once.
                unsafe { arena.retire(handle) };
                if was_dead {
                    arena.cache.expired_lazy.fetch_add(1, Ordering::Relaxed);
                }
                !was_dead
            }
            None => false,
        }
    }

    // -- expiry verbs ------------------------------------------------------

    /// Sets the expiry deadline of a live key to `ttl_ms` from now;
    /// `true` if the key was present and alive. A `ttl_ms` of 0 expires
    /// the value immediately (the next read or sweep reclaims it).
    /// Racing a concurrent overwrite of the same key resolves in an
    /// arbitrary order (module docs).
    pub fn expire(&self, key: u64, ttl_ms: u64) -> bool {
        let arena = self.arena_of(key);
        let deadline = arena.now_ms().saturating_add(ttl_ms).max(1);
        enum After {
            Done,
            Dead(u64),
            Retag(u64),
        }
        let after = {
            let _guard = ssmem::protect();
            match self.map.search(key) {
                None => return false,
                Some(h) if has_ttl(h) => {
                    // SAFETY: guard created before the fetch.
                    if unsafe { arena.is_expired(h) } {
                        After::Dead(h)
                    } else {
                        // SAFETY: as above; the expiry word is atomic.
                        unsafe { arena.set_expire(h, deadline) };
                        After::Done
                    }
                }
                Some(h) => After::Retag(h),
            }
        };
        match after {
            After::Done => true,
            After::Dead(h) => {
                self.expire_reclaim(key, h, Reclaim::Lazy);
                false
            }
            After::Retag(h) => self.retag_with_ttl(key, h, deadline),
        }
    }

    /// Republishes a deadline-free value with the TTL flag set (readers
    /// only consult the expiry word when the handle carries the flag).
    /// Between the remove and the insert a reader of the key misses (the
    /// first of the two windows in the module docs).
    fn retag_with_ttl(&self, key: u64, h: u64, deadline: u64) -> bool {
        let arena = self.arena_of(key);
        match self.map.remove(key) {
            Some(got) if got == h => {
                // We own the value now: stamp the deadline, retag the
                // ledger entry, and republish with the TTL flag. Poison
                // first — the front cache may hold a copy from the value's
                // deadline-free life, which must not outlive the deadline.
                // SAFETY: unlinked by our remove, returned only to us.
                unsafe { arena.set_expire(got, deadline) };
                let tagged = got | TAG_TTL;
                // SAFETY: as above; `got` is stored and not retired.
                unsafe { arena.retag(got, tagged) };
                if let Some(hot) = &self.hot {
                    hot.poison(key);
                }
                if !self.map.insert(key, tagged) {
                    // A concurrent SET won the key; our value was current
                    // until this EXPIRE raced the overwrite — retire it.
                    if let Some(hot) = &self.hot {
                        hot.poison(key);
                    }
                    // SAFETY: still unlinked and owned by us.
                    unsafe { arena.retire(tagged) };
                }
                true
            }
            Some(other) => {
                // Raced an overwrite: put the fresh value back untouched.
                if !self.map.insert(key, other) {
                    if let Some(hot) = &self.hot {
                        hot.poison(key);
                    }
                    // SAFETY: unlinked by our remove; an even fresher
                    // write now owns the key.
                    unsafe { arena.retire(other) };
                }
                true
            }
            None => false,
        }
    }

    /// Clears the expiry deadline of a live key; `true` if the key was
    /// present and alive (with or without a deadline to clear).
    pub fn persist(&self, key: u64) -> bool {
        let arena = self.arena_of(key);
        let dead = {
            let _guard = ssmem::protect();
            match self.map.search(key) {
                None => return false,
                Some(h) if !has_ttl(h) => return true,
                // SAFETY: guard created before the fetch.
                Some(h) if unsafe { arena.is_expired(h) } => h,
                Some(h) => {
                    // The TTL flag stays in the handle (republishing is an
                    // overwrite-shaped disruption); a zero expiry word
                    // reads as "no deadline".
                    // SAFETY: as above; the expiry word is atomic.
                    unsafe { arena.set_expire(h, 0) };
                    return true;
                }
            }
        };
        self.expire_reclaim(key, dead, Reclaim::Lazy);
        false
    }

    /// Remaining lifetime of `key`: `None` = missing (or expired),
    /// `Some(None)` = present with no deadline, `Some(Some(ms))` =
    /// milliseconds until expiry.
    pub fn ttl_ms(&self, key: u64) -> Option<Option<u64>> {
        let arena = self.arena_of(key);
        let dead = {
            let _guard = ssmem::protect();
            match self.map.search(key) {
                None => return None,
                Some(h) if !has_ttl(h) => return Some(None),
                Some(h) => {
                    // SAFETY: guard created before the fetch.
                    let exp = unsafe { arena.expire_of(h) };
                    if exp == 0 {
                        return Some(None); // PERSISTed
                    }
                    let now = arena.now_ms();
                    if now >= exp {
                        h
                    } else {
                        return Some(Some(exp - now));
                    }
                }
            }
        };
        self.expire_reclaim(key, dead, Reclaim::Lazy);
        None
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
        loop {
            if arena.try_reserve(len) {
                return;
            }
            if self.evict_one(shard) {
                fruitless = 0;
            } else {
                fruitless += 1;
                if fruitless >= EVICT_FORCE_ATTEMPTS {
                    arena.add_live(len);
                    arena.cache.forced.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Evicts one CLOCK victim from `shard`; `true` if bytes were freed.
    fn evict_one(&self, shard: usize) -> bool {
        let arena = &self.arenas[shard];
        let Some((key, handle)) = arena.clock_victim() else {
            return false;
        };
        match self.map.remove(key) {
            Some(got) if got == handle => {
                // Poison before retire: a fronted copy must die before the
                // backing value does (never-stale guarantee).
                if let Some(hot) = &self.hot {
                    hot.poison(key);
                }
                // SAFETY: unlinked by our remove, returned only to us.
                unsafe { arena.retire(got) };
                arena.cache.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(other) => {
                // The snapshot went stale (an overwrite raced us — the
                // generation tag makes a recycled pointer unmistakable):
                // republish the fresh value we just unlinked.
                if self.map.insert(key, other) {
                    false
                } else {
                    // An even fresher write claimed the key meanwhile; the
                    // value we hold lost that race — evicting it is legal.
                    if let Some(hot) = &self.hot {
                        hot.poison(key);
                    }
                    // SAFETY: unlinked by our remove, owned by us.
                    unsafe { arena.retire(other) };
                    arena.cache.evictions.fetch_add(1, Ordering::Relaxed);
                    true
                }
            }
            None => false,
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
            self.expire_reclaim(key, handle, Reclaim::Swept);
        }
    }

    /// Unlinks and retires an expired value, tolerating every race: only
    /// the exact `(key → handle)` binding we observed is reclaimed; a
    /// fresh value that raced in is republished untouched. Nothing here
    /// dereferences the stale `handle` — the only blobs touched are the
    /// ones `remove` handed us exclusively.
    fn expire_reclaim(&self, key: u64, handle: u64, kind: Reclaim) {
        let arena = self.arena_of(key);
        match self.map.remove(key) {
            Some(got) if got == handle => {
                // Poison before retire (never-stale; see `evict_one`).
                if let Some(hot) = &self.hot {
                    hot.poison(key);
                }
                // SAFETY: unlinked by our remove, returned only to us.
                unsafe { arena.retire(got) };
                let counter = match kind {
                    Reclaim::Lazy => &arena.cache.expired_lazy,
                    Reclaim::Swept => &arena.cache.expired_swept,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            Some(other) if !self.map.insert(key, other) => {
                if let Some(hot) = &self.hot {
                    hot.poison(key);
                }
                // SAFETY: unlinked by our remove, owned by us.
                unsafe { arena.retire(other) };
            }
            Some(_) | None => {}
        }
    }

    // -- batched ops -------------------------------------------------------

    /// Batched lookup with copy-out: clears `out` and refills it with
    /// per-key answers in input order. With a hot-key engine attached,
    /// fronted keys are answered from their front-cache copies and only
    /// the remainder takes the batched backing path (one epoch guard).
    pub fn multi_get_into(&self, keys: &[u64], out: &mut Vec<Option<Vec<u8>>>) {
        // Harvest the previous batch's value buffers before clearing, so
        // repeated batches through one result buffer stop allocating per
        // hit once capacities have warmed up.
        harvest_buffers(out);
        out.clear();
        let Some(hot) = self.hot.as_deref() else {
            out.reserve(keys.len());
            self.resolve_batch(keys, |_, found| out.push(found.map(|(value, _)| value)));
            return;
        };
        out.resize(keys.len(), None);
        // The keys the front cache could not answer, and per key its input
        // position and fill lease; they take the batched backing path.
        let mut rest_keys: Vec<u64> = Vec::new();
        let mut rest: Vec<(usize, Option<FillTicket>)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            hot.record_access(key);
            let mut value = pool_take();
            let ticket = match hot.read(key, &mut value) {
                // As in `get`: front-served keys skip the shard-stats
                // RMWs; `total_stats` folds the engine counters back in.
                FrontRead::Hit => {
                    out[i] = Some(value);
                    continue;
                }
                FrontRead::Absent => {
                    pool_put(value);
                    continue;
                }
                FrontRead::Pending(ticket) => Some(ticket),
                FrontRead::Miss => None,
            };
            pool_put(value);
            rest_keys.push(key);
            rest.push((i, ticket));
        }
        if rest.is_empty() {
            return;
        }
        self.resolve_batch(&rest_keys, |j, found| {
            let (pos, ticket) = &rest[j];
            match found {
                Some((value, ttl)) => {
                    // TTL'd values are never installed (see `get`).
                    if let (Some(ticket), false) = (ticket, ttl) {
                        hot.fill(ticket, Some(&value));
                    }
                    out[*pos] = Some(value);
                }
                None => {
                    if let Some(ticket) = ticket {
                        hot.fill(ticket, None);
                    }
                }
            }
        });
    }

    /// Resolves `keys` against the index under one epoch guard: `each(i,
    /// found)` gets, in input order, a pooled copy of every live value and
    /// whether it carries a TTL, or `None` for a missing or expired key.
    /// Expired corpses are reclaimed once the guard is dropped.
    fn resolve_batch(&self, keys: &[u64], mut each: impl FnMut(usize, Option<(Vec<u8>, bool)>)) {
        let mut dead: Vec<(u64, u64)> = Vec::new();
        HANDLE_SCRATCH.with(|scratch| {
            let mut handles = scratch.borrow_mut();
            let _guard = ssmem::protect();
            self.map.multi_get_into(keys, &mut handles);
            for (i, (&key, handle)) in keys.iter().zip(handles.iter()).enumerate() {
                let arena = self.arena_of(key);
                each(
                    i,
                    handle.and_then(|h| {
                        // SAFETY: guard created before the batched fetch.
                        if has_ttl(h) && unsafe { arena.is_expired(h) } {
                            dead.push((key, h));
                            return None;
                        }
                        let mut value = pool_take();
                        // SAFETY: guard created before the batched fetch.
                        unsafe { arena.read_into_marked(h, &mut value) };
                        Some((value, has_ttl(h)))
                    }),
                );
            }
        });
        // Guard dropped (the closure ended): reclaim the corpses.
        for (key, h) in dead {
            self.expire_reclaim(key, h, Reclaim::Lazy);
        }
    }

    /// Allocating wrapper over [`multi_get_into`](Self::multi_get_into).
    pub fn multi_get(&self, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
        let mut out = Vec::new();
        self.multi_get_into(keys, &mut out);
        out
    }

    /// Batched overwrite in input order; `result[i]` tells whether
    /// `entries[i]` created its key. Per-key semantics are exactly a loop
    /// of [`set`](Self::set) calls (a duplicate key within one batch: later
    /// occurrences overwrite earlier ones).
    pub fn multi_set<B: AsRef<[u8]>>(&self, entries: &[(u64, B)]) -> Vec<bool> {
        entries.iter().map(|(k, v)| self.set(*k, v.as_ref())).collect()
    }

    /// Per-shard payload statistics.
    pub fn arena_stats(&self) -> Vec<ArenaStatsSnapshot> {
        self.arenas.iter().map(|a| a.stats()).collect()
    }

    /// Payload statistics aggregated over all shards.
    pub fn total_arena_stats(&self) -> ArenaStatsSnapshot {
        let mut total = ArenaStatsSnapshot::default();
        for a in self.arenas.iter() {
            total.merge(&a.stats());
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
                if has_ttl(handle) && unsafe { arena.is_expired(handle) } {
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
            self.expire_reclaim(key, h, Reclaim::Swept);
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
    use crate::cache::FakeClock;
    use ascylib::hashtable::ClhtLb;
    use ascylib::skiplist::FraserOptSkipList;

    fn blob_map() -> BlobMap<FraserOptSkipList> {
        BlobMap::new(4, |_| FraserOptSkipList::new())
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
        assert_eq!(stats.blobs_stored, 2);
        assert_eq!(stats.blobs_retired, 1);
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
        let mut out = Vec::new();
        map.multi_get_into(&[2], &mut out);
        assert_eq!(out, vec![Some(b"two".to_vec())]);
    }

    #[test]
    fn multi_get_into_recycles_value_buffers_across_batches() {
        let map = blob_map();
        map.set(1, &[0xAA; 300]);
        map.set(2, &[0xBB; 50]);
        let mut out = Vec::new();
        map.multi_get_into(&[1, 2, 3], &mut out);
        let first_ptr = out[0].as_ref().unwrap().as_ptr();
        assert_eq!(out[0].as_ref().unwrap(), &vec![0xAA; 300]);
        // The next batch (same thread, same result buffer) reuses the
        // harvested 300-byte buffer for a value that fits in it.
        map.multi_get_into(&[2, 1], &mut out);
        assert_eq!(out, vec![Some(vec![0xBB; 50]), Some(vec![0xAA; 300])]);
        let reused = out
            .iter()
            .flatten()
            .any(|v| std::ptr::eq(v.as_ptr(), first_ptr));
        assert!(reused, "warmed value capacity must be recycled, not reallocated");
    }

    #[test]
    fn value_pool_shrinks_oversized_buffers_and_stays_capped() {
        let map = blob_map();
        map.set(1, &vec![7u8; 64 * 1024]);
        map.set(2, b"small");
        let mut out = Vec::new();
        // Each batch materializes the 64 KiB value; the next call harvests
        // that buffer back into the pool, where it must be shrunk.
        for _ in 0..4 {
            map.multi_get_into(&[1, 2], &mut out);
        }
        map.multi_get_into(&[2], &mut out); // harvests the last big buffer
        VALUE_POOL.with(|pool| {
            let pool = pool.borrow();
            assert!(pool.len() <= VALUE_POOL_CAP);
            for v in pool.iter() {
                assert!(
                    v.capacity() <= POOLED_VALUE_CAP_BYTES,
                    "pooled buffer kept {} bytes of capacity",
                    v.capacity()
                );
            }
        });
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
        let arena = ValueArena::with_policy(Some(1 << 20), Arc::new(WallClock));
        let mut handles: Vec<(u64, u64)> =
            (1..=BLOBS).map(|k| (k, arena.store(k, &k.to_le_bytes(), 0))).collect();
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
        let arena = ValueArena::new();
        let h1 = arena.store(1, b"alpha", 0);
        let h2 = arena.store(2, b"beta", 1234);
        assert!(!has_ttl(h1));
        assert!(has_ttl(h2));
        assert_ne!(h1 & TAG_GEN_MASK, h2 & TAG_GEN_MASK, "generations differ");
        let mut out = Vec::new();
        // SAFETY: both handles are live and owned by this test.
        unsafe {
            assert_eq!(arena.len_of(h1), 5);
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
}
