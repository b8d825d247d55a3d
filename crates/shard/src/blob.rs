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
//! bit 63..48   per-thread generation tag (defeats handle ABA: the storing
//!              thread's own counter tags each handle, so a pointer one
//!              thread stores again gets a different tag; as threads'
//!              sequences start far apart, a pointer recycled through
//!              another thread's pool matches an evictor's stale
//!              snapshot only by a 16-bit coincidence)
//! bit 47..3    the blob address (8-aligned)
//! bit 0        TTL flag: set iff the blob has an expiry word, so reads of
//!              never-expiring values skip the expiry check without
//!              loading anything
//! ```
//!
//! The blob header is one word, 8 bytes — two, 16 bytes, for a value
//! stored with a deadline — and the payload follows it in the same
//! allocation:
//!
//! ```text
//! word 0   meta: payload length (low 61 bits) | retired (61, debug
//!          builds only) | layout tag (62) | CLOCK reference bit (63)
//! word 1   TTL'd blobs only: expire_at_ms (0 = none since PERSIST);
//!          atomic, EXPIRE/PERSIST mutate it
//! ```
//!
//! The payload therefore starts at `8 + 8·(handle & TAG_TTL)`: store,
//! retire, teardown, the CLOCK and sweep walks and every read hold the
//! handle already, so knowing where the payload starts loads nothing. The
//! layout tag records the same fact in the blob, and debug builds check on
//! every payload access that the two agree — a mismatch would copy bytes
//! from 8 bytes off, silently.
//!
//! The allocation is header + payload rounded up to 8 bytes while the total
//! is at most 512 bytes, and to 64 bytes above. Up to 512 bytes ssmem's
//! slab arena carves every multiple of 8 with no per-object header, so a
//! coarser step would only waste bytes: a 64-byte value takes 72 bytes (80
//! with a deadline), a 256-byte one 264. Larger blobs come from the system
//! allocator, and the coarse step keeps the reuse pool at few classes per
//! kilobyte. Either way the size is a function of the payload length and
//! the TTL flag alone, which the meta word and the handle record.
//!
//! The CLOCK reference bit lives in the header word the read path already
//! loads for the length, so tracking a hit costs **one relaxed bit-set and
//! zero extra cache lines** — and only when a byte budget is configured and
//! the bit isn't already set (hot blobs settle into a read-only state).
//!
//! # Budget enforcement
//!
//! Every `set` **reserves** its payload bytes before allocating, and every
//! retire releases them. While at most 8 threads write, none writes a line
//! another thread writes to do so: each thread keeps a **byte credit** in
//! its own stripe of the arena (see [`crate::stats`]; further threads share
//! the overflow stripe's).
//!
//! * Without a budget there is nothing to share. A reservation takes from
//!   the stripe's credit and a retire gives back to it, so a credit runs
//!   below zero; live bytes are minus the credits' sum.
//! * With a [`CacheConfig`] budget, the shard's shared gauge `live_now`
//!   counts every byte **reserved**: live bytes plus every stripe's credit.
//!   A reservation takes from its own stripe's credit first. Only when that
//!   runs short does it CAS on the gauge against the shard's share, taking
//!   the value plus a refill of half the cap if both fit. A retire puts the
//!   bytes back into its own stripe's credit; above the cap, all but half
//!   of it goes back to the gauge. The cap is `min(8 KiB, share / 256)`, so
//!   the 9 stripes (8 owned, one overflow) strand at most 9/256 of a
//!   share, and a share under 512 bytes keeps no credit: every
//!   reservation is the exact CAS.
//!
//! Either way live bytes are `live_now − Σ credit`, the one count of live
//! payload bytes: [`BlobMap::total_arena_stats`] and
//! [`BlobMap::cache_stats`] both read it, and it equals the stored payloads
//! whenever no `set` is between its reservation and its store. A
//! reservation that would overflow the budget runs CLOCK eviction until it
//! fits: a hand walks the shard's index in key order, clearing reference
//! bits, and evicts the first unreferenced value it meets; the victim's
//! bytes land in the evicting thread's credit, which the retried
//! reservation then takes. The gauge, credits included, therefore never
//! exceeds the share, and live bytes never exceed the budget at any
//! externally observable instant — except `forced` admissions, counted
//! separately, when nothing is evictable (e.g. one value larger than a
//! shard's whole share).
//!
//! A value starts unreferenced, so an unread newcomer is evicted when the
//! hand first reaches it. A run of ascending inserts lands just ahead of
//! the hand, which would then evict only those newcomers and never wrap;
//! so a lap chooses at most twice as many victims as the shard holds (as
//! many as a lap can meet when newcomers spread evenly over the keys), and
//! a hand that has chosen more wraps early to the keys behind it.
//!
//! # Expiry
//!
//! Expiry is **lazy**: a read that finds a dead value answers "missing",
//! then unlinks and retires the corpse after its epoch guard drops. An
//! incremental sweep piggybacks on the write path (every
//! `SWEEP_EVERY`th `set` per shard walks a few index entries from a cursor
//! — no new threads) and on `scan`, which reclaims any corpse it walks
//! over.
//!
//! # Hot-key cooperation
//!
//! The front cache's coherence protocol lives in [`crate::hotkey`] alone;
//! this map only routes through it. Every write — `set`, `del`,
//! `expire`'s swap, and the removes of eviction and expiry — goes through
//! [`HotKeyEngine::write`] with what it writes and whether that carries a
//! deadline, and retires the displaced blob only after it returns, when
//! the engine has already replaced or dropped the key's front copy under
//! the slot's versioned word (a lock like BST-TK's). A read the front
//! left pending hands its backing result and the value's TTL flag to
//! [`HotKeyEngine::fill`], which decides what may be installed. A front
//! hit never touches the blob, so it marks its slot instead, and the
//! CLOCK hand counts a marked slot as a reference and clears the mark
//! ([`HotKeyEngine::take_referenced`]): a key read only through the front
//! is not evicted while it is read.
//!
//! # Consistency
//!
//! Per-key operations keep the shard layer's linearizability. An
//! **overwrite** (`set` on a present key) swaps the handle in place with
//! [`ReplaceMap::replace`], so a reader of a key that is never deleted
//! never misses. So does `expire` on a value stored without a deadline:
//! such a blob has no expiry word, so `expire` stores a TTL'd copy and
//! swaps it in with [`ReplaceMap::compare_replace`], looking again if an
//! overwrite took the key first. Readers never see a mix of old and new
//! payload bytes — payloads are immutable after publish (the expiry word
//! is the one mutable, atomic field). `expire`/`persist` racing an
//! overwrite of the same key resolve in an arbitrary order.
//!
//! # Teardown
//!
//! The index is the one record of which values are live: every live blob
//! is the value of exactly one key. Dropping the map walks each shard's
//! index and frees the blob behind every key; blobs already retired are
//! owned by the epoch machinery and freed by its collector.

use std::alloc::Layout;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ascylib::api::{ConcurrentMap, ReplaceMap, KEY_MAX, KEY_MIN};
use ascylib::ordered::OrderedMap;
use ascylib::prefetch;
use ascylib_ssmem as ssmem;
use crossbeam_utils::CachePadded;

use crate::cache::{CacheConfig, CacheStatsSnapshot, MsClock};
use crate::hotkey::{FillTicket, FrontRead, HotKeyConfig, HotKeyEngine, HotKeyStatsSnapshot};
use crate::map::ShardedMap;
use crate::stats::Striped;

/// Bytes of every blob's header: the meta word (payload length, layout tag,
/// CLOCK reference bit). A TTL'd blob adds the expiry word after it (see
/// [`payload_offset`]).
const HEADER: usize = 8;

/// Blob alignment (header words are `u64`s), and the rounding step of
/// allocations up to [`SMALL_BLOB_MAX`].
const ALIGN: usize = 8;

/// Allocation sizes above [`SMALL_BLOB_MAX`] are rounded up to this
/// granularity, so the ssmem reuse pool sees a bounded number of size classes
/// per kilobyte of value length (two payloads within the same 64-byte bucket
/// recycle each other's memory).
const SIZE_CLASS: usize = 64;

/// Largest allocation (header included) rounded at [`ALIGN`]: the largest
/// object ssmem's slab arena carves, where every multiple of 8 bytes is a
/// class of its own with no per-object header.
const SMALL_BLOB_MAX: usize = 512;

/// Handle bit 0: the blob has an expiry word (the value was stored with a
/// deadline). Bit 0, so that `handle & TAG_TTL` counts the extra word.
const TAG_TTL: u64 = 1;

/// Handle bits 63..48: the generation tag of the thread that stored the blob.
const TAG_GEN_MASK: u64 = 0xFFFF << 48;

/// Clears every tag bit, leaving the 8-aligned blob address.
const ADDR_MASK: u64 = !(TAG_GEN_MASK | 0x7);

/// Meta-word bit 63: the CLOCK reference bit.
const META_REF: u64 = 1 << 63;

/// Meta-word bit 62: the layout tag — the blob has an expiry word. It
/// repeats the handle's TTL flag so debug builds can check the two agree.
const META_TTL: u64 = 1 << 62;

/// Meta-word bit 61: the blob was retired. Set and checked in debug builds
/// only, where it catches a handle retired twice.
const META_RETIRED: u64 = 1 << 61;

/// Meta-word bits 60..0: the payload length.
const META_LEN_MASK: u64 = META_RETIRED - 1;

/// Every `SWEEP_EVERY`th `set` on a shard walks a slice of the shard's
/// index looking for expired values (skipped entirely while no value on
/// the shard carries a deadline).
const SWEEP_EVERY: u64 = 64;

/// Index entries examined per sweep step.
const SWEEP_BATCH: usize = 8;

/// Entries one fetch of an index walk asks for: a sweep step in one fetch.
/// CLOCK stops sooner (about 1.4 entries per victim on the benchmark's
/// `embed_write`), but only one `set` in ten evicts there.
const WALK_CHUNK: usize = SWEEP_BATCH;

/// Consecutive fruitless eviction attempts before a reservation is forced
/// through over budget (progress guarantee; see `CacheStatsSnapshot::forced`).
const EVICT_FORCE_ATTEMPTS: u32 = 128;

/// Most payload bytes one stripe's credit holds (see [`ValueArena::release`]);
/// a shard whose budget share is small holds less, see [`CREDIT_SHARE`].
const CREDIT_CAP: u64 = 8 * 1024;

/// A stripe's credit holds at most this fraction of the shard's budget
/// share, so the 9 stripes together strand at most 9/256 of it, and a share
/// under 512 bytes keeps no credit at all.
const CREDIT_SHARE: u64 = 256;

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

/// The expiry word of a TTL'd blob (deadline-free blobs have none). Same
/// safety contract as [`meta_cell`], for the handle's blob.
#[inline]
unsafe fn expire_cell<'a>(handle: u64) -> &'a AtomicU64 {
    debug_assert!(has_ttl(handle), "a deadline-free blob has no expiry word");
    // SAFETY: forwarded caller contract; the TTL flag says word 1 exists.
    unsafe { &*(blob_addr(handle).add(HEADER) as *const AtomicU64) }
}

/// Bytes from a blob's start to its payload: the header, plus the expiry
/// word when the handle carries the TTL flag.
#[inline]
fn payload_offset(handle: u64) -> usize {
    HEADER + 8 * (handle & TAG_TTL) as usize
}

/// The payload of the blob behind `handle`, and the meta word its length
/// came from: the one place a payload is found.
///
/// # Safety
///
/// As [`ValueArena::read_into`]: the blob is protected or owned, and the
/// slice must not outlive that.
#[inline]
unsafe fn payload<'a>(handle: u64) -> (&'a [u8], u64) {
    let ptr = blob_addr(handle);
    // SAFETY: forwarded caller contract; the payload is immutable after
    // publish, and `store` wrote `len` bytes of it at `payload_offset`.
    unsafe {
        let meta = meta_cell(ptr).load(Ordering::Relaxed);
        debug_assert_eq!(
            meta & META_TTL != 0,
            has_ttl(handle),
            "the handle's TTL flag and the blob's layout tag disagree"
        );
        let len = (meta & META_LEN_MASK) as usize;
        (std::slice::from_raw_parts(ptr.add(payload_offset(handle)), len), meta)
    }
}

/// Prefetches the line holding a blob's last payload byte (the header line
/// holds its first ones).
///
/// # Safety
///
/// As [`payload`].
#[inline]
unsafe fn prefetch_payload_end(handle: u64) {
    // SAFETY: forwarded caller contract.
    let (bytes, _) = unsafe { payload(handle) };
    // The last payload byte, or the header's last word when the payload is
    // empty; a prefetch never faults, so the address needs no more care.
    prefetch(bytes.as_ptr().wrapping_add(bytes.len()).wrapping_sub(1));
}

/// The payload length of the blob behind `handle` and the layout it was
/// allocated with.
///
/// # Safety
///
/// As [`payload`].
#[inline]
unsafe fn extent(handle: u64) -> (usize, Layout) {
    // SAFETY: forwarded caller contract.
    let len = unsafe { payload(handle) }.0.len();
    (len, blob_layout(len, has_ttl(handle)))
}

/// The allocation layout backing a blob of `len` payload bytes, with an
/// expiry word if `ttl`. Must be a pure function of the two: `store`,
/// `retire` and teardown all derive it (the length from the meta word, the
/// flag from the handle), and the layouts have to match for the allocator.
fn blob_layout(len: usize, ttl: bool) -> Layout {
    let exact = HEADER + 8 * usize::from(ttl) + len;
    let class = if exact <= SMALL_BLOB_MAX { ALIGN } else { SIZE_CLASS };
    let size = exact.div_ceil(class) * class;
    Layout::from_size_align(size, ALIGN).expect("valid blob layout")
}

/// The budget state of one arena every thread shares: the reservation
/// gauge and the CLOCK hand (`Relaxed`, as everywhere else in this crate).
/// `live_now` is written only under a byte budget, and only when a
/// stripe's credit runs short or overflows (module docs, "Budget
/// enforcement"); the hand only when a reservation evicts.
#[derive(Debug, Default)]
struct CacheCounters {
    /// Bytes reserved against the budget: live payload bytes plus every
    /// stripe's credit.
    live_now: AtomicU64,
    /// CLOCK hand: the key the next victim walk starts from.
    hand: AtomicU64,
    /// Victims the hand has chosen since it last wrapped.
    lap_victims: AtomicU64,
}

/// The TTL state of one arena, on a line of its own: every `set` reads
/// `live` (the sweep is skipped while it is zero), and only values stored
/// with a deadline write it.
#[derive(Debug, Default)]
struct TtlCounters {
    /// Values with an expiry word, stored and not yet retired.
    live: AtomicU64,
    /// TTL-sweep cursor: the key the next sweep step starts from.
    sweep: AtomicU64,
    sweep_tick: AtomicU64,
}

/// One stripe's block of an arena's bookkeeping (see [`Striped`]): the
/// counters a store, a retire or a reclaim writes. A blob one stripe
/// stores another may retire, so a single stripe's gauges may wrap below
/// zero; only their sums mean anything ([`ValueArena::stats`]).
#[derive(Debug, Default)]
struct ArenaStripe {
    /// Blobs this stripe stored minus the blobs it retired.
    blobs: AtomicU64,
    /// Under a budget, bytes reserved on `live_now` that no blob holds yet
    /// (never below zero). Without one, the bytes this stripe retired minus
    /// the bytes it reserved.
    credit: AtomicU64,
    evictions: AtomicU64,
    expired_lazy: AtomicU64,
    expired_swept: AtomicU64,
    forced: AtomicU64,
}

/// What the arenas hold right now (one arena's, or a sum over arenas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStatsSnapshot {
    blobs: u64,
    bytes: u64,
}

impl ArenaStatsSnapshot {
    /// Blobs currently live: the live-blob gauges summed.
    pub fn live_blobs(&self) -> u64 {
        self.blobs
    }

    /// Payload bytes currently live: the reservation gauge minus the
    /// stripes' credit (module docs, "Budget enforcement").
    pub fn live_bytes(&self) -> u64 {
        self.bytes
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
/// Budget *policy* (reservation loops, eviction, the walks over the index)
/// lives in [`BlobMap`]; the arena only carries the mechanism (the gauges,
/// the credits, the walk cursors, the clock).
#[derive(Debug)]
struct ValueArena {
    cache: CachePadded<CacheCounters>,
    ttl: CachePadded<TtlCounters>,
    stripes: Striped<ArenaStripe>,
    /// This shard's payload-byte budget (`None` = unbounded).
    budget: Option<u64>,
    /// Most bytes a stripe's credit holds: [`CREDIT_CAP`], or less for a
    /// small budget share ([`CREDIT_SHARE`]). A refill tops a credit up by
    /// half of it, and an overflowing release hands back all but half.
    cap: u64,
    /// The clock expiry deadlines are measured against.
    clock: Arc<dyn MsClock>,
}

thread_local! {
    /// The generation tag of the next handle this thread stores. Threads
    /// start far apart (a golden-ratio stride over the 16 bits), so two
    /// threads storing at the same pace do not hand out the same tags.
    static GENERATION: Cell<u64> = Cell::new({
        static THREADS: AtomicU64 = AtomicU64::new(0);
        THREADS.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
    });
}

impl ValueArena {
    /// An empty arena with a byte budget (`None` = unbounded) and a clock.
    fn new(budget: Option<u64>, clock: Arc<dyn MsClock>) -> Self {
        ValueArena {
            cache: CachePadded::default(),
            ttl: CachePadded::default(),
            stripes: Striped::default(),
            budget,
            // Even, so that a refill is exactly half of it.
            cap: budget.map_or(0, |b| (b / CREDIT_SHARE).min(CREDIT_CAP) & !1),
            clock,
        }
    }

    /// Milliseconds on this arena's clock.
    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Copies `value` into a fresh header-prefixed blob and returns its
    /// tagged handle. The payload is immutable from here on (readers rely
    /// on it); a nonzero `expire_at_ms` gives the blob an expiry word
    /// holding it and the handle its TTL flag. The caller has reserved
    /// `value.len()` bytes (see [`BlobMap`]'s reservation path).
    fn store(&self, value: &[u8], expire_at_ms: u64) -> u64 {
        let ttl = expire_at_ms != 0;
        let ptr = ssmem::alloc_raw(blob_layout(value.len(), ttl));
        debug_assert_eq!(
            ptr as u64 & !ADDR_MASK,
            0,
            "blob pointers must fit the 48-bit/8-aligned tag layout"
        );
        let generation = GENERATION.with(|g| g.replace(g.get().wrapping_add(1)));
        let mut handle = (ptr as u64) | ((generation << 48) & TAG_GEN_MASK);
        let mut meta = value.len() as u64;
        if ttl {
            handle |= TAG_TTL;
            meta |= META_TTL;
            self.ttl.live.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` is a fresh (or recycled past its grace period)
        // allocation of `blob_layout(len, ttl)`, which holds the header, the
        // expiry word if `ttl` and the payload; nothing else references it
        // until we publish the handle. The reference bit starts clear —
        // only an actual read earns survival, so a churn stream of
        // never-read inserts evicts itself instead of lapping the hand over
        // (and past) the genuinely hot entries.
        unsafe {
            meta_cell(ptr).store(meta, Ordering::Relaxed);
            if ttl {
                expire_cell(handle).store(expire_at_ms, Ordering::Relaxed);
            }
            ptr.add(payload_offset(handle)).copy_from_nonoverlapping(value.as_ptr(), value.len());
        }
        self.stripes.add(|s| &s.blobs, 1);
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
        // SAFETY: the guard (caller contract) keeps the blob from being
        // reclaimed; payloads are immutable after publish, so the length
        // and payload reads race with nothing.
        out.extend_from_slice(unsafe { payload(handle) }.0);
    }

    /// [`read_into`](Self::read_into) for point reads: additionally sets
    /// the CLOCK reference bit — one relaxed bit-set in the header word
    /// the length load already pulled in, and only when a budget makes
    /// eviction live and the bit isn't already set. Same safety contract.
    unsafe fn read_into_marked(&self, handle: u64, out: &mut Vec<u8>) {
        // SAFETY: as `read_into`; the bit-set is atomic and races only
        // with other bit ops on the same word.
        unsafe {
            let (bytes, meta) = payload(handle);
            out.extend_from_slice(bytes);
            if self.budget.is_some() && meta & META_REF == 0 {
                meta_cell(blob_addr(handle)).fetch_or(META_REF, Ordering::Relaxed);
            }
        }
    }

    /// The deadline of a TTL'd blob (0 = none since PERSIST). Same safety
    /// contract as [`read_into`](Self::read_into).
    unsafe fn expire_of(&self, handle: u64) -> u64 {
        // SAFETY: forwarded caller contract.
        unsafe { expire_cell(handle).load(Ordering::Relaxed) }
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

    /// Rewrites a TTL'd blob's expiry deadline (EXPIRE/PERSIST). Same
    /// safety contract as [`read_into`](Self::read_into).
    unsafe fn set_expire(&self, handle: u64, deadline_ms: u64) {
        // SAFETY: forwarded caller contract; the word is atomic, payloads
        // stay immutable.
        unsafe { expire_cell(handle).store(deadline_ms, Ordering::Relaxed) };
    }

    /// Reserves `len` payload bytes unconditionally (unbounded arenas, or
    /// a forced over-budget admission).
    fn add_live(&self, len: u64) {
        if self.budget.is_some() {
            self.cache.live_now.fetch_add(len, Ordering::Relaxed);
        } else {
            self.stripes.add(|s| &s.credit, len.wrapping_neg());
        }
    }

    /// Tries to reserve `len` payload bytes under the budget; `false`
    /// means the caller must evict (or force) first. With no budget the
    /// reservation always succeeds. The bytes come from the calling
    /// stripe's credit when it holds them; only when it runs short does
    /// this CAS on the shared gauge, taking `len` plus a refill of half the
    /// cap if both fit (module docs, "Budget enforcement").
    fn try_reserve(&self, len: u64) -> bool {
        let Some(budget) = self.budget else {
            self.add_live(len);
            return true;
        };
        if self.stripes.take(|s| &s.credit, len) {
            return true;
        }
        let mut cur = self.cache.live_now.load(Ordering::Relaxed);
        loop {
            let need = cur.saturating_add(len);
            if need > budget {
                return false;
            }
            let refill = if need.saturating_add(self.cap / 2) <= budget { self.cap / 2 } else { 0 };
            match self.cache.live_now.compare_exchange_weak(
                cur,
                need + refill,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if refill > 0 {
                        self.stripes.add(|s| &s.credit, refill);
                    }
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases `len` retired payload bytes into the calling stripe's
    /// credit. Under a budget, a credit above the cap hands all but half
    /// the cap back to the shared gauge, so the next stores find credit
    /// and other threads find room.
    fn release(&self, len: u64) {
        let held = self.stripes.add(|s| &s.credit, len);
        if self.budget.is_none() || held <= self.cap {
            return;
        }
        let excess = held - self.cap / 2;
        // On the shared overflow stripe a concurrent reservation may have
        // taken some of it; the next release over the cap tries again.
        if self.stripes.take(|s| &s.credit, excess) {
            self.cache.live_now.fetch_sub(excess, Ordering::Relaxed);
        }
    }

    /// Retires a blob: its memory returns to the ssmem pool once every
    /// operation concurrent with this call has finished, and its bytes
    /// go back to the calling stripe's credit.
    ///
    /// # Safety
    ///
    /// `handle` must come from [`store`](Self::store) on this arena, must
    /// already be unlinked from every shared index, and must not be retired
    /// twice.
    unsafe fn retire(&self, handle: u64) {
        // SAFETY: the handle is unlinked (caller contract), so this thread
        // owns the right to read its header and retire it.
        let (len, layout) = unsafe { extent(handle) };
        if cfg!(debug_assertions) {
            // SAFETY: as above; the bit-set races only with reference-bit
            // ops on the same word.
            let meta =
                unsafe { meta_cell(blob_addr(handle)) }.fetch_or(META_RETIRED, Ordering::Relaxed);
            debug_assert_eq!(meta & META_RETIRED, 0, "blob retired twice");
        }
        self.stripes.add(|s| &s.blobs, 1u64.wrapping_neg());
        self.release(len as u64);
        if has_ttl(handle) {
            let ttl = self.ttl.live.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(ttl > 0, "TTL gauge underflow");
        }
        // SAFETY: unlinked and never retired before (caller contract);
        // `extent` derived the layout the store allocated.
        unsafe { ssmem::retire_raw(blob_addr(handle), layout) };
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

    /// What this arena holds right now: the stripes' blob gauges summed,
    /// and the reservation gauge minus the stripes' credit. Exact whenever
    /// no store or retire is in flight. A read racing them may be torn — a
    /// retire counted on a stripe read before the store it undoes was
    /// counted on one read after — and reads as zero rather than below it.
    /// A sum below zero that a second read repeats is an underflow, which
    /// debug builds report.
    fn stats(&self) -> ArenaStatsSnapshot {
        let read = || {
            let blobs = self.stripes.sum(|s| &s.blobs);
            let credit = self.stripes.sum(|s| &s.credit);
            (blobs as i64, self.cache.live_now.load(Ordering::Relaxed).wrapping_sub(credit) as i64)
        };
        let (blobs, bytes) = read();
        if cfg!(debug_assertions) && (blobs < 0 || bytes < 0) {
            let repeated = read() == (blobs, bytes);
            debug_assert!(!repeated || blobs >= 0, "live-blob gauge underflow");
            debug_assert!(
                !repeated || bytes >= 0,
                "live-byte gauge underflow (a store without a reservation)"
            );
        }
        ArenaStatsSnapshot { blobs: blobs.max(0) as u64, bytes: bytes.max(0) as u64 }
    }

    /// [`stats`](Self::stats)' blob count alone, as the walks size their
    /// laps by it: eight loads, not seventeen.
    fn live_blobs(&self) -> u64 {
        (self.stripes.sum(|s| &s.blobs) as i64).max(0) as u64
    }

    /// A copy of the arena's cache-tier counters.
    fn cache_stats(&self) -> CacheStatsSnapshot {
        let s = &self.stripes;
        CacheStatsSnapshot {
            budget_bytes: self.budget.unwrap_or(0),
            live_bytes: self.stats().bytes,
            evictions: s.sum(|s| &s.evictions),
            expired_lazy: s.sum(|s| &s.expired_lazy),
            expired_swept: s.sum(|s| &s.expired_swept),
            forced: s.sum(|s| &s.forced),
            ttl_live: self.ttl.live.load(Ordering::Relaxed),
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
    /// Scratch for `multi_get_into`: the keys the front left to the backing.
    static REST_SCRATCH: RefCell<Rest> =
        const { RefCell::new(Rest { keys: Vec::new(), slots: Vec::new() }) };
    /// Scratch `(key, handle)` buffer for the index walks, so an eviction
    /// allocates nothing.
    static WALK_SCRATCH: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
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

/// Variable-length byte values over a [`ShardedMap`] of an ordered
/// backing: the map stores arena handles, per-shard arenas store payloads,
/// and every read copies out under an epoch guard. With a [`CacheConfig`],
/// the map is a **bounded cache**: byte budgets enforced by CLOCK eviction
/// on the SET path, TTLs expired lazily on read plus an incremental sweep
/// (see the module docs).
///
/// `get`/`multi_get`/`scan` have **copy-out** semantics (the caller's
/// buffer is cleared and refilled), and `set` **overwrites** (unlike the
/// raw structures' insert-if-absent — the displaced blob is retired). The
/// backing is ordered so that range scans, CLOCK, the sweep and teardown
/// can all walk its keys.
pub struct BlobMap<M: OrderedMap + ReplaceMap> {
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

impl<M: OrderedMap + ReplaceMap> BlobMap<M> {
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
    /// writes apply write-through under the key's front-slot word.
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

    /// The fronted keys with their estimates, hottest first (empty
    /// without an engine; see [`HotKeyEngine::hot_keys`]).
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
        let lease = match self.read_front(key, out) {
            Ok(found) => return found,
            Err(lease) => lease,
        };
        let found = self.get_backing(key, out);
        self.fill_front(lease, found.map(|ttl| (out.as_slice(), ttl)));
        found.is_some()
    }

    /// The front cache's part of every read of `key`: feeds the sampler
    /// and probes the front, appending a fronted value to `out`. `Ok` is
    /// the front's answer (found or known absent); `Err` leaves the read
    /// to the backing, with the fill lease its answer is offered back
    /// under ([`fill_front`](Self::fill_front)) if the front holds one.
    /// Front-answered reads skip the shard-stats adds (that's the point of
    /// the front path); `total_stats` folds the engine's own hit/absent
    /// counters back in.
    #[inline]
    fn read_front(&self, key: u64, out: &mut Vec<u8>) -> Result<bool, Option<FillTicket>> {
        let Some(hot) = &self.hot else { return Err(None) };
        hot.record_access(key);
        match hot.read(key, out) {
            FrontRead::Hit => Ok(true),
            FrontRead::Absent => Ok(false),
            FrontRead::Pending(ticket) => Err(Some(ticket)),
            FrontRead::Miss => Err(None),
        }
    }

    /// Offers the backing's answer to a read back to the front slot its
    /// lease was taken on: `found` is the value and whether it carries a
    /// TTL.
    #[inline]
    fn fill_front(&self, lease: Option<FillTicket>, found: Option<(&[u8], bool)>) {
        if let (Some(hot), Some(ticket)) = (&self.hot, lease) {
            hot.fill(&ticket, found);
        }
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
    /// Writes to a fronted key publish under the key's front-slot word and
    /// refresh the front-cache copy before it is freed
    /// ([`HotKeyEngine::write`]); a TTL-stamped value is never
    /// front-cached.
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
        // Store the blob before any front-slot word is taken (arena stores
        // are uncontended); only the index publish runs under it.
        let handle = arena.store(value, expire_at);
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
            arena.stripes.add(|s| &s.expired_lazy, 1);
        }
        live
    }

    /// The one write routing of [`set`](Self::set), [`del`](Self::del) and
    /// [`expire`](Self::expire)'s swap: `apply` performs the write on the
    /// index, `value` is what it writes (`None`: a delete) and `expire_at`
    /// its deadline (0 = none). The access is sampled, and the write goes
    /// through the engine's one entry point ([`HotKeyEngine::write`]).
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
        hot.write(key, value, expire_at != 0, apply)
    }

    // -- expiry verbs ------------------------------------------------------

    /// Sets the expiry deadline of a live key to `ttl_ms` from now;
    /// `true` if the key was present and alive. A `ttl_ms` of 0 expires
    /// the value immediately (the next read or sweep reclaims it). A value
    /// stored with a deadline gets the new one in place. One stored without
    /// has no expiry word, so it is copied into a TTL'd blob that is
    /// swapped in for it only while it is still the key's value; the key
    /// never reads as absent meanwhile. Racing a concurrent overwrite of
    /// the same key resolves in an arbitrary order (module docs).
    pub fn expire(&self, key: u64, ttl_ms: u64) -> bool {
        let deadline = self.arena_of(key).now_ms().saturating_add(ttl_ms).max(1);
        loop {
            let copied = self.lookup(key, |arena, h| {
                if has_ttl(h) {
                    // SAFETY: under `lookup`'s guard; the expiry word is
                    // atomic.
                    unsafe { arena.set_expire(h, deadline) };
                    return None;
                }
                // SAFETY: under `lookup`'s guard, which outlives the copy.
                let (value, _) = unsafe { payload(h) };
                // EXPIRE evicts nothing: the copy's bytes are reserved
                // unconditionally, and released with whichever blob loses.
                arena.add_live(value.len() as u64);
                Some((h, arena.store(value, deadline)))
            });
            match copied {
                None => return false,
                Some(None) => return true,
                Some(Some((h, copy))) => {
                    if let Some(present) = self.swap_in_copy(key, h, copy, deadline) {
                        return present;
                    }
                }
            }
        }
    }

    /// Publishes `copy`, the TTL'd re-store of the deadline-free `h`, in
    /// place of `h` if `h` is still `key`'s value, and retires the blob that
    /// lost. `Some(true)`: the copy went in. `Some(false)`: the key is gone.
    /// `None`: another write replaced `h` first, and the caller looks
    /// again. The swap goes through [`write`](Self::write) with the copy's
    /// `deadline`, so a front copy from `h`'s deadline-free life is gone
    /// before `h` is retired, and the TTL'd copy is never front-cached.
    fn swap_in_copy(&self, key: u64, h: u64, copy: u64, deadline: u64) -> Option<bool> {
        let mut swapped = Err(None);
        self.write(key, None, deadline, || {
            swapped = self.map.compare_replace(key, h, copy);
            swapped.is_ok()
        });
        let arena = self.arena_of(key);
        match swapped {
            Ok(()) => {
                // SAFETY: the swap unlinked `h` and handed it to this
                // thread alone.
                unsafe { arena.retire(h) };
                Some(true)
            }
            Err(current) => {
                // SAFETY: `copy` was never published, so no other thread
                // can unlink or retire it.
                unsafe { arena.retire(copy) };
                current.is_none().then_some(false)
            }
        }
    }

    /// Clears the expiry deadline of a live key; `true` if the key was
    /// present and alive (with or without a deadline to clear).
    pub fn persist(&self, key: u64) -> bool {
        self.lookup(key, |arena, h| {
            // A TTL'd blob keeps its expiry word and the handle its flag (a
            // re-store would buy back only 8 bytes); a zero expiry word
            // reads as "no deadline".
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
            let victim = self.clock_victim(shard);
            if victim.is_some_and(|(key, h)| self.reclaim(key, h, Reclaim::Evicted)) {
                fruitless = 0;
                continue;
            }
            fruitless += 1;
            if fruitless >= EVICT_FORCE_ATTEMPTS {
                arena.add_live(len);
                arena.stripes.add(|s| &s.forced, 1);
                return;
            }
        }
    }

    /// The piggybacked TTL sweep: every [`SWEEP_EVERY`]th `set` on a shard
    /// walks [`SWEEP_BATCH`] index entries from the sweep cursor and
    /// reclaims the expired ones. Free when no value carries a deadline.
    fn maybe_sweep(&self, shard: usize) {
        let arena = &self.arenas[shard];
        if arena.ttl.live.load(Ordering::Relaxed) == 0 {
            return;
        }
        if arena.ttl.sweep_tick.fetch_add(1, Ordering::Relaxed) % SWEEP_EVERY != 0 {
            return;
        }
        // At most one lap, so no value is collected twice.
        let batch = SWEEP_BATCH.min(arena.live_blobs() as usize);
        let mut expired: Vec<(u64, u64)> = Vec::with_capacity(batch);
        self.walk(shard, &arena.ttl.sweep, batch, |key, handle| {
            // SAFETY: the walk's guard predates the fetch of `handle`.
            if unsafe { arena.is_expired(handle) } {
                expired.push((key, handle));
            }
            true
        });
        for (key, handle) in expired {
            self.reclaim(key, handle, Reclaim::Swept);
        }
    }

    /// CLOCK victim selection on `shard`: walks the index from the hand,
    /// clears the reference bits (and front-slot marks) it finds set, and
    /// returns the first unreferenced `(key, handle)` — forcing the next one
    /// after two laps' worth of entries, so concurrent re-referencing cannot
    /// starve the evictor. `None` if the shard holds nothing. A hand whose lap has
    /// chosen two victims per value held wraps early (module docs).
    fn clock_victim(&self, shard: usize) -> Option<(u64, u64)> {
        let arena = &self.arenas[shard];
        let c = &arena.cache;
        let laps = 2 * arena.live_blobs() as usize;
        if c.lap_victims.load(Ordering::Relaxed) >= laps as u64 {
            c.hand.store(KEY_MIN, Ordering::Relaxed);
            c.lap_victims.store(0, Ordering::Relaxed);
        }
        let (mut seen, mut victim) = (0, None);
        let wrapped = self.walk(shard, &c.hand, laps + 1, |key, handle| {
            // SAFETY: the walk's guard predates the fetch of `handle`.
            let meta = unsafe { meta_cell(blob_addr(handle)) };
            seen += 1;
            if seen <= laps {
                // A front hit leaves the blob untouched and marks the slot.
                let front = self.hot.as_deref().is_some_and(|hot| hot.take_referenced(key));
                let referenced = meta.load(Ordering::Relaxed) & META_REF != 0;
                if referenced {
                    meta.fetch_and(!META_REF, Ordering::Relaxed);
                }
                if referenced || front {
                    return true;
                }
            }
            victim = Some((key, handle));
            false
        });
        if wrapped {
            c.lap_victims.store(0, Ordering::Relaxed);
        }
        if victim.is_some() {
            c.lap_victims.fetch_add(1, Ordering::Relaxed);
        }
        victim
    }

    /// The one walk over a shard's index, behind CLOCK, the TTL sweep and
    /// teardown: hands `visit` the `(key, handle)` pairs in key order from
    /// `cursor`, wrapping to [`KEY_MIN`] at the end of the list, until
    /// `visit` returns `false`, `limit` pairs have been visited or the
    /// shard turns out empty; then leaves `cursor` just past the last pair
    /// visited, and answers whether the walk passed the end of the list.
    /// One epoch guard, taken before the first fetch, covers the walk (the
    /// contract [`scan_bounded`](Self::scan_bounded) keeps), so `visit` may
    /// dereference every handle it is given; it must not start another
    /// walk.
    fn walk(
        &self,
        shard: usize,
        cursor: &AtomicU64,
        limit: usize,
        mut visit: impl FnMut(u64, u64) -> bool,
    ) -> bool {
        let index = self.map.shard(shard);
        let mut from = cursor.load(Ordering::Relaxed).clamp(KEY_MIN, KEY_MAX);
        let (mut left, mut wrapped) = (limit, false);
        let _guard = ssmem::protect();
        WALK_SCRATCH.with(|scratch| {
            let buf = &mut *scratch.borrow_mut();
            while left > 0 {
                let want = WALK_CHUNK.min(left);
                buf.clear();
                let got = index.scan_into(from, want, buf);
                if got == 0 && from == KEY_MIN {
                    return;
                }
                for &(key, handle) in buf.iter() {
                    left -= 1;
                    from = if key < KEY_MAX { key + 1 } else { KEY_MIN };
                    wrapped |= from == KEY_MIN;
                    if !visit(key, handle) {
                        return;
                    }
                }
                if got < want {
                    // The end of the list: the lap goes on from the start.
                    (from, wrapped) = (KEY_MIN, true);
                }
            }
        });
        cursor.store(from, Ordering::Relaxed);
        wrapped
    }

    /// Removes and retires the binding `key → handle` — an expired value or
    /// a CLOCK victim, as `why` says — if `key` still holds `handle`, and
    /// counts it under `why`. When an overwrite got there first (the
    /// generation tag tells a recycled pointer apart), the
    /// conditional remove fails and the fresher value stays. Nothing here
    /// dereferences the stale `handle` unless the remove handed it to this
    /// thread. `true` if a blob was retired.
    fn reclaim(&self, key: u64, handle: u64, why: Reclaim) -> bool {
        // Not sampled: the cache tier's removes are not accesses.
        let remove = || self.map.remove_if(key, handle).is_ok();
        let removed = match &self.hot {
            Some(hot) => hot.write(key, None, false, remove),
            None => remove(),
        };
        if !removed {
            return false;
        }
        let arena = self.arena_of(key);
        // SAFETY: unlinked by our remove, returned only to us.
        unsafe { arena.retire(handle) };
        arena.stripes.add(
            |s| match why {
                Reclaim::Lazy => &s.expired_lazy,
                Reclaim::Swept => &s.expired_swept,
                Reclaim::Evicted => &s.evictions,
            },
            1,
        );
        true
    }

    // -- batched ops -------------------------------------------------------

    /// Batched lookup with copy-out: refills `out` with per-key answers in
    /// input order. Keys the front cache answers (see `get`) are answered
    /// from their copies; the rest take the batched backing path (one
    /// epoch guard).
    pub fn multi_get_into(&self, keys: &[u64], out: &mut BatchValues) {
        out.clear();
        REST_SCRATCH.with(|scratch| {
            let rest = &mut *scratch.borrow_mut();
            rest.keys.clear();
            rest.slots.clear();
            for (i, &key) in keys.iter().enumerate() {
                let start = out.bytes.len();
                match self.read_front(key, &mut out.bytes) {
                    Ok(found) => out.spans.push(found.then_some((start, out.bytes.len()))),
                    Err(lease) => {
                        out.spans.push(None);
                        rest.keys.push(key);
                        rest.slots.push((i, lease));
                    }
                }
            }
            if rest.keys.is_empty() {
                return;
            }
            let (slots, spans) = (&rest.slots, &mut out.spans);
            self.resolve_batch(&rest.keys, &mut out.bytes, |j, found| {
                let (pos, lease) = slots[j];
                self.fill_front(lease, found.map(|(_, value, ttl)| (value, ttl)));
                spans[pos] = found.map(|(span, ..)| span);
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

impl<M: OrderedMap + ReplaceMap> Drop for BlobMap<M> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent operations, so every value in the index
        // is a live blob no thread can reach any more; retired ones are
        // owned by the epoch collector.
        for (shard, arena) in self.arenas.iter().enumerate() {
            let (start, mut last) = (AtomicU64::new(KEY_MIN), 0);
            let mut freed = ArenaStatsSnapshot::default();
            self.walk(shard, &start, usize::MAX, |key, handle| {
                // The walk wrapped: every key was visited.
                if key <= last {
                    return false;
                }
                last = key;
                // SAFETY: a live blob, unreachable by any other thread.
                unsafe {
                    let (len, layout) = extent(handle);
                    freed.blobs += 1;
                    freed.bytes += len as u64;
                    ssmem::dealloc_raw_immediate(blob_addr(handle), layout);
                }
                true
            });
            // No operation is in flight, so the gauges' sums are exact. A
            // map dropped by a panic's unwinding is not checked: a second
            // panic would abort before the first one is reported.
            if cfg!(debug_assertions) && !std::thread::panicking() {
                let live = arena.stats();
                assert_eq!(freed.blobs, live.blobs, "a live blob is not the value of any key");
                assert_eq!(freed.bytes, live.bytes, "the live-byte gauge drifted");
            }
        }
    }
}

impl<M: OrderedMap + ReplaceMap> std::fmt::Debug for BlobMap<M> {
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
    use ascylib::skiplist::FraserOptSkipList;

    fn blob_map() -> BlobMap<FraserOptSkipList> {
        BlobMap::new(4, |_| FraserOptSkipList::new())
    }

    /// Stores into a bare arena the way `BlobMap::set` does: reserve, then
    /// store.
    fn reserve_and_store(arena: &ValueArena, value: &[u8], expire_at_ms: u64) -> u64 {
        assert!(arena.try_reserve(value.len() as u64));
        arena.store(value, expire_at_ms)
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
    fn blob_layout_rounds_to_8_in_the_arena_and_to_64_above() {
        // (payload, deadline-free size, TTL'd size)
        let table = [
            (0, 8, 16),
            (1, 16, 24),
            (64, 72, 80),
            (256, 264, 272),
            (488, 496, 504),
            (496, 504, 512),
            (497, 512, 576),
            (504, 512, 576),
            (505, 576, 576),
            (561, 576, 640),
            (4096, 4160, 4160),
        ];
        for (len, plain, ttl) in table {
            assert_eq!(blob_layout(len, false).size(), plain, "payload of {len} bytes");
            assert_eq!(blob_layout(len, true).size(), ttl, "TTL'd payload of {len} bytes");
        }
        for ttl in [false, true] {
            let header = HEADER + 8 * usize::from(ttl);
            let mut classes = std::collections::BTreeSet::new();
            let mut previous = 0;
            for len in 0..=4096 {
                let layout = blob_layout(len, ttl);
                let exact = header + len;
                assert_eq!(layout.align(), ALIGN);
                assert!(layout.size() >= exact, "a {len}-byte payload does not fit");
                let step = if exact <= SMALL_BLOB_MAX { ALIGN } else { SIZE_CLASS };
                assert!(layout.size() < exact + step, "payload {len} over-rounded");
                assert!(layout.size() >= previous, "not monotone at {len}");
                previous = layout.size();
                classes.insert(layout.size());
            }
            // One class per 8 bytes up to 512, then one per 64: bounded.
            let fine = (SMALL_BLOB_MAX - header) / ALIGN + 1;
            assert_eq!(classes.len(), fine + (4160 - SMALL_BLOB_MAX) / SIZE_CLASS, "ttl {ttl}");
        }
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
    fn clock_laps_every_live_key_once_across_the_wrap() {
        const KEYS: u64 = 97;
        let map = BlobMap::with_config(
            1,
            HotKeyConfig::default(),
            CacheConfig::unbounded().with_budget(1 << 20),
            |_| FraserOptSkipList::new(),
        );
        for k in 1..=KEYS {
            map.set(k * 3, &k.to_le_bytes());
        }
        // Reference bits start clear, so each call returns the entry under
        // the hand and moves it on. Start mid-list, so the lap wraps.
        map.arenas[0].cache.hand.store(48 * 3 + 1, Ordering::Relaxed);
        let mut visited: Vec<u64> =
            (0..KEYS).map(|_| map.clock_victim(0).expect("non-empty").0).collect();
        assert_eq!(visited[0], 49 * 3, "the lap starts at the hand");
        visited.sort_unstable();
        assert_eq!(visited, (1..=KEYS).map(|k| k * 3).collect::<Vec<_>>());
        // With every bit set, the first lap clears them all and the two-lap
        // rule still ends the walk with a victim.
        for k in 1..=KEYS {
            assert!(map.get_owned(k * 3).is_some());
        }
        assert!(map.clock_victim(0).is_some());
        let marked = (1..=KEYS)
            .filter(|k| {
                let handle = map.map.search(k * 3).expect("present");
                // SAFETY: nothing retires blobs while this test runs.
                unsafe { meta_cell(blob_addr(handle)).load(Ordering::Relaxed) & META_REF != 0 }
            })
            .count();
        assert_eq!(marked, 0, "a lap left reference bits set");
        // An empty shard has no victim.
        for k in 1..=KEYS {
            assert!(map.del(k * 3));
        }
        assert_eq!(map.clock_victim(0), None);
    }

    // -- cache tier --------------------------------------------------------

    #[test]
    fn handles_carry_tags_and_reads_mask_them() {
        let arena = ValueArena::new(None, Arc::new(WallClock));
        let h1 = reserve_and_store(&arena, b"alpha", 0);
        let h2 = reserve_and_store(&arena, b"beta", 1234);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blob retired twice")]
    fn retiring_a_handle_twice_panics_in_debug_builds() {
        let arena = ValueArena::new(None, Arc::new(WallClock));
        let handle = reserve_and_store(&arena, b"once", 0);
        // SAFETY: deliberately broken — the second retire is the bug the
        // check exists for, caught before the blob is handed back twice.
        unsafe {
            arena.retire(handle);
            arena.retire(handle);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live-byte gauge underflow")]
    fn retiring_bytes_never_reserved_panics_in_debug_builds() {
        let arena = ValueArena::new(None, Arc::new(WallClock));
        // Deliberately broken: a store without a reservation.
        let handle = arena.store(b"unreserved", 0);
        // SAFETY: owned by this test, retired once.
        unsafe { arena.retire(handle) };
        arena.stats();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live-byte gauge underflow")]
    fn a_budgeted_retire_of_bytes_never_reserved_panics_in_debug_builds() {
        let arena = ValueArena::new(Some(1 << 20), Arc::new(WallClock));
        let handle = arena.store(b"unreserved", 0);
        // SAFETY: owned by this test, retired once.
        unsafe { arena.retire(handle) };
        arena.cache_stats();
    }

    #[test]
    fn budgeted_reservations_touch_the_shared_gauge_only_when_credit_runs_short() {
        let gauge = |a: &ValueArena| a.cache.live_now.load(Ordering::Relaxed);
        // A 1 MiB share: the cap is 4 KiB (1/256 of it), a refill 2 KiB.
        let arena = ValueArena::new(Some(1 << 20), Arc::new(WallClock));
        assert_eq!(arena.cap, 4096);
        let first = reserve_and_store(&arena, &[7; 100], 0);
        assert_eq!(gauge(&arena), 100 + 2048, "a short credit takes the value plus a refill");
        let handles: Vec<u64> = (0..20).map(|_| reserve_and_store(&arena, &[7; 100], 0)).collect();
        assert_eq!(gauge(&arena), 2148, "twenty stores came out of the credit");
        assert_eq!(arena.stats(), ArenaStatsSnapshot { blobs: 21, bytes: 2100 });
        // SAFETY: every handle is owned by this test and retired once.
        unsafe {
            arena.retire(first);
            for h in handles {
                arena.retire(h);
            }
        }
        assert_eq!(gauge(&arena), 2148, "the retired bytes went back into the credit");
        assert_eq!(arena.stats(), ArenaStatsSnapshot::default());
        // Releases past the cap hand all but half of it back.
        let big = reserve_and_store(&arena, &[7; 8000], 0);
        // SAFETY: as above.
        unsafe { arena.retire(big) };
        assert_eq!(gauge(&arena), 2048);
        assert_eq!(arena.stats().live_bytes(), 0);
        // A budget the credit would not fit in: reservations stay exact.
        let full = ValueArena::new(Some(1 << 20), Arc::new(WallClock));
        let mut held = Vec::new();
        while full.try_reserve(1000) {
            held.push(full.store(&[1; 1000], 0));
        }
        assert!(gauge(&full) <= 1 << 20);
        assert_eq!(full.stats().live_bytes(), 1000 * held.len() as u64);
        assert!(held.len() as u64 >= ((1 << 20) - 4096) / 1000, "credit stranded more than a cap");
        // SAFETY: as above.
        for h in held {
            unsafe { full.retire(h) };
        }
        // A share under 512 bytes keeps no credit: the gauge is exact.
        let tiny = ValueArena::new(Some(300), Arc::new(WallClock));
        assert_eq!(tiny.cap, 0);
        let h = reserve_and_store(&tiny, &[1; 200], 0);
        assert_eq!(gauge(&tiny), 200);
        assert!(!tiny.try_reserve(200), "the budget still binds");
        // SAFETY: as above.
        unsafe { tiny.retire(h) };
        assert_eq!(gauge(&tiny), 0);
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
        // Re-store path: the value was stored without a deadline.
        map.set(1, b"v");
        assert_eq!(map.ttl_ms(1), Some(None));
        assert!(map.expire(1, 100));
        assert_eq!(map.ttl_ms(1), Some(Some(100)));
        assert_eq!(map.get_owned(1).unwrap(), b"v", "the copy carries the payload");
        let (blobs, c) = (map.total_arena_stats(), map.cache_stats());
        assert_eq!((blobs.live_blobs(), blobs.live_bytes(), c.ttl_live), (1, 1, 1));
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
        // CLOCK must lap the index repeatedly.
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

    // -- the lost-race branches, one interleaving each ----------------------

    #[test]
    fn reclaiming_a_replaced_handle_leaves_the_overwrite_in_place_uncounted() {
        for why in [Reclaim::Evicted, Reclaim::Lazy] {
            let map = BlobMap::with_hotkeys(1, HotKeyConfig::eager(8), |_| {
                FraserOptSkipList::new()
            });
            map.set(7, b"v1");
            let stale = map.map.search(7).expect("stored");
            assert!(!map.set(7, b"v2"), "overwrite");
            // An evictor or expiry reclaim that chose (7, v1) before the
            // overwrite removes nothing.
            assert!(!map.reclaim(7, stale, why), "{why:?}: nothing was retired");
            assert_eq!(map.get_owned(7).unwrap(), b"v2", "{why:?}");
            assert_eq!(map.total_arena_stats().live_blobs(), 1, "{why:?}");
            let c = map.cache_stats();
            assert_eq!((c.evictions, c.expired_lazy, c.expired_swept), (0, 0, 0), "{why:?}");
            // The current binding is reclaimed, and counted under `why`.
            let fresh = map.map.search(7).expect("left in place");
            assert!(map.reclaim(7, fresh, why), "{why:?}");
            assert_eq!(map.get_owned(7), None, "{why:?}: the front copy died with it");
            assert_eq!(map.total_arena_stats(), ArenaStatsSnapshot::default(), "{why:?}");
            let c = map.cache_stats();
            assert_eq!(c.evictions + c.expired_lazy, 1, "{why:?}");
            assert_eq!(c.evictions, u64::from(why == Reclaim::Evicted), "{why:?}");
        }
    }

    #[test]
    fn expire_copy_of_a_replaced_handle_is_freed_and_the_overwrite_left_untouched() {
        let (map, clock) = clocked_map(CacheConfig::unbounded());
        let deadline = clock.now_ms() + 100;
        let arena = &map.arenas[0];
        map.set(3, b"v1");
        let stale = map.map.search(3).expect("stored");
        // EXPIRE copied the deadline-free v1, then an overwrite landed
        // before its swap.
        let copy = reserve_and_store(arena, b"v1", deadline);
        assert!(!map.set(3, b"v2"), "overwrite");
        assert_eq!(map.swap_in_copy(3, stale, copy, deadline), None, "look again");
        assert_eq!(map.get_owned(3).unwrap(), b"v2");
        assert_eq!(map.ttl_ms(3), Some(None), "v2 keeps its own (absent) deadline");
        let (blobs, c) = (map.total_arena_stats(), map.cache_stats());
        assert_eq!((blobs.live_blobs(), blobs.live_bytes(), c.ttl_live), (1, 2, 0));
        // The current value is swapped for its copy.
        let current = map.map.search(3).expect("untouched");
        let copy = reserve_and_store(arena, b"v2", deadline);
        assert_eq!(map.swap_in_copy(3, current, copy, deadline), Some(true));
        assert_eq!(map.ttl_ms(3), Some(Some(100)));
        let (blobs, c) = (map.total_arena_stats(), map.cache_stats());
        assert_eq!((blobs.live_blobs(), blobs.live_bytes(), c.ttl_live), (1, 2, 1));
        // A key deleted before the swap stays deleted.
        assert!(map.del(3));
        let copy = reserve_and_store(arena, b"v2", deadline);
        assert_eq!(map.swap_in_copy(3, current, copy, deadline), Some(false));
        assert_eq!(map.get_owned(3), None);
        assert_eq!(map.total_arena_stats(), ArenaStatsSnapshot::default());
        assert_eq!(map.cache_stats().ttl_live, 0);
    }

    #[test]
    fn reclaiming_a_stale_handle_never_hides_the_key() {
        use std::sync::atomic::AtomicBool;
        const KEY: u64 = 7;
        const WRITES: u64 = 50_000;
        let map = BlobMap::new(1, |_| FraserOptSkipList::new());
        map.set(KEY, &0u64.to_le_bytes());
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut out = Vec::new();
                    start.wait();
                    // Relaxed: `done` publishes nothing, it only ends the loop.
                    while !done.load(Ordering::Relaxed) {
                        assert!(map.get(KEY, &mut out), "a key never deleted read as absent");
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                // An evictor that chose KEY's value, then lost it to an
                // overwrite before its reclaim ran.
                let stale = map.map.search(KEY).expect("stored");
                while map.map.search(KEY) == Some(stale) {
                    std::thread::yield_now();
                }
                while !done.load(Ordering::Relaxed) {
                    map.reclaim(KEY, stale, Reclaim::Evicted);
                }
            });
            start.wait();
            for v in 1..=WRITES {
                map.set(KEY, &v.to_le_bytes());
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(map.get_owned(KEY), Some(WRITES.to_le_bytes().to_vec()));
        assert_eq!(map.cache_stats().evictions, 0, "a stale reclaim evicted a fresher value");
    }
}
