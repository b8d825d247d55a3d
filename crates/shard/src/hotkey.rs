//! The hot-key engine: detection, front cache, and write delegation for
//! skewed traffic.
//!
//! Sharding removes *cross-key* contention, but under Zipfian skew a
//! handful of keys dominate the traffic and every core fights over the
//! same few cache lines — the exact phenomenon the paper's cache-miss
//! analysis attributes slowdowns to, and one no amount of sharding can
//! dilute (the hot key always routes to the same shard). This module
//! attacks *intra-key* contention in three parts:
//!
//! 1. **Detection** — a per-shard, cache-padded count-min sketch updated
//!    on a 1-in-N sample of operations (the hot path pays one thread-local
//!    tick per op and ~one sketch increment per sample) feeds a small
//!    top-k table (k ≤ 64) with periodic decay, exposed via
//!    [`HotKeyEngine::hot_keys`].
//! 2. **Front cache** — the top-k entries get seqlock-versioned value
//!    copies in a small read-mostly slot array consulted *before* the
//!    shard route on reads. A hit is a couple of shared (unbounced) cache
//!    line reads and a short copy; the epoch guard, index probe, and
//!    arena indirection of the backing path are all skipped.
//! 3. **Delegation** — writes to a fronted key are published into a
//!    per-shard flat-combining slot array; one combiner applies the batch
//!    against the backing structure while the others spin on their slot,
//!    collapsing N CAS storms on one key into a single owner pass.
//!
//! # Coherence contract
//!
//! A front-cache read **never returns a value older than the last
//! completed write** to that key. The protocol that guarantees it:
//!
//! * The backing structure is written *first*, always. The front cache is
//!   strictly a cache of the backing — a reader that bypasses it (scans,
//!   batched paths, `contains`) can never observe staleness.
//! * Writers that see the key fronted delegate through the combiner; the
//!   owner refreshes the slot *after* each backing apply, and per-key
//!   installs are serialized by the per-slot writer lock, so slot order
//!   matches backing order.
//! * A writer that raced a promotion (checked before the key was fronted,
//!   applied to the backing, then found the key fronted) **poisons** the
//!   slot: the cached copy is dropped and the slot's `version` bumps, so
//!   any in-flight fill or delegated install that predates the write
//!   fails its version check instead of installing a stale value.
//! * Reads of a fronted-but-empty (pending) slot fall through to the
//!   backing and then try to install what they read, guarded by the same
//!   version check (a lease, in memcache terms): the fill only lands if
//!   no write invalidated the slot since before the backing read.
//!
//! Values longer than [`FRONT_VALUE_CAP`] are never cached (their slot
//! stays pending and reads pass through); delegation still batches their
//! writes.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam_utils::CachePadded;

use crate::router::ShardRouter;

/// Largest payload a front-cache slot can hold, in bytes. Bigger values
/// pass through to the backing on every read (their writes still combine).
pub const FRONT_VALUE_CAP: usize = 256;

/// Hard ceiling on `k` (the front cache is a read-mostly *array*; past a
/// few dozen entries the probe itself would start missing in cache).
pub const MAX_K: usize = 64;

const FRONT_WORDS: usize = FRONT_VALUE_CAP / 8;

/// `len` sentinel: the slot fronts the key but holds no value copy
/// (readers fall through to the backing and may fill).
const LEN_PENDING: u32 = u32::MAX;
/// `len` sentinel: the key is known absent (cached negative lookup).
const LEN_ABSENT: u32 = u32::MAX - 1;

// 4 rows x 1024 columns x 4 B = 16 KiB per shard. Column count bounds
// detection depth: a key is only distinguishable from collision noise
// when its sample rate exceeds ~1/SKETCH_COLS of the stream, so 1024
// columns resolve the full MAX_K tail of a zipf(1.2) keyspace where 256
// would drown everything past rank ~30 in its own noise floor.
const SKETCH_ROWS: usize = 4;
const SKETCH_COLS: usize = 1024;

const COMBINE_SLOTS: usize = 4;
const SLOT_EMPTY: u32 = 0;
const SLOT_WRITING: u32 = 1;
const SLOT_PUBLISHED: u32 = 2;
const SLOT_DONE: u32 = 3;

const STRIPES: usize = 8;

/// Tuning knobs for [`HotKeyEngine`]. `k = 0` disables the engine
/// entirely ([`HotKeyEngine::new`] returns `None` and the blob map runs
/// its plain paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Maximum keys fronted at once (clamped to [`MAX_K`]; 0 disables).
    pub k: usize,
    /// Sample 1 op in this many for sketch updates (rounded up to a power
    /// of two; 1 samples everything — useful in tests).
    pub sample_every: u32,
    /// Halve sketch and top-k counts every this many *sampled* updates.
    pub decay_every: u64,
    /// Sketch estimate needed before a key is considered for promotion.
    pub promote_min: u32,
}

impl Default for HotKeyConfig {
    /// 16 fronted keys, 1-in-128 sampling, decay every 4096 samples,
    /// promote at an estimate of 16. The sampling rate keeps the
    /// detection cost on *cold* traffic (4 sketch-line touches per
    /// sample) well under 1% of a backing operation. The
    /// conservative-update sketch keeps a key's estimate near its true
    /// sampled count, so the promotion threshold separates skew from
    /// noise directly: a key must actually account for ~16 of the 4096
    /// samples in a decay epoch (≈ 0.4% of all traffic) to be fronted,
    /// which evenly spread workloads never reach.
    fn default() -> Self {
        HotKeyConfig { k: 16, sample_every: 128, decay_every: 4096, promote_min: 16 }
    }
}

impl HotKeyConfig {
    /// The default configuration with `k` fronted keys.
    pub fn with_k(k: usize) -> Self {
        HotKeyConfig { k, ..Default::default() }
    }

    /// Reads the `ASCYLIB_HOTKEYS` environment variable (the `k` knob;
    /// `0` disables); defaults to the stock configuration.
    ///
    /// # Panics
    ///
    /// Panics on a non-numeric spec (the examples want a loud failure,
    /// not a silently substituted default).
    pub fn from_env() -> HotKeyConfig {
        match std::env::var("ASCYLIB_HOTKEYS") {
            Ok(spec) => {
                let k = spec
                    .trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad ASCYLIB_HOTKEYS spec {spec:?}"));
                HotKeyConfig::with_k(k)
            }
            Err(_) => HotKeyConfig::default(),
        }
    }

    /// An aggressive configuration for tests: everything sampled, instant
    /// promotion, fast decay.
    pub fn eager(k: usize) -> Self {
        HotKeyConfig { k, sample_every: 1, decay_every: 65536, promote_min: 2 }
    }
}

/// The kind of write travelling through the combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotOpKind {
    /// Overwrite: `val_u64` carries the pre-stored arena handle,
    /// `ptr`/`len` the payload bytes (for the slot refresh).
    Set,
    /// Remove.
    Del,
}

/// One write published into a combining slot. Plain data — the payload
/// bytes behind `ptr` are owned by the publishing thread, which keeps
/// them alive while it spins for completion.
#[derive(Debug, Clone, Copy)]
pub struct HotOp {
    /// What to apply.
    pub kind: HotOpKind,
    /// The (hot) key.
    pub key: u64,
    /// Arena handle for `Set` (0 otherwise).
    pub val_u64: u64,
    /// Payload pointer for `Set` (as an address; 0 otherwise).
    pub ptr: usize,
    /// Payload length for `Set`.
    pub len: usize,
}

impl HotOp {
    /// A delete op.
    pub fn del(key: u64) -> Self {
        HotOp { kind: HotOpKind::Del, key, val_u64: 0, ptr: 0, len: 0 }
    }

    /// A blob overwrite op carrying the pre-stored handle and the payload
    /// it points at (kept alive by the publisher until the op completes).
    pub fn set(key: u64, handle: u64, value: &[u8]) -> Self {
        HotOp {
            kind: HotOpKind::Set,
            key,
            val_u64: handle,
            ptr: value.as_ptr() as usize,
            len: value.len(),
        }
    }

    /// The payload bytes of a `Set` op.
    ///
    /// # Safety
    ///
    /// Only valid while the publishing thread is still waiting on the op
    /// (it owns the buffer) — i.e. from inside the combiner's apply pass.
    unsafe fn payload(&self) -> &[u8] {
        // SAFETY: forwarded caller contract.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

/// Outcome of a front-cache read probe.
#[derive(Debug)]
pub enum FrontRead {
    /// Served from the front cache; the value was appended to the output.
    Hit,
    /// Served from the front cache: the key is known absent.
    Absent,
    /// The key is fronted but the slot holds no copy — read the backing,
    /// then offer the result back via [`HotKeyEngine::fill`].
    Pending(FillTicket),
    /// Not fronted (or mid-update): take the plain backing path.
    Miss,
}

/// A fill lease handed out by a pending front-cache probe: the install
/// only lands if no write invalidated the slot after the lease was taken
/// (and therefore possibly after the caller's backing read).
#[derive(Debug, Clone, Copy)]
pub struct FillTicket {
    slot: usize,
    key: u64,
    version: u64,
}

/// Point-in-time engine counters.
///
/// # Counters vs. gauges
///
/// Every field except `fronted` is a monotone **counter**;
/// [`merge_counters`](Self::merge_counters) sums those and deliberately
/// leaves the `fronted` **gauge** untouched (same contract as the server's
/// `ServerStatsSnapshot`: gauges are set once by whoever owns the live
/// view, never summed across snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotKeyStatsSnapshot {
    /// Operations that passed the 1-in-N sampler into the sketch.
    pub sampled: u64,
    /// Keys promoted into the front table.
    pub promotions: u64,
    /// Keys demoted (decayed out or displaced).
    pub demotions: u64,
    /// Reads served a value copy from the front cache.
    pub front_hits: u64,
    /// Reads served a cached negative lookup.
    pub front_absent: u64,
    /// Reads that found the key fronted but had to fall through (no copy
    /// cached yet, oversize value, or a concurrent refresh in flight).
    pub front_pending: u64,
    /// Successful read-side slot fills.
    pub fills: u64,
    /// Slots invalidated by a racing plain write.
    pub poisons: u64,
    /// Writes that travelled through the flat combiner.
    pub delegated: u64,
    /// Combiner owner passes (each applies ≥ 1 delegated write).
    pub combined_batches: u64,
    /// Keys currently fronted (gauge — not merged).
    pub fronted: u64,
}

impl HotKeyStatsSnapshot {
    /// Mean delegated writes applied per combiner pass.
    pub fn avg_batch(&self) -> f64 {
        if self.combined_batches == 0 {
            0.0
        } else {
            self.delegated as f64 / self.combined_batches as f64
        }
    }

    /// Front-cache hit rate over reads that probed a fronted key.
    pub fn front_hit_rate(&self) -> f64 {
        let served = self.front_hits + self.front_absent;
        let total = served + self.front_pending;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }

    /// Adds the **counter** fields of another snapshot into this one
    /// (saturating); the `fronted` gauge is deliberately not merged — the
    /// aggregator overwrites it from the live table.
    pub fn merge_counters(&mut self, other: &HotKeyStatsSnapshot) {
        self.sampled = self.sampled.saturating_add(other.sampled);
        self.promotions = self.promotions.saturating_add(other.promotions);
        self.demotions = self.demotions.saturating_add(other.demotions);
        self.front_hits = self.front_hits.saturating_add(other.front_hits);
        self.front_absent = self.front_absent.saturating_add(other.front_absent);
        self.front_pending = self.front_pending.saturating_add(other.front_pending);
        self.fills = self.fills.saturating_add(other.fills);
        self.poisons = self.poisons.saturating_add(other.poisons);
        self.delegated = self.delegated.saturating_add(other.delegated);
        self.combined_batches = self.combined_batches.saturating_add(other.combined_batches);
    }
}

// ---------------------------------------------------------------------------
// Striped counters: hot-path stats must not themselves become the shared
// cache line the engine exists to remove.

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    static TICK: Cell<u32> = const { Cell::new(0) };
}

fn stripe_id() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        s.set(v);
        v
    })
}

#[derive(Default)]
struct Striped([CachePadded<AtomicU64>; STRIPES]);

impl Striped {
    #[inline]
    fn add(&self, n: u64) {
        self.0[stripe_id()].fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

// ---------------------------------------------------------------------------
// Detection: per-shard count-min sketch + top-k table with decay.

struct Sketch {
    rows: [[AtomicU32; SKETCH_COLS]; SKETCH_ROWS],
}

impl Default for Sketch {
    fn default() -> Self {
        Sketch { rows: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU32::new(0))) }
    }
}

#[inline]
fn mix(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl Sketch {
    /// Conservative-update increment: raises only the cells below
    /// `min + 1` (via `fetch_max`, so racing bumps stay monotone) and
    /// returns the new count-min estimate. Plain count-min inflates every
    /// colliding cell on every bump, which pushes the background noise
    /// floor up to the *total* sample rate over the column count;
    /// conservative update keeps cold keys' estimates near their true
    /// counts, so a promotion threshold can sit between a skewed tail
    /// rank and uniform background where plain count-min could not
    /// separate the two.
    fn bump(&self, key: u64) -> u32 {
        let h1 = mix(key);
        let h2 = mix(key ^ 0xC2B2_AE3D_27D4_EB4F) | 1;
        let mut cells: [&AtomicU32; SKETCH_ROWS] = [&self.rows[0][0]; SKETCH_ROWS];
        let mut est = u32::MAX;
        for (i, row) in self.rows.iter().enumerate() {
            let idx = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % SKETCH_COLS as u64) as usize;
            cells[i] = &row[idx];
            est = est.min(cells[i].load(Ordering::Relaxed));
        }
        // Saturate well below u32::MAX so decay halving never wraps.
        if est >= u32::MAX / 2 {
            return est;
        }
        let target = est + 1;
        for cell in cells {
            cell.fetch_max(target, Ordering::Relaxed);
        }
        target
    }

    /// Halves every cell. Racy against concurrent bumps (an increment can
    /// be lost) — the sketch is approximate by construction.
    fn decay(&self) {
        for row in &self.rows {
            for cell in row {
                let v = cell.load(Ordering::Relaxed);
                if v > 0 {
                    cell.store(v / 2, Ordering::Relaxed);
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TopEntry {
    key: u64,
    count: u32,
}

// ---------------------------------------------------------------------------
// Front cache slots.

struct FrontSlot {
    /// Seqlock sequence: even = stable, odd = writer in progress. All
    /// transitions happen under `lock`.
    seq: AtomicU64,
    /// Fill lease: bumped by every poison, claim, release, and delegated
    /// install. A fill (or delegated install) captured before a bump must
    /// not land.
    version: AtomicU64,
    /// The fronted key (0 = empty; the structures reserve key 0).
    key: AtomicU64,
    /// Cached payload length, or [`LEN_PENDING`] / [`LEN_ABSENT`].
    len: AtomicU32,
    /// Slot writer lock (combiner installs, fills, poisons, claims).
    lock: AtomicU32,
    /// Payload bytes, word-packed (torn reads are rejected by `seq`).
    words: [AtomicU64; FRONT_WORDS],
}

impl Default for FrontSlot {
    fn default() -> Self {
        FrontSlot {
            seq: AtomicU64::new(0),
            version: AtomicU64::new(0),
            key: AtomicU64::new(0),
            len: AtomicU32::new(LEN_PENDING),
            lock: AtomicU32::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl FrontSlot {
    fn acquire(&self) {
        let mut spins = 0u32;
        while self
            .lock
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins % 1024 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn try_acquire(&self) -> bool {
        self.lock.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    fn release(&self) {
        self.lock.store(0, Ordering::Release);
    }

    /// Rewrites the slot contents under the seqlock write protocol.
    /// Caller holds `lock`.
    fn write(&self, key: u64, state: SlotState) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.key.store(key, Ordering::Relaxed);
        match state {
            SlotState::Pending => self.len.store(LEN_PENDING, Ordering::Relaxed),
            SlotState::Absent => self.len.store(LEN_ABSENT, Ordering::Relaxed),
            SlotState::Value(bytes) => {
                debug_assert!(bytes.len() <= FRONT_VALUE_CAP);
                for (i, chunk) in bytes.chunks(8).enumerate() {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    self.words[i].store(u64::from_le_bytes(word), Ordering::Relaxed);
                }
                self.len.store(bytes.len() as u32, Ordering::Relaxed);
            }
        }
        self.seq.store(s + 2, Ordering::Release);
    }
}

enum SlotState<'a> {
    Pending,
    Absent,
    Value(&'a [u8]),
}

// ---------------------------------------------------------------------------
// Flat-combining slots.

struct CombineSlot {
    state: AtomicU32,
    kind: AtomicU32,
    key: AtomicU64,
    val: AtomicU64,
    ptr: AtomicU64,
    len: AtomicU64,
    res_ok: AtomicU32,
}

impl Default for CombineSlot {
    fn default() -> Self {
        CombineSlot {
            state: AtomicU32::new(SLOT_EMPTY),
            kind: AtomicU32::new(0),
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
            ptr: AtomicU64::new(0),
            len: AtomicU64::new(0),
            res_ok: AtomicU32::new(0),
        }
    }
}

impl CombineSlot {
    /// Reads the published op. Caller observed `SLOT_PUBLISHED` with
    /// `Acquire`, so the Relaxed field reads are ordered after the
    /// publisher's writes.
    fn op(&self) -> HotOp {
        let kind = match self.kind.load(Ordering::Relaxed) {
            0 => HotOpKind::Set,
            _ => HotOpKind::Del,
        };
        HotOp {
            kind,
            key: self.key.load(Ordering::Relaxed),
            val_u64: self.val.load(Ordering::Relaxed),
            ptr: self.ptr.load(Ordering::Relaxed) as usize,
            len: self.len.load(Ordering::Relaxed) as usize,
        }
    }

    fn put_op(&self, op: &HotOp) {
        let kind = match op.kind {
            HotOpKind::Set => 0,
            HotOpKind::Del => 1,
        };
        self.kind.store(kind, Ordering::Relaxed);
        self.key.store(op.key, Ordering::Relaxed);
        self.val.store(op.val_u64, Ordering::Relaxed);
        self.ptr.store(op.ptr as u64, Ordering::Relaxed);
        self.len.store(op.len as u64, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Combiner {
    lock: AtomicU32,
    slots: [CombineSlot; COMBINE_SLOTS],
}

// ---------------------------------------------------------------------------
// The engine.

struct EngineCounters {
    sampled: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    front_hits: Striped,
    front_absent: Striped,
    front_pending: Striped,
    fills: AtomicU64,
    poisons: AtomicU64,
    delegated: Striped,
    combined_batches: AtomicU64,
}

impl Default for EngineCounters {
    fn default() -> Self {
        EngineCounters {
            sampled: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            front_hits: Striped::default(),
            front_absent: Striped::default(),
            front_pending: Striped::default(),
            fills: AtomicU64::new(0),
            poisons: AtomicU64::new(0),
            delegated: Striped::default(),
            combined_batches: AtomicU64::new(0),
        }
    }
}

/// The three-part hot-key engine (see the module docs). One instance
/// serves one [`BlobMap`](crate::BlobMap), which constructs it
/// (`with_hotkeys`, `with_config`) and threads every operation through it.
pub struct HotKeyEngine {
    k: usize,
    sample_mask: u32,
    decay_every: u64,
    promote_min: u32,
    router: ShardRouter,
    sketches: Box<[CachePadded<Sketch>]>,
    samples: CachePadded<AtomicU64>,
    topk: Mutex<Vec<TopEntry>>,
    slots: Box<[FrontSlot]>,
    /// Read-path filter mirroring each slot's owner key. A `FrontSlot`
    /// spans multiple cache lines, so cold-key probes into `slots` would
    /// miss L1; this dense array (8 B per slot) stays resident and
    /// rejects non-fronted keys with a single relaxed load. It is
    /// updated under the slot lock wherever ownership changes; a stale
    /// entry can only cause a benign miss or a wasted full probe — the
    /// slot's own `key` stays authoritative inside the seqlock dance.
    filter: Box<[AtomicU64]>,
    slot_shift: u32,
    /// Number of slots currently owning a key (`slot.key != 0`),
    /// maintained under the slot locks. Readers use a relaxed load of
    /// this as a zero-cost "is the front even populated" early-out: a
    /// stale zero only costs one backing read, never staleness.
    live: CachePadded<AtomicU64>,
    combiners: Box<[CachePadded<Combiner>]>,
    c: EngineCounters,
}

impl HotKeyEngine {
    /// Builds an engine for a map of `shards` shards. Returns `None` when
    /// `cfg.k == 0` — the caller holds an `Option` and falls back to its
    /// plain paths.
    pub fn new(shards: usize, cfg: HotKeyConfig) -> Option<Box<HotKeyEngine>> {
        if cfg.k == 0 {
            return None;
        }
        let k = cfg.k.min(MAX_K);
        // 4x fan-out: top-k keys are direct-mapped, so slot collisions
        // silently halve coverage of the hot mass; at 4k slots the
        // expected number of colliding top-k keys stays in single digits
        // even at MAX_K.
        let slot_count = (k * 4).next_power_of_two().max(8);
        Some(Box::new(HotKeyEngine {
            k,
            sample_mask: cfg.sample_every.next_power_of_two().max(1) - 1,
            decay_every: cfg.decay_every.max(1),
            promote_min: cfg.promote_min.max(1),
            router: ShardRouter::new(shards),
            sketches: (0..shards).map(|_| CachePadded::new(Sketch::default())).collect(),
            samples: CachePadded::new(AtomicU64::new(0)),
            topk: Mutex::new(Vec::with_capacity(k)),
            slots: (0..slot_count).map(|_| FrontSlot::default()).collect(),
            filter: (0..slot_count).map(|_| AtomicU64::new(0)).collect(),
            slot_shift: 64 - slot_count.trailing_zeros(),
            live: CachePadded::new(AtomicU64::new(0)),
            combiners: (0..shards).map(|_| CachePadded::new(Combiner::default())).collect(),
            c: EngineCounters::default(),
        }))
    }

    /// Maximum fronted keys this engine was configured for.
    pub fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn slot_idx(&self, key: u64) -> usize {
        (mix(key) >> self.slot_shift) as usize
    }

    #[inline]
    fn slot_of(&self, key: u64) -> &FrontSlot {
        &self.slots[self.slot_idx(key)]
    }

    // -- detection ---------------------------------------------------------

    /// Hot-path detection hook: call once per keyspace operation. Pays a
    /// thread-local tick; 1-in-N calls feed the sketch and may promote.
    /// The tick counter is shared by every engine the thread drives, so
    /// the fire decision hashes it with a per-engine salt (the engine's
    /// address — stable, it lives in a `Box`): two engines interleaved on
    /// one thread each see a strided subsequence of the shared ticks, and
    /// an unsalted `tick & mask` test would systematically miss (or
    /// double-fire) on such strides instead of sampling 1-in-N.
    #[inline]
    pub fn record_access(&self, key: u64) {
        if key == 0 {
            return;
        }
        let salt = self as *const Self as u64;
        let fire = TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            (mix(u64::from(v) ^ salt) as u32) & self.sample_mask == 0
        });
        if fire {
            self.sample(key);
        }
    }

    #[cold]
    fn sample(&self, key: u64) {
        self.c.sampled.fetch_add(1, Ordering::Relaxed);
        let shard = self.router.route(key);
        let est = self.sketches[shard].bump(key);
        let n = self.samples.fetch_add(1, Ordering::Relaxed) + 1;
        if n % self.decay_every == 0 {
            self.decay();
        }
        if est >= self.promote_min {
            self.try_promote(key, est);
        }
    }

    fn decay(&self) {
        for s in self.sketches.iter() {
            s.decay();
        }
        let Ok(mut topk) = self.topk.lock() else { return };
        let mut evicted: Vec<u64> = Vec::new();
        topk.retain_mut(|e| {
            e.count /= 2;
            if e.count == 0 {
                evicted.push(e.key);
                false
            } else {
                true
            }
        });
        drop(topk);
        for key in evicted {
            self.release_slot(key);
            self.c.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_promote(&self, key: u64, est: u32) {
        // Contended promotion attempts just skip: detection is statistical
        // and another sample will come around.
        let Ok(mut topk) = self.topk.try_lock() else { return };
        if let Some(e) = topk.iter_mut().find(|e| e.key == key) {
            e.count = e.count.max(est);
            let est = e.count;
            drop(topk);
            // Re-claim in case the slot was stolen or never claimed.
            self.claim_slot(key, est);
            return;
        }
        if topk.len() < self.k {
            topk.push(TopEntry { key, count: est });
            drop(topk);
            self.c.promotions.fetch_add(1, Ordering::Relaxed);
            self.claim_slot(key, est);
            return;
        }
        let (min_idx, min_count) = topk
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.count))
            .min_by_key(|&(_, c)| c)
            .expect("top-k is non-empty here");
        if est > min_count.saturating_mul(2) {
            let displaced = topk[min_idx].key;
            topk[min_idx] = TopEntry { key, count: est };
            drop(topk);
            self.release_slot(displaced);
            self.c.demotions.fetch_add(1, Ordering::Relaxed);
            self.c.promotions.fetch_add(1, Ordering::Relaxed);
            self.claim_slot(key, est);
        }
    }

    /// Points the key's direct-mapped slot at it (state pending) unless a
    /// clearly hotter key already owns the slot.
    fn claim_slot(&self, key: u64, est: u32) {
        let idx = self.slot_idx(key);
        let slot = &self.slots[idx];
        let cur = slot.key.load(Ordering::Relaxed);
        if cur == key {
            return;
        }
        if cur != 0 {
            // Direct-mapped collision between two top-k keys: steal only
            // with clear margin (hysteresis keeps the slot from flapping).
            let cur_est = self
                .topk
                .lock()
                .map(|t| t.iter().find(|e| e.key == cur).map_or(0, |e| e.count))
                .unwrap_or(0);
            if est <= cur_est.saturating_mul(2) {
                return;
            }
        }
        slot.acquire();
        if slot.key.load(Ordering::Relaxed) == 0 {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        slot.version.fetch_add(1, Ordering::Relaxed);
        slot.write(key, SlotState::Pending);
        self.filter[idx].store(key, Ordering::Relaxed);
        slot.release();
    }

    fn release_slot(&self, key: u64) {
        let idx = self.slot_idx(key);
        let slot = &self.slots[idx];
        if slot.key.load(Ordering::Relaxed) != key {
            return;
        }
        slot.acquire();
        if slot.key.load(Ordering::Relaxed) == key {
            self.live.fetch_sub(1, Ordering::Relaxed);
            slot.version.fetch_add(1, Ordering::Relaxed);
            slot.write(0, SlotState::Pending);
            self.filter[idx].store(0, Ordering::Relaxed);
        }
        slot.release();
    }

    /// Forces `key` into the top-k table and claims its slot (evicting
    /// the coldest entry if full). For tests and operational pinning.
    pub fn pin(&self, key: u64) {
        let mut topk = self.topk.lock().expect("top-k lock poisoned");
        let count = u32::MAX / 4;
        if let Some(e) = topk.iter_mut().find(|e| e.key == key) {
            e.count = count;
        } else {
            if topk.len() >= self.k {
                let (min_idx, _) = topk
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, e.count))
                    .min_by_key(|&(_, c)| c)
                    .expect("top-k non-empty");
                let displaced = topk.swap_remove(min_idx).key;
                drop(topk);
                self.release_slot(displaced);
                self.c.demotions.fetch_add(1, Ordering::Relaxed);
                topk = self.topk.lock().expect("top-k lock poisoned");
            }
            topk.push(TopEntry { key, count });
            self.c.promotions.fetch_add(1, Ordering::Relaxed);
        }
        drop(topk);
        // Pinning overrides the hysteresis: evict whatever holds the slot.
        let idx = self.slot_idx(key);
        let slot = &self.slots[idx];
        let cur = slot.key.load(Ordering::Relaxed);
        if cur != key {
            slot.acquire();
            if slot.key.load(Ordering::Relaxed) == 0 {
                self.live.fetch_add(1, Ordering::Relaxed);
            }
            slot.version.fetch_add(1, Ordering::Relaxed);
            slot.write(key, SlotState::Pending);
            self.filter[idx].store(key, Ordering::Relaxed);
            slot.release();
        }
    }

    /// The current top-k table: `(key, frequency estimate)` pairs, hottest
    /// first. Estimates are sampled counts (multiply by the sampling rate
    /// for an absolute figure) and decay over time.
    pub fn hot_keys(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .topk
            .lock()
            .map(|t| t.iter().map(|e| (e.key, e.count as u64)).collect())
            .unwrap_or_default();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    // -- front cache: read side --------------------------------------------

    /// Probes the front cache for `key`, appending a cached value to
    /// `out` on a hit (bytes land directly in `out` — no intermediate
    /// buffer; a torn copy is truncated away before retrying). See
    /// [`FrontRead`] for the contract of each arm.
    #[inline]
    pub fn read(&self, key: u64, out: &mut Vec<u8>) -> FrontRead {
        // Empty-front early-out: until detection promotes something, the
        // whole probe is one relaxed load of a read-mostly line. (Reads
        // that race a first promotion may still see zero and miss — one
        // extra backing read, never a stale value.)
        if key == 0 || self.live.load(Ordering::Relaxed) == 0 {
            return FrontRead::Miss;
        }
        let idx = (mix(key) >> self.slot_shift) as usize;
        // Cold-key fast path: a single relaxed load of the L1-resident
        // filter rejects keys that are not fronted without touching the
        // (much larger) slot array. Races with a concurrent claim/steal
        // are benign — the backing store is always coherent, so a stale
        // mismatch just means one more backing read.
        if self.filter[idx].load(Ordering::Relaxed) != key {
            return FrontRead::Miss;
        }
        let slot = &self.slots[idx];
        let start = out.len();
        for _ in 0..2 {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 != 0 {
                // A writer is mid-update; the backing is always coherent.
                self.c.front_pending.add(1);
                return FrontRead::Miss;
            }
            if slot.key.load(Ordering::Relaxed) != key {
                return FrontRead::Miss;
            }
            let len = slot.len.load(Ordering::Relaxed);
            let res = if len == LEN_PENDING {
                // Capture the fill lease *before* the caller reads the
                // backing: any write completing after that read bumps
                // `version` and voids the lease.
                let version = slot.version.load(Ordering::Acquire);
                FrontRead::Pending(FillTicket { slot: idx, key, version })
            } else if len == LEN_ABSENT {
                FrontRead::Absent
            } else {
                let len = len as usize;
                debug_assert!(len <= FRONT_VALUE_CAP);
                let words = len.div_ceil(8);
                out.reserve(words * 8);
                for w in &slot.words[..words] {
                    out.extend_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
                }
                out.truncate(start + len);
                FrontRead::Hit
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                match &res {
                    FrontRead::Hit => self.c.front_hits.add(1),
                    FrontRead::Absent => self.c.front_absent.add(1),
                    FrontRead::Pending(_) => self.c.front_pending.add(1),
                    FrontRead::Miss => {}
                }
                return res;
            }
            // Torn read: the slot changed under us; drop the partial copy
            // and retry once, then let the backing answer.
            out.truncate(start);
        }
        self.c.front_pending.add(1);
        FrontRead::Miss
    }

    /// Offers a backing read's result to a pending slot. The install only
    /// lands if the lease is still valid — i.e. no write invalidated the
    /// slot since before the caller's backing read. `None` caches absence;
    /// oversize values are dropped (the slot stays pending).
    pub fn fill(&self, ticket: &FillTicket, value: Option<&[u8]>) {
        if let Some(v) = value {
            if v.len() > FRONT_VALUE_CAP {
                return;
            }
        }
        let slot = &self.slots[ticket.slot];
        // Opportunistic: a busy slot means a writer or another fill is
        // active; dropping this fill is always safe.
        if !slot.try_acquire() {
            return;
        }
        if slot.version.load(Ordering::Relaxed) == ticket.version
            && slot.key.load(Ordering::Relaxed) == ticket.key
        {
            match value {
                Some(v) => slot.write(ticket.key, SlotState::Value(v)),
                None => slot.write(ticket.key, SlotState::Absent),
            }
            self.c.fills.fetch_add(1, Ordering::Relaxed);
        }
        slot.release();
    }

    // -- front cache: write side -------------------------------------------

    /// `true` if writes to `key` must delegate through the combiner.
    #[inline]
    pub fn fronted(&self, key: u64) -> bool {
        key != 0 && self.slot_of(key).key.load(Ordering::Acquire) == key
    }

    /// Post-apply hook for plain (non-delegated) writers: if the key
    /// turns out to be fronted (a promotion raced this write), drop the
    /// cached copy and void outstanding fill leases, so no reader can be
    /// served a value older than this completed write. The cache tier's
    /// eviction and expiry paths call this too — always *before* the
    /// backing handle is retired, so a front copy never outlives (or
    /// dangles past) the value it mirrors.
    #[inline]
    pub fn poison(&self, key: u64) {
        if key == 0 {
            return;
        }
        let slot = self.slot_of(key);
        if slot.key.load(Ordering::Relaxed) != key {
            return;
        }
        slot.acquire();
        if slot.key.load(Ordering::Relaxed) == key {
            slot.version.fetch_add(1, Ordering::Relaxed);
            slot.write(key, SlotState::Pending);
            self.c.poisons.fetch_add(1, Ordering::Relaxed);
        }
        slot.release();
    }

    // -- delegation --------------------------------------------------------

    /// Runs `op` through the key's shard combiner: one thread applies a
    /// batch of published ops against the backing (via `apply`) and
    /// refreshes the front cache after each, while the others spin on
    /// their slot. `apply` must perform the op against the backing and
    /// return its outcome (`Set` created, `Del` found); it is called by
    /// whichever thread ends up combining, possibly for *other* threads'
    /// ops of either [`HotOpKind`].
    pub fn delegate(&self, op: HotOp, apply: &mut dyn FnMut(&HotOp) -> bool) -> bool {
        self.c.delegated.add(1);
        let combiner = &self.combiners[self.router.route(op.key)];
        let mut spins = 0u32;
        loop {
            if combiner
                .lock
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                let res = self.apply_one(&op, apply);
                self.drain(combiner, apply);
                combiner.lock.store(0, Ordering::Release);
                self.c.combined_batches.fetch_add(1, Ordering::Relaxed);
                return res;
            }
            if let Some(idx) = self.try_publish(combiner, &op) {
                return self.await_slot(combiner, idx, &op, apply);
            }
            spins += 1;
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Applies one op to the backing and write-through refreshes the
    /// front slot. The version snapshot taken *before* the backing apply
    /// orders the install against racing plain-writer poisons: if one
    /// lands in between, this install is downgraded to a fresh poison —
    /// merely skipping would leave the poison's version live, and a fill
    /// lease taken against it could install a backing read that predates
    /// this delegated write.
    fn apply_one(&self, op: &HotOp, apply: &mut dyn FnMut(&HotOp) -> bool) -> bool {
        let slot = self.slot_of(op.key);
        let fronted = slot.key.load(Ordering::Relaxed) == op.key;
        let version = slot.version.load(Ordering::Acquire);
        let ok = apply(op);
        if !fronted {
            return ok;
        }
        let state = match op.kind {
            HotOpKind::Set => {
                if op.len > FRONT_VALUE_CAP {
                    Some(SlotState::Pending)
                } else {
                    // SAFETY: the publisher owns the payload and is still
                    // spinning on this op (or it is our own stack slice).
                    Some(SlotState::Value(unsafe { op.payload() }))
                }
            }
            HotOpKind::Del if ok => Some(SlotState::Absent),
            // A failed delete mutated nothing; the cached copy (if any) is
            // still the latest completed write.
            HotOpKind::Del => None,
        };
        if let Some(state) = state {
            slot.acquire();
            if slot.key.load(Ordering::Relaxed) == op.key {
                slot.version.fetch_add(1, Ordering::Relaxed);
                if slot.version.load(Ordering::Relaxed) == version.wrapping_add(1) {
                    slot.write(op.key, state);
                } else {
                    // A plain-writer poison landed between our snapshot
                    // and the backing apply. A reader may hold a fill
                    // lease minted against *its* version with a backing
                    // value read before our op landed; the bump above
                    // voided that lease, and the slot stays uncached
                    // until a post-apply lease refills it.
                    slot.write(op.key, SlotState::Pending);
                    self.c.poisons.fetch_add(1, Ordering::Relaxed);
                }
            }
            slot.release();
        }
        ok
    }

    fn drain(&self, combiner: &Combiner, apply: &mut dyn FnMut(&HotOp) -> bool) {
        // Two passes: the second catches ops published while the first
        // was busy (stragglers beyond that reclaim their op themselves).
        for _ in 0..2 {
            for slot in &combiner.slots {
                if slot.state.load(Ordering::Acquire) == SLOT_PUBLISHED {
                    let op = slot.op();
                    let ok = self.apply_one(&op, apply);
                    slot.res_ok.store(ok as u32, Ordering::Relaxed);
                    slot.state.store(SLOT_DONE, Ordering::Release);
                }
            }
        }
    }

    fn try_publish(&self, combiner: &Combiner, op: &HotOp) -> Option<usize> {
        for (i, slot) in combiner.slots.iter().enumerate() {
            if slot.state.load(Ordering::Relaxed) == SLOT_EMPTY
                && slot
                    .state
                    .compare_exchange(SLOT_EMPTY, SLOT_WRITING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                slot.put_op(op);
                slot.state.store(SLOT_PUBLISHED, Ordering::Release);
                return Some(i);
            }
        }
        None
    }

    /// Spins for a published op's completion; periodically tries to take
    /// the combiner lock so a published-after-drain op is never stranded
    /// (its publisher combines it itself).
    fn await_slot(
        &self,
        combiner: &Combiner,
        idx: usize,
        op: &HotOp,
        apply: &mut dyn FnMut(&HotOp) -> bool,
    ) -> bool {
        let slot = &combiner.slots[idx];
        let mut rounds = 0u32;
        loop {
            for _ in 0..64 {
                if slot.state.load(Ordering::Acquire) == SLOT_DONE {
                    let ok = slot.res_ok.load(Ordering::Relaxed) != 0;
                    slot.state.store(SLOT_EMPTY, Ordering::Release);
                    return ok;
                }
                std::hint::spin_loop();
            }
            if combiner
                .lock
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // We hold the lock, so no combiner is processing our slot:
                // it is either still published (reclaim and self-combine)
                // or already done.
                let res = if slot.state.load(Ordering::Acquire) == SLOT_PUBLISHED {
                    slot.state.store(SLOT_EMPTY, Ordering::Release);
                    self.apply_one(op, apply)
                } else {
                    debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_DONE);
                    let ok = slot.res_ok.load(Ordering::Relaxed) != 0;
                    slot.state.store(SLOT_EMPTY, Ordering::Release);
                    ok
                };
                self.drain(combiner, apply);
                combiner.lock.store(0, Ordering::Release);
                self.c.combined_batches.fetch_add(1, Ordering::Relaxed);
                return res;
            }
            rounds += 1;
            if rounds % 16 == 0 {
                std::thread::yield_now();
            }
        }
    }

    // -- stats -------------------------------------------------------------

    /// A point-in-time copy of the engine counters.
    pub fn stats(&self) -> HotKeyStatsSnapshot {
        HotKeyStatsSnapshot {
            sampled: self.c.sampled.load(Ordering::Relaxed),
            promotions: self.c.promotions.load(Ordering::Relaxed),
            demotions: self.c.demotions.load(Ordering::Relaxed),
            front_hits: self.c.front_hits.sum(),
            front_absent: self.c.front_absent.sum(),
            front_pending: self.c.front_pending.sum(),
            fills: self.c.fills.load(Ordering::Relaxed),
            poisons: self.c.poisons.load(Ordering::Relaxed),
            delegated: self.c.delegated.sum(),
            combined_batches: self.c.combined_batches.load(Ordering::Relaxed),
            fronted: self.slots.iter().filter(|s| s.key.load(Ordering::Relaxed) != 0).count()
                as u64,
        }
    }
}

impl std::fmt::Debug for HotKeyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotKeyEngine")
            .field("k", &self.k)
            .field("slots", &self.slots.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eager(k: usize) -> Box<HotKeyEngine> {
        HotKeyEngine::new(4, HotKeyConfig::eager(k)).expect("k > 0 builds an engine")
    }

    #[test]
    fn k_zero_disables_the_engine() {
        assert!(HotKeyEngine::new(4, HotKeyConfig::with_k(0)).is_none());
    }

    #[test]
    fn sampling_detects_a_skewed_key() {
        let e = HotKeyEngine::new(2, HotKeyConfig { sample_every: 1, ..Default::default() })
            .unwrap();
        for round in 0..200u64 {
            e.record_access(42);
            e.record_access(1 + (round % 50));
        }
        let hot = e.hot_keys();
        assert!(!hot.is_empty(), "the dominant key must be detected");
        assert_eq!(hot[0].0, 42, "key 42 dominates: {hot:?}");
        assert!(e.stats().sampled >= 400);
    }

    #[test]
    fn interleaved_engines_both_sample() {
        // Two engines driven alternately by one thread share the
        // per-thread tick; the per-engine salt must keep both samplers
        // firing (an unsalted `tick & mask` test strands whichever
        // engine lands on the wrong residue of the shared stride).
        let cfg = HotKeyConfig { sample_every: 2, ..Default::default() };
        let a = HotKeyEngine::new(2, cfg).unwrap();
        let b = HotKeyEngine::new(2, cfg).unwrap();
        for _ in 0..4096 {
            a.record_access(1);
            b.record_access(1);
        }
        assert!(a.stats().sampled > 0, "engine A never sampled");
        assert!(b.stats().sampled > 0, "engine B never sampled");
    }

    #[test]
    fn pending_then_fill_then_hit() {
        let e = eager(4);
        e.pin(7);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(7, &mut out) else {
            panic!("freshly pinned slot starts pending");
        };
        e.fill(&t, Some(b"payload"));
        match e.read(7, &mut out) {
            FrontRead::Hit => assert_eq!(out, b"payload"),
            other => panic!("expected a hit, got {other:?}"),
        }
        let s = e.stats();
        assert_eq!(s.fills, 1);
        assert_eq!(s.front_hits, 1);
        assert!(s.fronted >= 1);
    }

    #[test]
    fn fill_caches_absence() {
        let e = eager(4);
        e.pin(9);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(9, &mut out) else { panic!("pending") };
        e.fill(&t, None);
        assert!(matches!(e.read(9, &mut out), FrontRead::Absent));
        assert_eq!(e.stats().front_absent, 1);
    }

    #[test]
    fn oversize_values_are_never_cached() {
        let e = eager(4);
        e.pin(3);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(3, &mut out) else { panic!("pending") };
        e.fill(&t, Some(&vec![0u8; FRONT_VALUE_CAP + 1]));
        assert!(
            matches!(e.read(3, &mut out), FrontRead::Pending(_)),
            "an oversize fill must be dropped"
        );
        assert_eq!(e.stats().fills, 0);
    }

    #[test]
    fn poison_voids_an_outstanding_fill_lease() {
        let e = eager(4);
        e.pin(5);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(5, &mut out) else { panic!("pending") };
        // A plain writer applied to the backing and then noticed the slot:
        // the lease taken before its write must die with the poison.
        e.poison(5);
        e.fill(&t, Some(b"stale"));
        assert!(
            matches!(e.read(5, &mut out), FrontRead::Pending(_)),
            "a fill whose lease predates a poison must not land"
        );
        assert_eq!(e.stats().poisons, 1);
        assert_eq!(e.stats().fills, 0);
    }

    #[test]
    fn delegated_install_repoisons_after_a_racing_plain_poison() {
        let e = eager(4);
        e.pin(17);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(17, &mut out) else { panic!("pending") };
        e.fill(&t, Some(b"old"));
        let mut lease = None;
        // Reproduce the window between the combiner's version snapshot
        // and its write-through install: a plain writer completes against
        // the backing and poisons, then a reader takes a fill lease whose
        // backing read predates the delegated write.
        e.delegate(HotOp::set(17, 0, b"new"), &mut |_| {
            e.poison(17);
            let mut buf = Vec::new();
            let FrontRead::Pending(t) = e.read(17, &mut buf) else {
                panic!("poisoned slot must read pending");
            };
            lease = Some(t);
            true
        });
        // The install saw the version mismatch and must have voided the
        // lease (re-poison), not skipped silently — otherwise the lease
        // installs a value older than the completed delegated write.
        e.fill(&lease.expect("lease taken during the window"), Some(b"stale"));
        out.clear();
        assert!(
            matches!(e.read(17, &mut out), FrontRead::Pending(_)),
            "a lease minted inside the delegation window must not install"
        );
        assert_eq!(e.stats().fills, 1, "only the setup fill may land");
        assert_eq!(e.stats().poisons, 2, "plain poison + install re-poison");
    }

    #[test]
    fn delegated_writes_refresh_the_slot_write_through() {
        let e = eager(4);
        e.pin(11);
        assert!(e.fronted(11));
        let created = e.delegate(HotOp::set(11, 0xDEAD, b"fresh"), &mut |op| {
            assert_eq!(op.key, 11);
            true
        });
        assert!(created);
        let mut out = Vec::new();
        assert!(matches!(e.read(11, &mut out), FrontRead::Hit));
        assert_eq!(out, b"fresh");
        // A delegated delete caches the absence.
        assert!(e.delegate(HotOp::del(11), &mut |_| true));
        out.clear();
        assert!(matches!(e.read(11, &mut out), FrontRead::Absent));
        let s = e.stats();
        assert_eq!(s.delegated, 2);
        assert!(s.combined_batches >= 2);
        assert!((s.avg_batch() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn delegated_u64_insert_and_remove_round_trip() {
        let e = eager(4);
        e.pin(21);
        let mut handle = 0;
        let created = e.delegate(HotOp::set(21, 0xBEEF, &777u64.to_le_bytes()), &mut |op| {
            handle = op.val_u64;
            true
        });
        assert!(created);
        assert_eq!(handle, 0xBEEF, "the apply sees the publisher's handle");
        let mut out = Vec::new();
        assert!(matches!(e.read(21, &mut out), FrontRead::Hit));
        assert_eq!(out, 777u64.to_le_bytes(), "a delegated write refreshes the slot");
        assert!(e.delegate(HotOp::del(21), &mut |_| true));
        out.clear();
        assert!(matches!(e.read(21, &mut out), FrontRead::Absent), "a delete caches absence");
    }

    #[test]
    fn failed_mutations_leave_the_cached_copy_alone() {
        let e = eager(4);
        e.pin(13);
        e.delegate(HotOp::set(13, 0, &5u64.to_le_bytes()), &mut |_| true);
        // A failed delete (the backing found nothing to remove) must not
        // clobber the copy.
        assert!(!e.delegate(HotOp::del(13), &mut |_| false));
        let mut out = Vec::new();
        assert!(matches!(e.read(13, &mut out), FrontRead::Hit));
        assert_eq!(out, 5u64.to_le_bytes());
    }

    #[test]
    fn decay_demotes_cold_keys_and_releases_their_slots() {
        let e = HotKeyEngine::new(
            2,
            HotKeyConfig { k: 4, sample_every: 1, decay_every: 32, promote_min: 2 },
        )
        .unwrap();
        for _ in 0..8 {
            e.record_access(77);
        }
        assert!(e.fronted(77), "hot key promoted and fronted");
        // Cold traffic floods the sampler; repeated decays halve 77's
        // count to zero and the slot must come back.
        for i in 0..4096u64 {
            e.record_access(1000 + i);
        }
        assert!(!e.fronted(77), "decayed key must be demoted");
        assert!(e.stats().demotions >= 1);
        assert!(e.hot_keys().iter().all(|&(k, _)| k != 77));
    }

    #[test]
    fn merge_counters_sums_counters_but_not_the_gauge() {
        let mut a = HotKeyStatsSnapshot {
            front_hits: 5,
            delegated: 2,
            fronted: 3,
            ..Default::default()
        };
        let b = HotKeyStatsSnapshot {
            front_hits: 7,
            delegated: 1,
            fronted: 4,
            sampled: u64::MAX,
            ..Default::default()
        };
        a.merge_counters(&b);
        assert_eq!(a.front_hits, 12);
        assert_eq!(a.delegated, 3);
        assert_eq!(a.sampled, u64::MAX, "saturating add");
        assert_eq!(a.fronted, 3, "gauge must not be summed by the merge");
    }

    #[test]
    fn hit_rate_and_batch_stats_are_sane_on_empty() {
        let s = HotKeyStatsSnapshot::default();
        assert_eq!(s.front_hit_rate(), 0.0);
        assert_eq!(s.avg_batch(), 0.0);
    }

    #[test]
    fn pin_evicts_the_coldest_when_full() {
        let e = eager(2);
        e.pin(1);
        e.pin(2);
        e.pin(3);
        let hot = e.hot_keys();
        assert_eq!(hot.len(), 2);
        assert!(hot.iter().any(|&(k, _)| k == 3), "latest pin wins: {hot:?}");
    }

    #[test]
    fn concurrent_delegation_is_linearizable_per_key() {
        use std::sync::atomic::AtomicU64 as A;
        use std::sync::Arc;
        let e = Arc::new(*eager(4));
        e.pin(99);
        let backing = Arc::new(A::new(0));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let e = Arc::clone(&e);
                let backing = Arc::clone(&backing);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..500u64 {
                        let val = t * 1_000_000 + i + 1;
                        e.delegate(HotOp::set(99, val, &val.to_le_bytes()), &mut |op| {
                            // The "backing": last writer wins, serialized
                            // by the combiner.
                            backing.store(op.val_u64, Ordering::Relaxed);
                            true
                        });
                        // The cached copy must be *some* delegated value,
                        // never torn or stale beyond the backing.
                        out.clear();
                        if let FrontRead::Hit = e.read(99, &mut out) {
                            let v = u64::from_le_bytes(out[..].try_into().expect("8 bytes"));
                            assert!(v % 1_000_000 <= 500, "torn value {v}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Quiescent: the cache must equal the backing exactly.
        let mut out = Vec::new();
        match e.read(99, &mut out) {
            FrontRead::Hit => assert_eq!(out, backing.load(Ordering::Relaxed).to_le_bytes()),
            other => panic!("expected a settled cached value, got {other:?}"),
        }
        assert_eq!(e.stats().delegated, 2000);
    }
}
