//! The hot-key engine: detection, front cache, and write-through for
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
//! 3. **Write-through** — a write to a fronted key takes the key's slot
//!    lock, applies to the backing and installs the new copy before it
//!    releases ([`HotKeyEngine::write_through`]). The lock is held around
//!    exactly the stores a sequential update would make, as in the
//!    paper's lock-based structures; writes to different hot keys never
//!    wait for each other.
//!
//! # Coherence contract
//!
//! A front-cache read **never returns a value older than the last
//! completed write** to that key. The protocol that guarantees it:
//!
//! * The backing structure is written *first*, always. The front cache is
//!   strictly a cache of the backing — a reader that bypasses it (scans,
//!   batched paths, `contains`) can never observe staleness.
//! * Every change to a slot is a seqlock write under the slot lock: `seq`
//!   is odd while it runs, and readers that see it odd (or changed) fall
//!   through to the backing.
//! * Writers that see the key fronted write through: the seqlock write
//!   opens *before* the backing apply and closes after the install, so no
//!   reader can pair a new backing value with the old copy, and the lock
//!   orders one key's writes.
//! * A writer that raced a promotion (checked before the key was fronted,
//!   applied to the backing, then found the key fronted) **poisons** the
//!   slot: the cached copy is dropped by a seqlock write.
//! * Reads of a fronted-but-empty (pending) slot fall through to the
//!   backing and then try to install what they read. The fill carries the
//!   `seq` the probe validated (a lease, in memcache terms) and lands only
//!   if `seq` is unchanged — i.e. no claim, release, poison, install or
//!   other fill touched the slot since before the backing read.
//!
//! Values longer than [`FRONT_VALUE_CAP`] are never cached (their slot
//! stays pending and reads pass through); their writes still go through
//! the slot lock.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam_utils::CachePadded;

use crate::router::ShardRouter;

/// Largest payload a front-cache slot can hold, in bytes. Bigger values
/// pass through to the backing on every read.
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

/// A fill lease handed out by a pending front-cache probe: the `seq` the
/// probe validated. The install only lands if the slot's `seq` is still
/// that value — no seqlock write touched the slot after the lease was
/// taken (and therefore possibly after the caller's backing read).
#[derive(Debug, Clone, Copy)]
pub struct FillTicket {
    slot: usize,
    key: u64,
    seq: u64,
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
    /// Writes to a fronted key applied write-through under its slot lock.
    pub delegated: u64,
    /// Always equal to `delegated` (every write is its own pass). Kept
    /// only because `benchmark/src/run.rs` reads it for its
    /// `hotkey.avg_batch` rung.
    pub combined_batches: u64,
    /// Keys currently fronted (gauge — not merged).
    pub fronted: u64,
}

impl HotKeyStatsSnapshot {
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
    /// transitions happen under `lock`. Also the fill lease: every claim,
    /// release, poison and install moves it, so a fill captured before
    /// one of them cannot land.
    seq: AtomicU64,
    /// The fronted key (0 = empty; the structures reserve key 0).
    key: AtomicU64,
    /// Cached payload length, or [`LEN_PENDING`] / [`LEN_ABSENT`].
    len: AtomicU32,
    /// Slot writer lock (write-through, fills, poisons, claims).
    lock: AtomicU32,
    /// Payload bytes, word-packed (torn reads are rejected by `seq`).
    words: [AtomicU64; FRONT_WORDS],
}

impl Default for FrontSlot {
    fn default() -> Self {
        FrontSlot {
            seq: AtomicU64::new(0),
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
        let s = self.begin_write();
        self.store(key, state);
        self.end_write(s);
    }

    /// Opens a seqlock write (`seq` odd, so readers of the slot fall
    /// through to the backing) and returns the `seq` it started from.
    /// Caller holds `lock`.
    fn begin_write(&self) -> u64 {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        s
    }

    /// Closes the seqlock write [`begin_write`](Self::begin_write) opened.
    fn end_write(&self, s: u64) {
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Stores the slot contents; only inside an open seqlock write.
    fn store(&self, key: u64, state: SlotState) {
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
    }
}

enum SlotState<'a> {
    Pending,
    Absent,
    Value(&'a [u8]),
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
        self.take_slot(idx, key);
    }

    /// Points slot `idx` at `key`, pending, whatever it held before.
    fn take_slot(&self, idx: usize, key: u64) {
        let slot = &self.slots[idx];
        slot.acquire();
        if slot.key.load(Ordering::Relaxed) == 0 {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
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
        if self.slots[idx].key.load(Ordering::Relaxed) != key {
            self.take_slot(idx, key);
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
                // The lease is the `seq` validated below, taken *before*
                // the caller reads the backing: any slot write after that
                // read moves `seq` and voids it.
                FrontRead::Pending(FillTicket { slot: idx, key, seq: s1 })
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
        if slot.seq.load(Ordering::Relaxed) == ticket.seq
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

    /// `true` if writes to `key` must go through
    /// [`write_through`](Self::write_through).
    #[inline]
    pub fn fronted(&self, key: u64) -> bool {
        key != 0 && self.slot_of(key).key.load(Ordering::Acquire) == key
    }

    /// Post-apply hook for plain (not write-through) writers: if the key
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
            slot.write(key, SlotState::Pending);
            self.c.poisons.fetch_add(1, Ordering::Relaxed);
        }
        slot.release();
    }

    /// Applies a write to fronted `key` and refreshes its copy
    /// write-through, all under the key's slot lock: `apply` performs the
    /// write against the backing and returns its outcome (set: created,
    /// delete: found), `value` is what it wrote (`None` = a delete). The
    /// seqlock write opens *before* `apply` and closes after the install,
    /// so readers of the key fall through to the backing until the copy
    /// equals it. Installs `Value`, or `Pending` for a value over
    /// [`FRONT_VALUE_CAP`], or `Absent` after a successful delete; a failed
    /// delete mutated nothing and leaves the copy alone. If the slot no
    /// longer fronts `key`, `apply` still runs under the lock and the slot
    /// is untouched: a later claim of the key waits for the lock, so its
    /// fill lease postdates the write.
    ///
    /// `apply` runs holding the slot lock and must not call back into the
    /// engine: `poison`, `pin`, `record_access` (which may claim a slot)
    /// and `write_through` itself would spin on a lock it holds.
    pub fn write_through(
        &self,
        key: u64,
        value: Option<&[u8]>,
        apply: impl FnOnce() -> bool,
    ) -> bool {
        self.c.delegated.add(1);
        let slot = self.slot_of(key);
        slot.acquire();
        if slot.key.load(Ordering::Relaxed) != key {
            let ok = apply();
            slot.release();
            return ok;
        }
        let s = slot.begin_write();
        let ok = apply();
        match value {
            Some(v) if v.len() <= FRONT_VALUE_CAP => slot.store(key, SlotState::Value(v)),
            Some(_) => slot.store(key, SlotState::Pending),
            None if ok => slot.store(key, SlotState::Absent),
            None => {}
        }
        slot.end_write(s);
        slot.release();
        ok
    }

    // -- stats -------------------------------------------------------------

    /// A point-in-time copy of the engine counters.
    pub fn stats(&self) -> HotKeyStatsSnapshot {
        let delegated = self.c.delegated.sum();
        HotKeyStatsSnapshot {
            sampled: self.c.sampled.load(Ordering::Relaxed),
            promotions: self.c.promotions.load(Ordering::Relaxed),
            demotions: self.c.demotions.load(Ordering::Relaxed),
            front_hits: self.c.front_hits.sum(),
            front_absent: self.c.front_absent.sum(),
            front_pending: self.c.front_pending.sum(),
            fills: self.c.fills.load(Ordering::Relaxed),
            poisons: self.c.poisons.load(Ordering::Relaxed),
            delegated,
            combined_batches: delegated,
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
    fn a_write_through_hides_the_old_copy_until_it_installs() {
        let e = eager(4);
        e.pin(17);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(17, &mut out) else { panic!("pending") };
        e.fill(&t, Some(b"old"));
        // Probe from inside the backing write, after the backing holds
        // `new`: a reader that saw `new` there must not be served `old`
        // by its next front read.
        let mut probe = Vec::new();
        let mut during = None;
        e.write_through(17, Some(b"new"), || {
            during = Some(e.read(17, &mut probe));
            true
        });
        let during = during.expect("apply ran");
        assert!(
            !matches!(during, FrontRead::Hit),
            "front served {probe:?} while the backing write was in flight: {during:?}"
        );
        out.clear();
        assert!(matches!(e.read(17, &mut out), FrontRead::Hit));
        assert_eq!(out, b"new");
    }

    #[test]
    fn delegated_writes_refresh_the_slot_write_through() {
        let e = eager(4);
        e.pin(11);
        assert!(e.fronted(11));
        let created = e.write_through(11, Some(b"fresh"), || true);
        assert!(created);
        let mut out = Vec::new();
        assert!(matches!(e.read(11, &mut out), FrontRead::Hit));
        assert_eq!(out, b"fresh");
        // A write-through delete caches the absence.
        assert!(e.write_through(11, None, || true));
        out.clear();
        assert!(matches!(e.read(11, &mut out), FrontRead::Absent));
        let s = e.stats();
        assert_eq!(s.delegated, 2);
        assert_eq!(s.combined_batches, s.delegated);
    }

    #[test]
    fn delegated_u64_insert_and_remove_round_trip() {
        let e = eager(4);
        e.pin(21);
        let caller = std::thread::current().id();
        let mut applied_on = None;
        let created = e.write_through(21, Some(&777u64.to_le_bytes()), || {
            applied_on = Some(std::thread::current().id());
            true
        });
        assert!(created);
        assert_eq!(applied_on, Some(caller), "the apply runs once, on the writer's thread");
        let mut out = Vec::new();
        assert!(matches!(e.read(21, &mut out), FrontRead::Hit));
        assert_eq!(out, 777u64.to_le_bytes(), "a write-through refreshes the slot");
        assert!(e.write_through(21, None, || true));
        out.clear();
        assert!(matches!(e.read(21, &mut out), FrontRead::Absent), "a delete caches absence");
    }

    #[test]
    fn failed_mutations_leave_the_cached_copy_alone() {
        let e = eager(4);
        e.pin(13);
        e.write_through(13, Some(&5u64.to_le_bytes()), || true);
        // A failed delete (the backing found nothing to remove) must not
        // clobber the copy.
        assert!(!e.write_through(13, None, || false));
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
        assert_eq!(s.combined_batches, s.delegated);
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
                        e.write_through(99, Some(&val.to_le_bytes()), || {
                            // The "backing": last writer wins, serialized
                            // by the slot lock.
                            backing.store(val, Ordering::Relaxed);
                            true
                        });
                        // The cached copy must be *some* written value,
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
