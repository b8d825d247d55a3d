//! The hot-key engine: detection, front cache, and write-through for
//! skewed traffic.
//!
//! Sharding removes *cross-key* contention, but under Zipfian skew a
//! minority of keys carries most of the traffic, and every read of one of
//! them walks the same index path and arena indirection. By ASCY1 a search
//! should store nothing and touch as few lines as possible; a read of a
//! fronted key touches one direct-mapped slot. This module has three parts:
//!
//! 1. **Detection** — each operation ticks a per-thread countdown; when it
//!    runs out (on average once every `sample_every` operations) the key
//!    bumps a per-shard conservative-update count-min sketch. A key whose
//!    estimate reaches `promote_min` is admitted on the spot, in O(1): it
//!    takes its direct-mapped slot if the slot is empty or if the
//!    occupant's estimate is less than half of its own. Every
//!    `decay_every` samples a shard's sketch is halved and the slots whose
//!    occupants' estimates fell below half of `promote_min` are released.
//!    [`HotKeyEngine::hot_keys`] reads the slots and the sketch.
//! 2. **Front cache** — fronted keys get seqlock-versioned value copies in
//!    a slot array consulted *before* the shard route on reads. A hit is a
//!    filter load, a slot's lines and a short copy; the epoch guard, index
//!    walk, and arena indirection of the backing path are all skipped. A
//!    hit also marks the slot referenced (one store per CLOCK lap), so the
//!    cache tier does not evict a key that is read only through the front.
//! 3. **Write-through** — a write to a fronted key takes the key's slot
//!    word, applies to the backing and installs the new copy before it
//!    frees the word ([`HotKeyEngine::write`]). The word is held around
//!    exactly the stores a sequential update would make, as in the
//!    paper's lock-based structures; writes to different hot keys never
//!    wait for each other.
//!
//! # Sizing
//!
//! Skew that matters is wide, not deep: under zipf(0.99) over 200 000 keys
//! the top 16 keys carry a quarter of the traffic, the top 1 000 carry 57 %,
//! and the top 2 000 carry 62 %. A front covers the median read only once
//! it covers more than half of the traffic, so [`MAX_K`] and the default
//! `k` are 1 024, i.e. 4 096 slots of ~300 B each. The defaults detect
//! that deep: with 1-in-16 sampling, promotion at 16 and a decay every
//! 65 536 samples per shard, a key is fronted once it carries about one
//! operation in 8 000 of its shard's traffic — over four shards, rank
//! ~2 500 of that keyspace. Fewer shards front fewer keys: a shard's sketch
//! is sized for its own traffic, which keeps the noise floor under the
//! threshold at any shard count. Uniform traffic pays one
//! thread-local decrement per operation and never promotes, so the slot
//! array and its filter, which the first promotion allocates, are never
//! allocated: a read pays one load of an unset cell.
//!
//! # Coherence contract
//!
//! A front-cache read **never returns a value older than the last
//! completed write** to that key. Each slot synchronizes on one word,
//! `seq`, a versioned lock like BST-TK's (`ascylib_sync::versioned`, §6.2
//! of the paper), which folds "lock, validate, update, bump the version"
//! into one CAS. Even means free and stable, odd means held: a writer
//! takes the slot with a CAS from an even `s` to `s + 1` and frees it by
//! storing `s + 2`, so every take moves the version, whether or not it
//! writes anything. The protocol, all of it in this module:
//!
//! * The backing structure is written *first*, always. The front cache is
//!   strictly a cache of the backing — a reader that bypasses it (scans,
//!   batched paths, `contains`) can never observe staleness.
//! * Readers are a seqlock's: they copy between two loads of `seq` and
//!   fall through to the backing if it was odd or moved.
//! * [`HotKeyEngine::write`] is the one write entry point. If the filter
//!   names the key, the write takes the slot word *before* its backing
//!   write and frees it after installing the new copy — a value, an
//!   absence, or pending for a TTL'd or oversize value — so no reader can
//!   pair a new backing value with the old copy, and the word orders one
//!   key's writes. Otherwise it applies, then **poisons**: if a promotion
//!   raced the write, the cached copy is dropped under the word.
//! * A delete — `del`, and the cache tier's eviction and expiry — has
//!   changed the copy when `write` returns, and its caller retires the
//!   displaced blob only then, so a copy never outlives what it mirrors.
//! * Reads of a fronted-but-empty (pending) slot fall through to the
//!   backing and then offer what they read to [`HotKeyEngine::fill`]. The
//!   fill carries the even `seq` the probe validated (a lease, in memcache
//!   terms) and lands only if its CAS from that `seq` succeeds: checking
//!   the lease and taking the slot are one operation, and any take since
//!   the probe — claim, release, poison, write, another fill — voids it.
//! * The fill also decides that a value with a deadline is never
//!   installed, so a front hit cannot outlive a TTL.
//!
//! Values longer than [`FRONT_VALUE_CAP`] are never cached (their slot
//! stays pending and reads pass through); their writes still take the
//! slot word.

use std::alloc::Layout;
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use crossbeam_utils::CachePadded;

use crate::router::ShardRouter;
use crate::stats::Striped;

/// Largest payload a front-cache slot can hold, in bytes. Bigger values
/// pass through to the backing on every read.
pub const FRONT_VALUE_CAP: usize = 256;

/// Hard ceiling on `k`, and its default: 4 096 slots, enough to front the
/// ~2 000 keys that carry 60 % of a zipf(0.99) stream (module docs). The
/// cost is memory — about 1.2 MiB of slots, allocated by the first
/// promotion — not probe time, which is one filter load per read at any
/// size.
pub const MAX_K: usize = 1024;

const FRONT_WORDS: usize = FRONT_VALUE_CAP / 8;

/// `len` sentinel: the slot fronts the key but holds no value copy
/// (readers fall through to the backing and may fill).
const LEN_PENDING: u32 = u32::MAX;
/// `len` sentinel: the key is known absent (cached negative lookup).
const LEN_ABSENT: u32 = u32::MAX - 1;

// 4 rows x 8192 columns x 1 B = 32 KiB per shard. The column count sets
// the noise floor: a decay epoch's 65 536 samples spread over 8192
// columns leave uniform keys' estimates near 10 (4096 columns: near 16,
// the promotion threshold), so a key stands out of the noise only when
// it carries more than ~1/8192 of its shard's samples. A cell saturates
// at 255, far above the threshold: past it a key is simply hot, and the
// next decay lets a hotter key displace a saturated one that shares its
// slot. One-byte cells keep the sketch, which uniform traffic touches
// too, within the memory the engine used before it was widened.
const SKETCH_ROWS: usize = 4;
const SKETCH_COLS: usize = 8192;

/// Estimate a pinned key is raised to: the largest a cell holds, which no
/// sampled key can displace. Each decay of the key's shard halves it like
/// any other, and the first decay that leaves `255 >> n` below half of
/// `promote_min` releases the slot: the 5th at the default `promote_min`
/// of 16 (255 → 127 → 63 → 31 → 15 → 7), unless samples raise it again.
const PINNED: u8 = u8::MAX;

/// Tuning knobs for [`HotKeyEngine`]. `k = 0` disables the engine
/// entirely ([`HotKeyEngine::new`] returns `None` and the blob map runs
/// its plain paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Front width: the engine has `4 × k` direct-mapped slots, rounded up
    /// to a power of two (`k` is clamped to [`MAX_K`]; 0 disables).
    pub k: usize,
    /// Sample on average 1 op in this many for sketch updates (1 samples
    /// everything — useful in tests).
    pub sample_every: u32,
    /// Halve a shard's sketch every this many samples routed to that
    /// shard, releasing the slots whose keys have cooled.
    pub decay_every: u64,
    /// Sketch estimate at which a sampled key is admitted to the front
    /// (estimates saturate at 255).
    pub promote_min: u32,
}

impl Default for HotKeyConfig {
    /// 1 024 (4 096 slots), 1-in-16 sampling, decay every 65 536 samples
    /// per shard, promote at an estimate of 16 (module docs, *Sizing*).
    /// The conservative-update sketch keeps a key's estimate near its true
    /// sampled count, so the promotion threshold separates skew from noise
    /// directly: a key must account for ~8 of the 65 536 samples its shard
    /// takes in a decay epoch (twice that before a decay halves it) to be
    /// fronted. A uniform stream's estimates settle near 10, under the
    /// threshold.
    fn default() -> Self {
        HotKeyConfig { k: MAX_K, sample_every: 16, decay_every: 65_536, promote_min: 16 }
    }
}

impl HotKeyConfig {
    /// The default configuration with `k` fronted keys.
    pub fn with_k(k: usize) -> Self {
        HotKeyConfig { k, ..Default::default() }
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

/// A fill lease handed out by a pending front-cache probe: the even `seq`
/// the probe validated. The install takes the slot with a CAS from that
/// version, so it lands only if no writer took the slot after the lease
/// was taken (and therefore possibly after the caller's backing read).
#[derive(Debug, Clone, Copy)]
pub struct FillTicket {
    slot: usize,
    key: u64,
    seq: u64,
}

/// Point-in-time engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotKeyStatsSnapshot {
    /// Operations the sampler fed into the sketch.
    pub sampled: u64,
    /// Keys admitted to a front slot.
    pub promotions: u64,
    /// Keys that lost their slot (decayed out or displaced).
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
    /// Writes to a fronted key applied write-through under its slot word
    /// (a delete by the cache tier's eviction or expiry included).
    pub delegated: u64,
    /// Always equal to `delegated` (every write is its own pass). Kept
    /// only because `benchmark/src/run.rs` reads it for its
    /// `hotkey.avg_batch` rung.
    pub combined_batches: u64,
    /// Keys currently fronted (a gauge).
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
}

thread_local! {
    /// Operations this thread has left before its next sample.
    static COUNTDOWN: Cell<u32> = const { Cell::new(1) };
    /// The generator of the gaps between this thread's samples.
    static GAP_SEED: Cell<u64> = const { Cell::new(0) };
}

/// `n` all-zero `T`s taken from the allocator's zeroed memory. Nothing
/// writes the zeros, so the pages of a large slice stay out of the
/// resident set until something stores into them.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid `T`.
unsafe fn zeroed_slice<T>(n: usize) -> Box<[T]> {
    let layout = Layout::array::<T>(n).expect("slice size overflows");
    assert!(layout.size() > 0, "zeroed_slice of a zero-sized layout");
    // SAFETY: the layout has a non-zero size (asserted above).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` holds `n` zeroed `T`s, valid by the caller's promise,
    // in an allocation of exactly `Layout::array::<T>(n)` — the layout a
    // `Box<[T]>` of length `n` frees with.
    unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n)) }
}

// ---------------------------------------------------------------------------
// Detection: per-shard count-min sketch with decay.

struct Sketch {
    /// Samples routed to this sketch; every `decay_every`th halves it.
    samples: CachePadded<AtomicU64>,
    rows: [[AtomicU8; SKETCH_COLS]; SKETCH_ROWS],
}

#[inline]
fn mix(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl Sketch {
    /// The key's cell in each row.
    fn cells(&self, key: u64) -> [&AtomicU8; SKETCH_ROWS] {
        let h1 = mix(key);
        let h2 = mix(key ^ 0xC2B2_AE3D_27D4_EB4F) | 1;
        std::array::from_fn(|i| {
            let idx = h1.wrapping_add(h2.wrapping_mul(i as u64)) % SKETCH_COLS as u64;
            &self.rows[i][idx as usize]
        })
    }

    /// The count-min estimate of `key`: the least of its cells.
    fn estimate(&self, key: u64) -> u32 {
        self.cells(key).iter().map(|c| u32::from(c.load(Ordering::Relaxed))).min().unwrap_or(0)
    }

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
        let cells = self.cells(key);
        let seen = cells.map(|c| c.load(Ordering::Relaxed));
        let est = seen.iter().copied().min().unwrap_or(0);
        // A saturated estimate stays put until a decay halves it.
        let Some(target) = est.checked_add(1) else { return u32::from(est) };
        for (cell, seen) in cells.iter().zip(seen) {
            if seen < target {
                cell.fetch_max(target, Ordering::Relaxed);
            }
        }
        u32::from(target)
    }

    /// Raises every cell of `key` to at least `to`.
    fn raise(&self, key: u64, to: u8) {
        for cell in self.cells(key) {
            cell.fetch_max(to, Ordering::Relaxed);
        }
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

// ---------------------------------------------------------------------------
// Front cache slots.

struct FrontSlot {
    /// The slot's one synchronization word, a versioned lock: even = free
    /// and stable, odd = held by a writer (module docs). Every take moves
    /// it, so it is also the seqlock readers validate and the fill lease.
    seq: AtomicU64,
    /// The fronted key (0 = empty; the structures reserve key 0).
    key: AtomicU64,
    /// Cached payload length, or [`LEN_PENDING`] / [`LEN_ABSENT`]
    /// (meaningless while `key` is 0).
    len: AtomicU32,
    /// Set by a front hit when clear, cleared by the cache tier's CLOCK
    /// hand ([`HotKeyEngine::take_referenced`]) and by a change of owner.
    referenced: AtomicU32,
    /// Payload bytes, word-packed (torn reads are rejected by `seq`).
    words: [AtomicU64; FRONT_WORDS],
}

impl FrontSlot {
    /// Takes the slot at version `s` (even): one CAS to `s + 1`, which
    /// fails if any writer took the slot since `s` was read. Its acquire
    /// pairs with [`free`](Self::free)'s release, so the taker sees the
    /// slot as its last holder left it. The release fence keeps the slot
    /// stores that follow from being seen before the odd word, so a reader
    /// that sees one of them fails its validation. Spurious failure only
    /// drops a fill or spins once more.
    #[inline]
    fn take_at(&self, s: u64) -> bool {
        let taken =
            self.seq.compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed).is_ok();
        if taken {
            fence(Ordering::Release);
        }
        taken
    }

    /// Takes the slot at whatever version it is free at, and returns that
    /// version for [`free`](Self::free).
    fn take(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0 && self.take_at(s) {
                return s;
            }
            spins += 1;
            if spins % 1024 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Frees a slot taken at version `s`, publishing what was stored.
    #[inline]
    fn free(&self, s: u64) {
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Stores the slot contents; only while the slot is taken.
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
    promotions: AtomicU64,
    demotions: AtomicU64,
    front_hits: Striped<AtomicU64>,
    front_absent: Striped<AtomicU64>,
    front_pending: Striped<AtomicU64>,
    fills: AtomicU64,
    poisons: AtomicU64,
    delegated: Striped<AtomicU64>,
}

impl Default for EngineCounters {
    fn default() -> Self {
        EngineCounters {
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

/// The front slots and their filter.
struct Front {
    slots: Box<[FrontSlot]>,
    /// Read-path filter mirroring each slot's owner key. A `FrontSlot`
    /// spans multiple cache lines, so cold-key probes into `slots` would
    /// miss L1; this dense array (8 B per slot) stays resident and
    /// rejects non-fronted keys with a single relaxed load. It is
    /// updated under the slot word wherever ownership changes, after the
    /// slot itself; a stale entry can only cause a benign miss or a wasted
    /// full probe — the slot's own `key` stays authoritative inside the
    /// seqlock dance.
    filter: Box<[AtomicU64]>,
}

impl Front {
    fn new(slot_count: usize) -> Front {
        // SAFETY: slots and filter entries are atomics throughout; all-zero
        // is an empty slot (key 0) and an empty filter entry. Zeroed
        // allocations leave the pages of slots no key ever takes untouched.
        unsafe { Front { slots: zeroed_slice(slot_count), filter: zeroed_slice(slot_count) } }
    }
}

/// The three-part hot-key engine (see the module docs). One instance
/// serves one [`BlobMap`](crate::BlobMap), which constructs it
/// (`with_hotkeys`, `with_config`) and threads every operation through it.
pub struct HotKeyEngine {
    k: usize,
    sample_every: u32,
    decay_every: u64,
    promote_min: u32,
    router: ShardRouter,
    sketches: Box<[Sketch]>,
    slot_count: usize,
    slot_shift: u32,
    /// The slot array, allocated by the first promotion: until then a
    /// front probe is one load of this cell, and an engine that never
    /// promotes costs no memory for it.
    front: OnceLock<Front>,
    /// Number of slots currently owning a key (`slot.key != 0`),
    /// maintained under the slot words: the `fronted` gauge.
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
        // 4x fan-out: keys are direct-mapped, and a slot shared by two hot
        // keys fronts only one of them. With 4k slots, a key of rank r
        // finds its slot held by a key more than twice as hot (which keeps
        // it) with probability ~r / 8k, so the top k keep over 90 % of
        // their slots.
        let slot_count = (k * 4).next_power_of_two().max(8);
        Some(Box::new(HotKeyEngine {
            k,
            sample_every: cfg.sample_every.max(1),
            decay_every: cfg.decay_every.max(1),
            promote_min: cfg.promote_min.max(1),
            router: ShardRouter::new(shards),
            // SAFETY: a sketch is atomics throughout; all-zero is empty.
            sketches: unsafe { zeroed_slice(shards) },
            slot_count,
            slot_shift: 64 - slot_count.trailing_zeros(),
            front: OnceLock::new(),
            live: CachePadded::new(AtomicU64::new(0)),
            c: EngineCounters::default(),
        }))
    }

    /// The `k` this engine was configured for (it has `4 × k` slots).
    pub fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn slot_idx(&self, key: u64) -> usize {
        (mix(key) >> self.slot_shift) as usize
    }

    /// `key`'s slot and index if the filter names `key` (so it may own the
    /// slot). A `None` is final for callers that have already written the
    /// backing (module docs); a slot handed back is checked against its
    /// own `key`.
    #[inline]
    fn probe(&self, key: u64) -> Option<(&FrontSlot, usize)> {
        let front = self.front.get()?;
        let idx = self.slot_idx(key);
        (key != 0 && front.filter[idx].load(Ordering::Relaxed) == key)
            .then(|| (&front.slots[idx], idx))
    }

    fn sketch_of(&self, key: u64) -> &Sketch {
        &self.sketches[self.router.route(key)]
    }

    // -- detection ---------------------------------------------------------

    /// Hot-path detection hook: call once per keyspace operation. Pays a
    /// thread-local decrement; when the countdown runs out, the key feeds
    /// the sketch (and may be admitted) and the next gap is drawn uniformly
    /// from `1..2N` for a mean of `N = sample_every`. The countdown is
    /// shared by every engine the thread drives; random gaps keep a strided
    /// interleaving of two engines from starving either.
    #[inline]
    pub fn record_access(&self, key: u64) {
        if key == 0 {
            return;
        }
        let left = COUNTDOWN.with(|c| {
            let left = c.get() - 1;
            c.set(left);
            left
        });
        if left == 0 {
            self.sample(key);
        }
    }

    #[cold]
    fn sample(&self, key: u64) {
        let seed = GAP_SEED.with(|g| {
            let seed = g.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
            g.set(seed);
            seed
        });
        let gap = 1 + (mix(seed) % (2 * u64::from(self.sample_every) - 1)) as u32;
        COUNTDOWN.with(|c| c.set(gap));
        let shard = self.router.route(key);
        let sketch = &self.sketches[shard];
        let est = sketch.bump(key);
        if (sketch.samples.fetch_add(1, Ordering::Relaxed) + 1) % self.decay_every == 0 {
            self.decay(shard);
        }
        if est >= self.promote_min {
            self.admit(key, est);
        }
    }

    /// O(1) admission of a key whose estimate reached the threshold: it
    /// takes its slot if the slot is empty, or if the occupant's estimate
    /// is less than half of its own (the margin keeps two keys of similar
    /// heat from trading the slot back and forth).
    fn admit(&self, key: u64, est: u32) {
        let front = self.front.get_or_init(|| Front::new(self.slot_count));
        let idx = self.slot_idx(key);
        let cur = front.filter[idx].load(Ordering::Relaxed);
        if cur == key || (cur != 0 && est <= self.sketch_of(cur).estimate(cur).saturating_mul(2)) {
            return;
        }
        self.take_slot(front, idx, key);
    }

    /// Halves shard `shard`'s sketch, then releases the slots of its keys
    /// whose estimate fell below half the promotion threshold.
    fn decay(&self, shard: usize) {
        self.sketches[shard].decay();
        let Some(front) = self.front.get() else { return };
        let floor = self.promote_min / 2;
        for (idx, entry) in front.filter.iter().enumerate() {
            let key = entry.load(Ordering::Relaxed);
            if key != 0
                && self.router.route(key) == shard
                && self.sketches[shard].estimate(key) < floor
            {
                self.release_slot(front, idx, key);
            }
        }
    }

    /// Points slot `idx` at `key`, pending, whatever it held before.
    fn take_slot(&self, front: &Front, idx: usize, key: u64) {
        let slot = &front.slots[idx];
        let s = slot.take();
        let prev = slot.key.load(Ordering::Relaxed);
        if prev != key {
            if prev == 0 {
                self.live.fetch_add(1, Ordering::Relaxed);
            } else {
                self.c.demotions.fetch_add(1, Ordering::Relaxed);
            }
            self.c.promotions.fetch_add(1, Ordering::Relaxed);
            slot.store(key, SlotState::Pending);
            slot.referenced.store(0, Ordering::Relaxed);
            front.filter[idx].store(key, Ordering::Relaxed);
        }
        slot.free(s);
    }

    /// Empties slot `idx` if it still fronts `key`.
    fn release_slot(&self, front: &Front, idx: usize, key: u64) {
        let slot = &front.slots[idx];
        let s = slot.take();
        if slot.key.load(Ordering::Relaxed) == key {
            self.live.fetch_sub(1, Ordering::Relaxed);
            self.c.demotions.fetch_add(1, Ordering::Relaxed);
            slot.store(0, SlotState::Pending);
            slot.referenced.store(0, Ordering::Relaxed);
            front.filter[idx].store(0, Ordering::Relaxed);
        }
        slot.free(s);
    }

    /// Fronts `key` now, whatever holds its slot, and raises its estimate
    /// to the cell maximum, 255. Decay halves it like any other, so without
    /// further samples the pin ends at the first decay of its shard that
    /// leaves `255 >> n` below `promote_min / 2` — the 5th at the default
    /// `promote_min` of 16. For tests and operational pinning.
    pub fn pin(&self, key: u64) {
        self.sketch_of(key).raise(key, PINNED);
        let front = self.front.get_or_init(|| Front::new(self.slot_count));
        self.take_slot(front, self.slot_idx(key), key);
    }

    /// The fronted keys with their sketch estimates, hottest first.
    /// Estimates are sampled counts (multiply by the sampling rate for an
    /// absolute figure) and decay over time.
    pub fn hot_keys(&self) -> Vec<(u64, u64)> {
        let Some(front) = self.front.get() else { return Vec::new() };
        let mut v: Vec<(u64, u64)> = front
            .filter
            .iter()
            .map(|entry| entry.load(Ordering::Relaxed))
            .filter(|&key| key != 0)
            .map(|key| (key, u64::from(self.sketch_of(key).estimate(key))))
            .collect();
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
        // Until detection promotes something the whole probe is one load
        // of the unset `front` cell. Then the cold-key fast path: a single
        // relaxed load of the L1-resident filter rejects keys that are not
        // fronted without touching the (much larger) slot array. Races
        // with a concurrent claim/steal are benign — the backing store is
        // always coherent, so a stale mismatch just means one more backing
        // read.
        let Some((slot, idx)) = self.probe(key) else { return FrontRead::Miss };
        let start = out.len();
        for _ in 0..2 {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 != 0 {
                // A writer is mid-update; the backing is always coherent.
                self.c.front_pending.incr();
                return FrontRead::Miss;
            }
            if slot.key.load(Ordering::Relaxed) != key {
                return FrontRead::Miss;
            }
            let len = slot.len.load(Ordering::Relaxed);
            let res = if len == LEN_PENDING {
                // The lease is the `seq` validated below, taken *before*
                // the caller reads the backing: any take of the slot after
                // that read moves `seq` and voids it.
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
                // One store per CLOCK lap, not one per read.
                if slot.referenced.load(Ordering::Relaxed) == 0 {
                    slot.referenced.store(1, Ordering::Relaxed);
                }
                FrontRead::Hit
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                match &res {
                    FrontRead::Hit => self.c.front_hits.incr(),
                    FrontRead::Absent => self.c.front_absent.incr(),
                    FrontRead::Pending(_) => self.c.front_pending.incr(),
                    FrontRead::Miss => {}
                }
                return res;
            }
            // Torn read: the slot changed under us; drop the partial copy
            // and retry once, then let the backing answer.
            out.truncate(start);
        }
        self.c.front_pending.incr();
        FrontRead::Miss
    }

    /// Offers a backing read's result to a pending slot: `found` is the
    /// value read and whether it carries a deadline, `None` a miss. A miss
    /// caches absence and a value without a deadline is installed; a value
    /// with one is never installed, nor is one over [`FRONT_VALUE_CAP`]
    /// (the slot stays pending and reads keep consulting the
    /// expiry-checking backing). The install lands only if the slot is
    /// still at the lease's version: one CAS both checks the lease and
    /// takes the slot, so a fill that lost to any writer since the probe,
    /// or finds the slot busy, is dropped, which is always safe.
    pub fn fill(&self, ticket: &FillTicket, found: Option<(&[u8], bool)>) {
        let state = match found {
            Some((v, false)) if v.len() <= FRONT_VALUE_CAP => SlotState::Value(v),
            Some(_) => return,
            None => SlotState::Absent,
        };
        let Some(front) = self.front.get() else { return };
        let slot = &front.slots[ticket.slot];
        if slot.take_at(ticket.seq) {
            // Unchanged since the probe validated it at this version.
            debug_assert_eq!(slot.key.load(Ordering::Relaxed), ticket.key);
            slot.store(ticket.key, state);
            self.c.fills.fetch_add(1, Ordering::Relaxed);
            slot.free(ticket.seq);
        }
    }

    // -- front cache: write side -------------------------------------------

    /// The engine's one write entry point: `apply` performs a write of
    /// `key` against the backing and returns its outcome (set: created,
    /// delete: found), `value` is what it wrote (`None` = a delete) and
    /// `expires` whether that value carries a deadline.
    ///
    /// If the filter names the key, the write goes under its slot word:
    /// taken *before* `apply`, freed after the copy is installed — the
    /// value, or `Absent` after a successful delete, or `Pending` for a
    /// TTL'd or oversize value — so readers of the key fall through to the
    /// backing until the copy equals it. A failed delete mutated nothing
    /// and leaves the copy alone. If the slot no longer fronts `key`,
    /// `apply` still runs under the word and the slot is untouched: a later
    /// claim of the key waits for the word, so its fill lease postdates
    /// the write. Otherwise the write applies, then poisons (module docs).
    /// Either way no copy older than the write is left when this returns,
    /// so the caller may retire what `apply` displaced.
    ///
    /// `apply` may run holding the slot word and must not call back into
    /// the engine: `pin`, `record_access` (which may claim a slot) and
    /// `write` itself would spin on a word it holds.
    pub fn write(
        &self,
        key: u64,
        value: Option<&[u8]>,
        expires: bool,
        apply: impl FnOnce() -> bool,
    ) -> bool {
        let Some((slot, _)) = self.probe(key) else {
            let ok = apply();
            self.poison(key);
            return ok;
        };
        let s = slot.take();
        let owned = slot.key.load(Ordering::Relaxed) == key;
        let ok = apply();
        // The copy's stores drain from the store buffer after this returns;
        // stored before `apply`, they would stall its first locked
        // instruction instead.
        if owned {
            self.c.delegated.incr();
            match value {
                None if !ok => {}
                None if !expires => slot.store(key, SlotState::Absent),
                Some(v) if !expires && v.len() <= FRONT_VALUE_CAP => {
                    slot.store(key, SlotState::Value(v))
                }
                _ => slot.store(key, SlotState::Pending),
            }
        }
        slot.free(s);
        ok
    }

    /// The plain writer's post-apply step: if the key turns out to be
    /// fronted (a promotion raced this write), drop the cached copy, and
    /// with it every outstanding fill lease, so no reader can be served a
    /// value older than this completed write. A claim writes the slot
    /// before the filter, and a reader needs the filter to name the key
    /// before it can take a lease, so a filter that does not name the key
    /// here means no lease predates this write.
    fn poison(&self, key: u64) {
        let Some((slot, _)) = self.probe(key) else { return };
        let s = slot.take();
        if slot.key.load(Ordering::Relaxed) == key {
            slot.store(key, SlotState::Pending);
            self.c.poisons.fetch_add(1, Ordering::Relaxed);
        }
        slot.free(s);
    }

    /// CLOCK's view of front hits: `true` if `key` is fronted and was
    /// served from the front since the last call, which clears the mark.
    /// A front hit touches no blob, so the blob's own reference bit never
    /// sees it; the cache tier consumes this mark the way it consumes that
    /// bit, so a fronted key that is no longer read goes after one lap.
    pub fn take_referenced(&self, key: u64) -> bool {
        let Some((slot, _)) = self.probe(key) else { return false };
        let referenced = &slot.referenced;
        let marked = referenced.load(Ordering::Relaxed) != 0;
        if marked {
            referenced.store(0, Ordering::Relaxed);
        }
        marked
    }

    // -- stats -------------------------------------------------------------

    /// A point-in-time copy of the engine counters.
    pub fn stats(&self) -> HotKeyStatsSnapshot {
        let delegated = self.c.delegated.total();
        HotKeyStatsSnapshot {
            sampled: self.sketches.iter().map(|s| s.samples.load(Ordering::Relaxed)).sum(),
            promotions: self.c.promotions.load(Ordering::Relaxed),
            demotions: self.c.demotions.load(Ordering::Relaxed),
            front_hits: self.c.front_hits.total(),
            front_absent: self.c.front_absent.total(),
            front_pending: self.c.front_pending.total(),
            fills: self.c.fills.load(Ordering::Relaxed),
            poisons: self.c.poisons.load(Ordering::Relaxed),
            delegated,
            combined_batches: delegated,
            fronted: self.live.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for HotKeyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotKeyEngine")
            .field("k", &self.k)
            .field("slots", &self.slot_count)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fronted(e: &HotKeyEngine, key: u64) -> bool {
        e.probe(key).is_some()
    }

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
    fn the_first_promotion_allocates_the_front() {
        let e = HotKeyEngine::new(
            2,
            HotKeyConfig { k: 4, sample_every: 1, decay_every: 1 << 40, promote_min: 3 },
        )
        .unwrap();
        for key in 1..=1000 {
            e.record_access(key);
            e.record_access(key);
        }
        let mut out = Vec::new();
        assert!(matches!(e.read(5, &mut out), FrontRead::Miss));
        e.poison(5);
        assert!(e.front.get().is_none(), "keys below the threshold allocate no slots");
        e.record_access(5);
        assert!(e.front.get().is_some() && fronted(&e, 5), "a promotion allocates and fronts");
    }

    #[test]
    fn interleaved_engines_both_sample() {
        // Two engines driven alternately by one thread share the
        // per-thread countdown; its random gaps must keep both samplers
        // firing (a fixed gap of 2 strands whichever engine lands on the
        // wrong residue of the shared stride).
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
        e.fill(&t, Some((b"payload", false)));
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
        e.fill(&t, Some((&vec![0u8; FRONT_VALUE_CAP + 1], false)));
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
        e.fill(&t, Some((b"stale", false)));
        assert!(
            matches!(e.read(5, &mut out), FrontRead::Pending(_)),
            "a fill whose lease predates a poison must not land"
        );
        assert_eq!(e.stats().poisons, 1);
        assert_eq!(e.stats().fills, 0);
    }

    #[test]
    fn a_take_that_writes_nothing_still_voids_a_fill_lease() {
        let e = eager(4);
        e.pin(5);
        let slot = &e.front.get().expect("pinned").slots[e.slot_idx(5)];
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(5, &mut out) else { panic!("pending") };
        let s = slot.take();
        slot.free(s);
        e.fill(&t, Some((b"stale", false)));
        assert!(
            matches!(e.read(5, &mut out), FrontRead::Pending(_)),
            "a fill whose lease predates a take must not land"
        );
        // The same through the write entry point: a failed delete stores
        // nothing in the slot, but its take still voids the lease.
        let FrontRead::Pending(t) = e.read(5, &mut out) else { panic!("pending") };
        assert!(!e.write(5, None, false, || false));
        e.fill(&t, Some((b"stale", false)));
        assert!(matches!(e.read(5, &mut out), FrontRead::Pending(_)));
        assert_eq!(e.stats().fills, 0);
    }

    #[test]
    fn a_ttl_write_to_a_fronted_key_leaves_no_stale_copy() {
        let e = eager(4);
        e.pin(19);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(19, &mut out) else { panic!("pending") };
        e.fill(&t, Some((b"old", false)));
        let mut probe = Vec::new();
        let mut during = None;
        assert!(e.write(19, Some(b"new"), true, || {
            during = Some(e.read(19, &mut probe));
            true
        }));
        let during = during.expect("apply ran");
        assert!(matches!(during, FrontRead::Miss), "read during a TTL'd write: {during:?}");
        assert!(
            matches!(e.read(19, &mut out), FrontRead::Pending(_)),
            "a TTL'd value is never installed, and the old copy is gone"
        );
        // Nor does a fill install it later.
        let FrontRead::Pending(t) = e.read(19, &mut out) else { panic!("pending") };
        e.fill(&t, Some((b"new", true)));
        assert!(matches!(e.read(19, &mut out), FrontRead::Pending(_)));
        assert_eq!(e.stats().fills, 1);
    }

    #[test]
    fn a_write_through_hides_the_old_copy_until_it_installs() {
        let e = eager(4);
        e.pin(17);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(17, &mut out) else { panic!("pending") };
        e.fill(&t, Some((b"old", false)));
        // Probe from inside the backing write, after the backing holds
        // `new`: a reader that saw `new` there must not be served `old`
        // by its next front read.
        let mut probe = Vec::new();
        let mut during = None;
        e.write(17, Some(b"new"), false, || {
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
        assert!(fronted(&e, 11));
        let created = e.write(11, Some(b"fresh"), false, || true);
        assert!(created);
        let mut out = Vec::new();
        assert!(matches!(e.read(11, &mut out), FrontRead::Hit));
        assert_eq!(out, b"fresh");
        // A write-through delete caches the absence.
        assert!(e.write(11, None, false, || true));
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
        let created = e.write(21, Some(&777u64.to_le_bytes()), false, || {
            applied_on = Some(std::thread::current().id());
            true
        });
        assert!(created);
        assert_eq!(applied_on, Some(caller), "the apply runs once, on the writer's thread");
        let mut out = Vec::new();
        assert!(matches!(e.read(21, &mut out), FrontRead::Hit));
        assert_eq!(out, 777u64.to_le_bytes(), "a write-through refreshes the slot");
        assert!(e.write(21, None, false, || true));
        out.clear();
        assert!(matches!(e.read(21, &mut out), FrontRead::Absent), "a delete caches absence");
    }

    #[test]
    fn failed_mutations_leave_the_cached_copy_alone() {
        let e = eager(4);
        e.pin(13);
        e.write(13, Some(&5u64.to_le_bytes()), false, || true);
        // A failed delete (the backing found nothing to remove) must not
        // clobber the copy.
        assert!(!e.write(13, None, false, || false));
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
        assert!(fronted(&e, 77), "hot key promoted and fronted");
        // Cold traffic floods the sampler; repeated decays halve 77's
        // count to zero and the slot must come back.
        for i in 0..4096u64 {
            e.record_access(1000 + i);
        }
        assert!(!fronted(&e, 77), "decayed key must be demoted");
        assert!(e.stats().demotions >= 1);
        assert!(e.hot_keys().iter().all(|&(k, _)| k != 77));
    }

    #[test]
    fn a_pin_is_released_at_its_shards_fifth_decay_by_default() {
        let e = HotKeyEngine::new(4, HotKeyConfig::default()).unwrap();
        let key = 42;
        let shard = e.router.route(key);
        e.pin(key);
        for decay in 1..=4 {
            e.decay(shard);
            assert!(fronted(&e, key), "released after decay {decay}, before the 5th");
        }
        e.decay(shard);
        assert!(!fronted(&e, key), "255 >> 5 = 7 is below promote_min / 2 = 8");
    }

    #[test]
    fn hit_rate_and_batch_stats_are_sane_on_empty() {
        let s = HotKeyStatsSnapshot::default();
        assert_eq!(s.front_hit_rate(), 0.0);
        assert_eq!(s.combined_batches, s.delegated);
    }

    /// A key that shares `key`'s direct-mapped slot.
    fn slot_mate(e: &HotKeyEngine, key: u64) -> u64 {
        (key + 1..).find(|&k| e.slot_idx(k) == e.slot_idx(key)).expect("some key shares the slot")
    }

    #[test]
    fn pin_takes_its_slot_from_any_occupant() {
        let e = eager(2);
        let mate = slot_mate(&e, 1);
        e.pin(1);
        e.pin(2);
        e.pin(mate);
        assert!(fronted(&e, mate), "the latest pin owns the slot");
        assert!(!fronted(&e, 1), "the pinned key it displaced lost its slot");
        let hot = e.hot_keys();
        assert!(hot.iter().any(|&(k, _)| k == mate), "{hot:?}");
        assert!(hot.iter().all(|&(k, _)| k != 1), "{hot:?}");
        assert_eq!(e.stats().fronted, hot.len() as u64, "the gauge counts the fronted keys");
    }

    #[test]
    fn admission_takes_a_slot_only_from_a_much_colder_occupant() {
        let e = HotKeyEngine::new(
            1,
            HotKeyConfig { k: 4, sample_every: 1, decay_every: 1 << 40, promote_min: 2 },
        )
        .unwrap();
        let (a, b) = (5, slot_mate(&e, 5));
        for _ in 0..10 {
            e.record_access(a);
        }
        assert!(fronted(&e, a), "an estimate past the threshold takes an empty slot");
        for _ in 0..20 {
            e.record_access(b);
        }
        assert!(fronted(&e, a), "twice the occupant's estimate is not enough to displace it");
        e.record_access(b);
        assert!(fronted(&e, b), "more than twice the occupant's estimate takes the slot");
        assert!(!fronted(&e, a));
        let s = e.stats();
        assert_eq!((s.promotions, s.demotions, s.fronted), (2, 1, 1), "{s:?}");
    }

    #[test]
    fn a_front_hit_marks_its_slot_until_clock_takes_the_mark() {
        let e = eager(4);
        assert!(!e.take_referenced(7), "an empty front marks nothing");
        e.pin(7);
        let mut out = Vec::new();
        let FrontRead::Pending(t) = e.read(7, &mut out) else { panic!("pending") };
        e.fill(&t, Some((b"v", false)));
        assert!(!e.take_referenced(7), "a fill is not a front hit");
        for _ in 0..3 {
            out.clear();
            assert!(matches!(e.read(7, &mut out), FrontRead::Hit));
        }
        assert!(e.take_referenced(7), "hits mark the slot");
        assert!(!e.take_referenced(7), "taking the mark clears it");
        assert!(!e.take_referenced(8), "an unfronted key is never marked");
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
                        e.write(99, Some(&val.to_le_bytes()), false, || {
                            // The "backing": last writer wins, serialized
                            // by the slot word.
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
