//! Per-shard serving statistics, and the striped blocks the counters of
//! the GET and SET paths are kept in.
//!
//! The paper's first pattern is that a search stores nothing, and its fourth
//! that an update stores about as many lines as the sequential algorithm
//! would. A counter every thread bumps breaks both: each bump is a store on a
//! line every other thread writes too. So no counter a GET or SET bumps is
//! one shared word. A `Striped` set holds one cache-padded block per stripe;
//! a thread claims a stripe once and writes only that stripe's block, and a
//! read sums the blocks with wrapping adds.
//!
//! The first `STRIPES` (8) stripes are owned: a live thread holds one alone,
//! so its counter writes are plain loads and stores, with neither a locked
//! instruction nor a line another thread writes. A thread that finds every
//! owned stripe taken writes a ninth, overflow block, which all such
//! threads share with read-modify-writes: a line transfer, never a lost
//! count. A thread's stripe is freed when it exits; the next claimer's
//! acquire of it sees every store the last owner made.
//!
//! A sum read while threads record is not an atomic snapshot (each block is
//! read once, in turn); at quiescence it is exact. [`ShardStats`] gives each
//! shard one such set, read through [`ShardStats::snapshot`]. The blob
//! arenas keep their live-blob gauges, byte credits and eviction and expiry
//! counts in the same blocks (`crate::blob`), and the hot-key engine its
//! front counters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Owned stripes: the threads that can record with plain stores on lines of
/// their own.
const STRIPES: usize = 8;

/// The overflow stripe, shared by threads that own none.
const OVERFLOW: usize = STRIPES;

/// Bit `i` is set while a live thread owns stripe `i`.
static OWNED: AtomicUsize = AtomicUsize::new(0);

/// A thread's claim on an owned stripe. Dropped when the thread exits,
/// which frees the stripe for the next thread.
struct Claim(usize);

impl Claim {
    /// Claims the lowest free stripe, or the overflow stripe when none is
    /// free.
    fn new() -> Claim {
        let mut owned = OWNED.load(Ordering::Relaxed);
        loop {
            let free = !owned & ((1 << STRIPES) - 1);
            if free == 0 {
                return Claim(OVERFLOW);
            }
            let id = free.trailing_zeros() as usize;
            // Acquire: the last owner's plain stores to the stripe happen
            // before this thread's first load of it.
            match OWNED.compare_exchange_weak(
                owned,
                owned | 1 << id,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Claim(id),
                Err(seen) => owned = seen,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.0 != OVERFLOW {
            // Whatever this thread records from here on, it records on the
            // overflow stripe, with read-modify-writes.
            STRIPE.set(OVERFLOW);
            OWNED.fetch_and(!(1 << self.0), Ordering::Release);
        }
    }
}

thread_local! {
    /// The calling thread's stripe once it has one (`usize::MAX` before):
    /// the one load of the fast path.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    static CLAIM: Claim = Claim::new();
}

/// The calling thread's stripe: an owned one, or [`OVERFLOW`].
#[inline]
fn stripe_id() -> usize {
    let id = STRIPE.get();
    if id != usize::MAX {
        return id;
    }
    first_stripe()
}

/// Claims the calling thread's stripe on its first record. A thread that
/// first records during its own teardown, when the claim can no longer be
/// made, records on the overflow stripe.
#[cold]
fn first_stripe() -> usize {
    let id = CLAIM.try_with(|c| c.0).unwrap_or(OVERFLOW);
    STRIPE.set(id);
    id
}

/// One cache-padded block `B` per stripe, owned ones and the overflow one.
/// The calling thread writes only its own stripe's block, through
/// [`add`](Self::add) and [`take`](Self::take); a read sums every block.
#[derive(Debug, Default)]
pub(crate) struct Striped<B>([CachePadded<B>; STRIPES + 1]);

impl<B> Striped<B> {
    /// Adds `n` (wrapping) to one counter of the calling thread's block and
    /// returns the counter's new value.
    #[inline]
    pub(crate) fn add(&self, counter: impl Fn(&B) -> &AtomicU64, n: u64) -> u64 {
        let id = stripe_id();
        let c = counter(&self.0[id]);
        if id == OVERFLOW {
            return c.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        }
        // The one writer of this line: no read-modify-write needed.
        let new = c.load(Ordering::Relaxed).wrapping_add(n);
        c.store(new, Ordering::Relaxed);
        new
    }

    /// Takes `n` from one counter of the calling thread's block if it holds
    /// at least that much; `false` (and no change) otherwise.
    #[inline]
    pub(crate) fn take(&self, counter: impl Fn(&B) -> &AtomicU64, n: u64) -> bool {
        let id = stripe_id();
        let c = counter(&self.0[id]);
        if id == OVERFLOW {
            let taken = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(n));
            return taken.is_ok();
        }
        let held = c.load(Ordering::Relaxed);
        if held < n {
            return false;
        }
        c.store(held - n, Ordering::Relaxed);
        true
    }

    /// Every block, in stripe order, the overflow block last.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &B> {
        self.0.iter().map(|b| &**b)
    }

    /// The wrapping sum of one counter over every block.
    pub(crate) fn sum(&self, counter: impl Fn(&B) -> &AtomicU64) -> u64 {
        self.blocks().fold(0, |sum, b| sum.wrapping_add(counter(b).load(Ordering::Relaxed)))
    }
}

impl Striped<AtomicU64> {
    /// Counts one event on the calling thread's stripe.
    #[inline]
    pub(crate) fn incr(&self) {
        self.add(|c| c, 1);
    }

    /// The counter: every stripe summed.
    pub(crate) fn total(&self) -> u64 {
        self.sum(|c| c)
    }
}

/// Per-shard traffic counters: one striped set of counter blocks (module
/// docs).
#[derive(Debug, Default)]
pub struct ShardStats {
    stripes: Striped<Counters>,
}

/// One stripe's block of [`ShardStats`] counters.
#[derive(Debug, Default)]
struct Counters {
    searches: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    inserts_ok: AtomicU64,
    removes: AtomicU64,
    removes_ok: AtomicU64,
    scans: AtomicU64,
    scan_keys: AtomicU64,
}

/// A plain-value copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// `search` calls routed to this shard.
    pub searches: u64,
    /// Searches that found their key.
    pub hits: u64,
    /// `insert` calls routed to this shard.
    pub inserts: u64,
    /// Inserts that succeeded (key was absent).
    pub inserts_ok: u64,
    /// `remove` calls routed to this shard.
    pub removes: u64,
    /// Removes that succeeded (key was present).
    pub removes_ok: u64,
    /// Range scans that touched this shard (every shard participates in a
    /// scatter-gather scan, so this counts per-shard sub-scans).
    pub scans: u64,
    /// Keys this shard contributed to scatter-gather scan results.
    pub scan_keys: u64,
}

impl ShardStatsSnapshot {
    /// Total operations routed to the shard.
    pub fn operations(&self) -> u64 {
        // Saturating: these are sums of long-running monotonic counters (see
        // ascylib::stats::OpCounters::merge for the rationale).
        self.searches
            .saturating_add(self.inserts)
            .saturating_add(self.removes)
            .saturating_add(self.scans)
    }

    /// Fraction of searches that hit, in `[0, 1]` (0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.hits as f64 / self.searches as f64
        }
    }

    /// Adds another snapshot (used to aggregate across shards).
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.searches = self.searches.saturating_add(other.searches);
        self.hits = self.hits.saturating_add(other.hits);
        self.inserts = self.inserts.saturating_add(other.inserts);
        self.inserts_ok = self.inserts_ok.saturating_add(other.inserts_ok);
        self.removes = self.removes.saturating_add(other.removes);
        self.removes_ok = self.removes_ok.saturating_add(other.removes_ok);
        self.scans = self.scans.saturating_add(other.scans);
        self.scan_keys = self.scan_keys.saturating_add(other.scan_keys);
    }
}

impl ShardStats {
    /// Records one search and whether it hit.
    #[inline]
    pub fn record_search(&self, hit: bool) {
        self.stripes.add(|c| &c.searches, 1);
        if hit {
            self.stripes.add(|c| &c.hits, 1);
        }
    }

    /// Records one insert and whether it succeeded.
    #[inline]
    pub fn record_insert(&self, ok: bool) {
        self.stripes.add(|c| &c.inserts, 1);
        if ok {
            self.stripes.add(|c| &c.inserts_ok, 1);
        }
    }

    /// Records one remove and whether it succeeded.
    #[inline]
    pub fn record_remove(&self, ok: bool) {
        self.stripes.add(|c| &c.removes, 1);
        if ok {
            self.stripes.add(|c| &c.removes_ok, 1);
        }
    }

    /// Records one per-shard sub-scan that contributed `keys` keys.
    #[inline]
    pub fn record_scan(&self, keys: u64) {
        self.stripes.add(|c| &c.scans, 1);
        if keys > 0 {
            self.stripes.add(|c| &c.scan_keys, keys);
        }
    }

    /// Sums the counters over the stripes (exact at quiescence; see the
    /// module docs for a read racing recorders).
    pub fn snapshot(&self) -> ShardStatsSnapshot {
        let s = &self.stripes;
        ShardStatsSnapshot {
            searches: s.sum(|c| &c.searches),
            hits: s.sum(|c| &c.hits),
            inserts: s.sum(|c| &c.inserts),
            inserts_ok: s.sum(|c| &c.inserts_ok),
            removes: s.sum(|c| &c.removes),
            removes_ok: s.sum(|c| &c.removes_ok),
            scans: s.sum(|c| &c.scans),
            scan_keys: s.sum(|c| &c.scan_keys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_reflected_in_snapshots() {
        let s = ShardStats::default();
        s.record_search(true);
        s.record_search(false);
        s.record_insert(true);
        s.record_insert(false);
        s.record_remove(true);
        let snap = s.snapshot();
        assert_eq!(snap.searches, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.inserts_ok, 1);
        assert_eq!(snap.removes, 1);
        assert_eq!(snap.removes_ok, 1);
        assert_eq!(snap.operations(), 5);
        assert_eq!(snap.hit_rate(), 0.5);
    }

    #[test]
    fn merge_aggregates_and_hit_rate_handles_zero() {
        let mut a = ShardStatsSnapshot { searches: 4, hits: 2, ..Default::default() };
        let b = ShardStatsSnapshot { searches: 6, hits: 4, inserts: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.searches, 10);
        assert_eq!(a.hits, 6);
        assert_eq!(a.operations(), 11);
        assert_eq!(ShardStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn stats_blocks_are_cache_padded() {
        let pair = [ShardStats::default(), ShardStats::default()];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 64, "adjacent shard stats share a cache line ({})", b - a);
    }

    #[test]
    fn concurrent_recording_loses_no_updates() {
        let s = std::sync::Arc::new(ShardStats::default());
        let threads = 4;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        s.record_search(i % 2 == 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.searches, (threads * per_thread) as u64);
        assert_eq!(snap.hits, (threads * per_thread / 2) as u64);
    }

    #[test]
    fn more_threads_than_stripes_lose_no_updates() {
        // Three times as many threads as owned stripes, all alive at once:
        // the extra ones record on the overflow stripe. A second round
        // claims the stripes the first one freed, and must start from
        // every count the first round stored there.
        let s = std::sync::Arc::new(ShardStats::default());
        let (threads, per_thread) = (3 * STRIPES, 10_000u64);
        for _ in 0..2 {
            let all_alive = std::sync::Arc::new(std::sync::Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (s, all_alive) = (s.clone(), all_alive.clone());
                    std::thread::spawn(move || {
                        s.record_insert(true);
                        all_alive.wait();
                        for _ in 1..per_thread {
                            s.record_insert(true);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        assert_ne!(s.stripes.blocks().last().unwrap().inserts.load(Ordering::Relaxed), 0);
        let (snap, recorded) = (s.snapshot(), 2 * threads as u64 * per_thread);
        assert_eq!((snap.inserts, snap.inserts_ok), (recorded, recorded));
    }

    #[test]
    fn each_stripe_block_is_written_by_one_thread() {
        // Two threads alive at once own distinct stripes whenever at most
        // `STRIPES` threads record; the other tests of this binary hold
        // stripes too, so a round in which either thread found none free
        // (and recorded on the overflow stripe) is run again.
        let counts = [1_000u64, 3_000];
        for _ in 0..1_000 {
            let s = std::sync::Arc::new(ShardStats::default());
            let both_alive = std::sync::Arc::new(std::sync::Barrier::new(counts.len()));
            let handles: Vec<_> = counts
                .iter()
                .map(|&n| {
                    let (s, both_alive) = (s.clone(), both_alive.clone());
                    std::thread::spawn(move || {
                        for _ in 0..n {
                            s.record_search(true);
                            s.record_insert(false);
                        }
                        // Neither stripe is freed before both were claimed.
                        both_alive.wait();
                        stripe_id()
                    })
                })
                .collect();
            let stripes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            if stripes.contains(&OVERFLOW) {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            for (i, block) in s.stripes.blocks().enumerate() {
                let searches = block.searches.load(Ordering::Relaxed);
                let inserts = block.inserts.load(Ordering::Relaxed);
                let writer = stripes.iter().position(|&id| id == i);
                let expect = writer.map_or(0, |t| counts[t]);
                assert_eq!((searches, inserts), (expect, expect), "stripe {i} (writer {writer:?})");
            }
            assert_ne!(stripes[0], stripes[1], "two live threads share a stripe");
            assert_eq!(s.snapshot().searches, counts.iter().sum::<u64>());
            return;
        }
        panic!("no round found two free stripes");
    }
}
