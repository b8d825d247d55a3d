//! Dependency-free observability for the ASCYLIB-RS serving stack.
//!
//! The ASPLOS'15 ASCYLIB methodology is measurement-first: no structure is
//! declared scalable until the numbers say so. This crate extends that
//! discipline to the serving tier itself — a server that cannot observe its
//! own latency distribution cannot be tuned honestly. Three primitives:
//!
//! - [`Histogram`]: a lock-free log-linear latency histogram
//!   (HdrHistogram-style bucketing). Recording is one index computation and
//!   one `Relaxed` `fetch_add`; readers [`snapshot`](Histogram::snapshot)
//!   and [`merge`](HistogramSnapshot::merge) without stopping writers.
//! - [`WorkerTelemetry`]: one per worker thread (cache-padded by the
//!   embedder), holding per-command-family histograms and hit/miss
//!   counters, per-phase histograms, and a [`SlowLog`] ring of requests
//!   that crossed a threshold.
//! - [`expo::Exposition`]: Prometheus text rendering of snapshots, plus a
//!   [`expo::validate`] mini-parser so tests can assert scrape bodies are
//!   well-formed without a real Prometheus in the loop.
//! - [`clock`]: a TSC-backed fast clock for the timing reads themselves —
//!   on virtualized hosts `Instant::now()` can cost more than the whole
//!   histogram record, and the recording budget is the embedder's hot path.
//! - [`window`]: a reader-rotated ring of cumulative samples turning the
//!   lifetime counters and histograms above into windowed rates and
//!   short-horizon quantiles (`ops/sec`, `p99` over the last 10 s) with no
//!   hot-path cost at all.
//!
//! The crate deliberately has zero dependencies so any layer of the stack
//! can embed it.

#![warn(missing_docs)]

pub mod clock;
pub mod expo;
pub mod hist;
pub mod slowlog;
pub mod window;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use hist::{
    bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, MAX_RELATIVE_ERROR,
    MAX_TRACKABLE, NUM_BUCKETS,
};
pub use slowlog::{SlowLog, SlowOp, DEFAULT_SLOWLOG_CAPACITY};
pub use window::{WindowDelta, WindowRing, WindowSample};

/// Command families tracked separately. `Other` absorbs the control-plane
/// verbs (`PING`, `STATS`, `INFO`, `SLOWLOG`, `METRICS`, `QUIT`) so data
/// traffic aggregates are not polluted by the observer's own scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `GET`.
    Get,
    /// `SET`.
    Set,
    /// `DEL`.
    Del,
    /// `MGET`.
    MGet,
    /// `MSET`.
    MSet,
    /// `SCAN`.
    Scan,
    /// Everything else (control-plane verbs).
    Other,
}

/// Number of command families.
pub const NUM_FAMILIES: usize = 7;

impl Family {
    /// All families, in index order.
    pub const ALL: [Family; NUM_FAMILIES] = [
        Family::Get,
        Family::Set,
        Family::Del,
        Family::MGet,
        Family::MSet,
        Family::Scan,
        Family::Other,
    ];

    /// The six data families — [`Family::Other`] excluded.
    pub const DATA: [Family; 6] = [
        Family::Get,
        Family::Set,
        Family::Del,
        Family::MGet,
        Family::MSet,
        Family::Scan,
    ];

    /// Lower-case wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Get => "get",
            Family::Set => "set",
            Family::Del => "del",
            Family::MGet => "mget",
            Family::MSet => "mset",
            Family::Scan => "scan",
            Family::Other => "other",
        }
    }

    /// Dense index into per-family arrays.
    pub fn index(self) -> usize {
        match self {
            Family::Get => 0,
            Family::Set => 1,
            Family::Del => 2,
            Family::MGet => 3,
            Family::MSet => 4,
            Family::Scan => 5,
            Family::Other => 6,
        }
    }
}

/// Request processing phases timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Wire bytes → parsed request.
    Parse,
    /// Store operation + reply encoding.
    Execute,
    /// Draining the write buffer to the socket.
    Flush,
}

/// Number of phases.
pub const NUM_PHASES: usize = 3;

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; NUM_PHASES] = [Phase::Parse, Phase::Execute, Phase::Flush];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Execute => "execute",
            Phase::Flush => "flush",
        }
    }

    /// Dense index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Execute => 1,
            Phase::Flush => 2,
        }
    }
}

/// Per-family recording cell: a service-time histogram plus outcome
/// counters. `ops` counts **every** request exactly; the histogram holds
/// the (possibly sampled) subset the embedder chose to time. For read
/// families `hits`/`misses` count per-key lookup outcomes (one per key for
/// `MGET`); for [`Family::Del`] the same cells count found/not-found.
/// Write families leave them at zero.
#[derive(Debug, Default)]
struct FamilyCell {
    hist: Histogram,
    ops: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One worker thread's telemetry block. The embedder allocates one per
/// worker (cache-padded, alongside its stats block) so hot-path recording
/// never contends across threads; readers aggregate with
/// [`snapshot`](Self::snapshot) + [`TelemetrySnapshot::merge`].
///
/// **Recording:** every request is counted once, when it is dispatched
/// ([`count_request`](Self::count_request)); a request the embedder times
/// adds only its histogram sample afterwards
/// ([`record_request`](Self::record_request)).
///
/// **Single-writer contract:** exactly one thread (the owning worker) may
/// call the recording methods (`record_*`, `count_request`) on a block; the recording paths use
/// plain load + store pairs ([`Histogram::record_unsync`]) to keep `lock`
/// prefixes off the hot path. Any thread may snapshot concurrently —
/// that's the point. Concurrent *writers* would be memory-safe but could
/// lose increments. (The slow-op ring is mutex-guarded and exempt:
/// [`record_slow`](Self::record_slow) fires rarely, and resets may come
/// from any thread.)
#[derive(Debug, Default)]
pub struct WorkerTelemetry {
    families: [FamilyCell; NUM_FAMILIES],
    phases: [Histogram; NUM_PHASES],
    slow: Mutex<SlowLog>,
}

impl WorkerTelemetry {
    /// A zeroed block with the default slow-log capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one service-time sample of `ns` nanoseconds for a request of
    /// `family` that [`count_request`](Self::count_request) already
    /// counted: the histogram moves, the exact counter does not.
    /// Single-writer (see the type docs).
    #[inline]
    pub fn record_request(&self, family: Family, ns: u64) {
        self.families[family.index()].hist.record_unsync(ns);
    }

    /// Counts one request of `family`, timed or not. The embedder counts
    /// every request when it dispatches it, so a request that reads the
    /// counters sees itself counted, and samples service time separately
    /// ([`record_request`](Self::record_request)) for the subset it times
    /// (clock reads are the dominant recording cost). Single-writer.
    #[inline]
    pub fn count_request(&self, family: Family) {
        let cell = &self.families[family.index()];
        cell.ops.store(cell.ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Records time spent in one processing phase. Single-writer.
    #[inline]
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].record_unsync(ns);
    }

    /// Records per-key lookup outcomes for a read (or `DEL`) request.
    /// Single-writer.
    #[inline]
    pub fn record_lookups(&self, family: Family, hits: u64, misses: u64) {
        let cell = &self.families[family.index()];
        if hits > 0 {
            cell.hits.store(cell.hits.load(Ordering::Relaxed) + hits, Ordering::Relaxed);
        }
        if misses > 0 {
            cell.misses
                .store(cell.misses.load(Ordering::Relaxed) + misses, Ordering::Relaxed);
        }
    }

    /// Appends a slow operation to this worker's ring.
    pub fn record_slow(&self, op: SlowOp) {
        self.slow.lock().unwrap().push(op);
    }

    /// Point-in-time copy of the histograms and counters (the slow log is
    /// read separately via [`slow_ops`](Self::slow_ops)).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            families: std::array::from_fn(|i| {
                let cell = &self.families[i];
                FamilySnapshot {
                    ops: cell.ops.load(Ordering::Relaxed),
                    hits: cell.hits.load(Ordering::Relaxed),
                    misses: cell.misses.load(Ordering::Relaxed),
                    hist: cell.hist.snapshot(),
                }
            }),
            phases: std::array::from_fn(|i| self.phases[i].snapshot()),
        }
    }

    /// Copies this worker's slow-op entries, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow.lock().unwrap().entries()
    }

    /// Entries currently in this worker's ring.
    pub fn slow_len(&self) -> usize {
        self.slow.lock().unwrap().len()
    }

    /// Clears this worker's ring.
    pub fn slow_reset(&self) {
        self.slow.lock().unwrap().reset();
    }
}

/// Snapshot of one family's cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Exact request count (timed and untimed).
    pub ops: u64,
    /// Per-key lookup hits (found keys for `DEL`).
    pub hits: u64,
    /// Per-key lookup misses (absent keys for `DEL`).
    pub misses: u64,
    /// Service-time distribution over the *timed* requests; its count is
    /// the sample count, which trails `ops` when the embedder samples.
    pub hist: HistogramSnapshot,
}

impl FamilySnapshot {
    /// Requests recorded for this family (exact, sampling-independent).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Folds `other` into `self` (saturating).
    pub fn merge(&mut self, other: &FamilySnapshot) {
        self.ops = self.ops.saturating_add(other.ops);
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.hist.merge(&other.hist);
    }
}

/// Mergeable point-in-time copy of a [`WorkerTelemetry`] block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Per-family snapshots, indexed by [`Family::index`].
    pub families: [FamilySnapshot; NUM_FAMILIES],
    /// Per-phase histograms, indexed by [`Phase::index`].
    pub phases: [HistogramSnapshot; NUM_PHASES],
}

impl TelemetrySnapshot {
    /// Folds `other` into `self` (saturating), e.g. to aggregate across
    /// workers.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (mine, theirs) in self.families.iter_mut().zip(&other.families) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
    }

    /// The family snapshot for `family`.
    pub fn family(&self, family: Family) -> &FamilySnapshot {
        &self.families[family.index()]
    }

    /// Merged service-time distribution across the six *data* families —
    /// [`Family::Other`] is excluded so a monitoring client's own `INFO` /
    /// `METRICS` scrapes do not pollute the request aggregate.
    pub fn data_requests(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for f in Family::DATA {
            out.merge(&self.family(f).hist);
        }
        out
    }

    /// Exact request count across the six *data* families (timed and
    /// untimed; see [`data_requests`](Self::data_requests) for the
    /// exclusion rationale).
    pub fn data_ops(&self) -> u64 {
        Family::DATA.iter().fold(0u64, |acc, f| acc.saturating_add(self.family(*f).ops))
    }

    /// Total hits and misses across read families (`GET` + `MGET`).
    pub fn read_outcomes(&self) -> (u64, u64) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for f in [Family::Get, Family::MGet] {
            let s = self.family(f);
            hits = hits.saturating_add(s.hits);
            misses = misses.saturating_add(s.misses);
        }
        (hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_and_phase_indices_are_dense_and_named() {
        for (i, f) in Family::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
            assert!(!f.name().is_empty());
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Family::DATA.len(), NUM_FAMILIES - 1);
        assert!(!Family::DATA.contains(&Family::Other));
    }

    #[test]
    fn worker_telemetry_records_and_snapshots() {
        let tel = WorkerTelemetry::new();
        for (family, ns) in [
            (Family::Get, 1_000),
            (Family::Get, 2_000),
            (Family::Set, 5_000),
            (Family::Other, 9_000_000),
        ] {
            tel.count_request(family);
            tel.record_request(family, ns);
        }
        tel.record_phase(Phase::Parse, 100);
        tel.record_phase(Phase::Execute, 900);
        tel.record_lookups(Family::Get, 1, 1);
        tel.record_lookups(Family::MGet, 3, 2);

        let snap = tel.snapshot();
        assert_eq!(snap.family(Family::Get).ops(), 2);
        assert_eq!(snap.family(Family::Set).ops(), 1);
        assert_eq!(snap.family(Family::Get).hits, 1);
        assert_eq!(snap.family(Family::MGet).misses, 2);
        assert_eq!(snap.read_outcomes(), (4, 3));
        assert_eq!(snap.phases[Phase::Parse.index()].count(), 1);

        // Other is excluded from the data aggregate.
        let data = snap.data_requests();
        assert_eq!(data.count(), 3);
        assert!(data.max() < 9_000_000);
    }

    #[test]
    fn snapshots_merge_across_workers() {
        let a = WorkerTelemetry::new();
        let b = WorkerTelemetry::new();
        a.count_request(Family::Scan);
        a.record_request(Family::Scan, 10_000);
        a.record_lookups(Family::Del, 2, 0);
        b.count_request(Family::Scan);
        b.record_request(Family::Scan, 20_000);
        b.record_lookups(Family::Del, 0, 5);

        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.family(Family::Scan).ops(), 2);
        assert_eq!(total.family(Family::Del).hits, 2);
        assert_eq!(total.family(Family::Del).misses, 5);
        let hist = &total.family(Family::Scan).hist;
        assert!(hist.quantile(1.0) >= 20_000);
    }

    #[test]
    fn slow_ring_round_trips_through_the_block() {
        let tel = WorkerTelemetry::new();
        assert_eq!(tel.slow_len(), 0);
        tel.record_slow(SlowOp {
            family: Family::MSet,
            key: 42,
            bytes: 1 << 20,
            duration_ns: 15_000_000,
            unix_ms: 1_700_000_000_000,
            worker: 3,
            shard: 7,
        });
        assert_eq!(tel.slow_len(), 1);
        let ops = tel.slow_ops();
        assert_eq!(ops[0].key, 42);
        assert_eq!(ops[0].family, Family::MSet);
        assert_eq!(ops[0].worker, 3);
        assert_eq!(ops[0].shard, 7);
        tel.slow_reset();
        assert_eq!(tel.slow_len(), 0);
    }
}
