//! Per-worker serving counters.
//!
//! Each worker thread owns one cache-line-padded block in the server
//! (`WorkerBlock` in `server.rs`): its serving counters, its telemetry and
//! its structure-level concurrency counters, so hot-path counting never
//! bounces a line between workers (the same
//! observability-without-false-sharing discipline as `ascylib_shard::stats`).
//! The acceptor owns one more serving-counter block for what only it counts
//! (accepts, and connections it had to turn away at shutdown). Every block
//! has exactly one writer, so no count here takes a `lock`-prefixed RMW.
//! Aggregation walks the blocks only when a snapshot is requested (`STATS`
//! frames, [`crate::server::ServerHandle`]).
//!
//! Frames and read outcomes are counted once, by the worker's telemetry
//! families: the aggregator fills [`ServerStatsSnapshot::frames`],
//! [`hits`](ServerStatsSnapshot::hits) and
//! [`misses`](ServerStatsSnapshot::misses) from them.

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib::stats::OpCounters;
use ascylib_ssmem::SsmemStats;

/// Counters one thread maintains while serving its connections (or, for
/// the acceptor's block, while accepting them).
///
/// **Single writer:** each block is written by exactly one thread, so
/// [`bump`](Self::bump) is a plain load + store, with no `lock` prefix. All
/// counters are monotone and `Relaxed`: snapshots are statistical (exactly
/// like the structure-level `ascylib::stats` counters, they carry no
/// happens-before obligations).
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    /// Connections fully served (accepted, drained, closed).
    pub connections: AtomicU64,
    /// Connections accepted (acceptor block only).
    pub accepted: AtomicU64,
    /// Connections this worker evicted by the idle timeout.
    pub timeouts: AtomicU64,
    /// Readiness events this worker's poller delivered for a connection.
    /// Inbox notifies and run-queue turns are not events and do not count.
    pub wakeups: AtomicU64,
    /// Reply flushes that hit `WouldBlock` mid-buffer and had to wait for
    /// writability.
    pub partial_writes: AtomicU64,
    /// Keyspace operations performed (an `MGET` of 10 keys counts 10).
    pub ops: AtomicU64,
    /// Error frames sent (malformed requests, key-range violations,
    /// unsupported scans).
    pub errors: AtomicU64,
    /// Bytes read from sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_out: AtomicU64,
}

impl WorkerStats {
    /// Adds `n` to a counter of a block only the calling thread writes.
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters; `frames`, `hits`, `misses`
    /// and the `curr_connections` gauge are left for the aggregator.
    pub(crate) fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            curr_connections: 0,
            accepted: self.accepted.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            ..ServerStatsSnapshot::default()
        }
    }
}

/// Point-in-time server counters (one worker's, or the sum over all
/// workers via [`merge_counters`](Self::merge_counters)).
///
/// # Counters vs. gauges
///
/// Every field except `curr_connections` is a monotone **counter**, safe to
/// sum across snapshots. `curr_connections` is a **gauge**: summing two
/// full snapshots would double-count it, so
/// [`merge_counters`](Self::merge_counters) deliberately leaves it
/// untouched and the owner of the aggregate overwrites it from the live
/// gauge afterwards (see
/// `Shared::totals` in `server.rs`). Any future gauge field must follow the
/// same contract: excluded from the merge, set once by the aggregator.
/// (`frames`, `hits` and `misses` are counters, but no worker block holds
/// them: the aggregator derives them from the telemetry families.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections fully served.
    pub connections: u64,
    /// Connections currently open (a gauge, not a counter: the server fills
    /// it in when the snapshot is taken; per-worker blocks report 0).
    pub curr_connections: u64,
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections evicted by the idle timeout.
    pub timeouts: u64,
    /// Readiness events delivered for connections.
    pub wakeups: u64,
    /// Reply flushes that blocked mid-buffer and waited for writability.
    pub partial_writes: u64,
    /// Well-formed request frames executed: the requests the telemetry
    /// families counted, each when it was dispatched.
    pub frames: u64,
    /// Keyspace operations performed.
    pub ops: u64,
    /// Per-key read lookups that found a value (`GET` and `MGET` families).
    pub hits: u64,
    /// Per-key read lookups that missed (`GET` and `MGET` families).
    pub misses: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
}

impl ServerStatsSnapshot {
    /// Adds the **counter** fields of another snapshot into this one
    /// (saturating: a clamped aggregate is visibly wrong, a wrapped tiny one
    /// is not). The `curr_connections` gauge is deliberately *not* merged —
    /// summing a gauge across snapshots double-counts it; the aggregator
    /// overwrites it from the live source instead (see the type-level
    /// contract above).
    pub fn merge_counters(&mut self, other: &ServerStatsSnapshot) {
        self.connections = self.connections.saturating_add(other.connections);
        self.accepted = self.accepted.saturating_add(other.accepted);
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
        self.wakeups = self.wakeups.saturating_add(other.wakeups);
        self.partial_writes = self.partial_writes.saturating_add(other.partial_writes);
        self.frames = self.frames.saturating_add(other.frames);
        self.ops = self.ops.saturating_add(other.ops);
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.errors = self.errors.saturating_add(other.errors);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.bytes_out = self.bytes_out.saturating_add(other.bytes_out);
    }
}

/// Structure-level concurrency counters one worker publishes for scrapes.
///
/// The paper's coherence counters (`ascylib::stats`) and the allocator's
/// ([`ascylib_ssmem::thread_stats`]) live in thread-local state only the
/// owning thread can read — which is exactly right for the bench harness,
/// and exactly wrong for a live server that wants `INFO concurrency`. Each
/// worker bridges the gap by [`publish`](Self::publish)ing both, cumulative
/// since the thread started, into its own cache-padded block before it
/// sends replies and before every scrape it answers. The block is the two
/// snapshots' array forms as atomics; single writer, like [`WorkerStats`],
/// so publishing is plain stores, and readers sum the blocks statistically.
#[derive(Debug, Default)]
pub(crate) struct ConcurrencyStats {
    ops: [AtomicU64; OpCounters::FIELDS],
    ssmem: [AtomicU64; SsmemStats::FIELDS],
}

impl ConcurrencyStats {
    /// Publishes the calling thread's counters. Call only from the owning
    /// worker thread.
    pub(crate) fn publish(&self) {
        self.set(&ascylib::stats::snapshot(), &ascylib_ssmem::thread_stats());
    }

    /// Overwrites the block with `ops` and `ssmem`.
    fn set(&self, ops: &OpCounters, ssmem: &SsmemStats) {
        store(&self.ops, ops.to_array());
        store(&self.ssmem, ssmem.to_array());
    }

    /// A point-in-time copy of the block.
    pub(crate) fn snapshot(&self) -> ConcurrencySnapshot {
        ConcurrencySnapshot {
            ops: OpCounters::from_array(load(&self.ops)),
            ssmem: SsmemStats::from_array(load(&self.ssmem)),
        }
    }
}

fn store<const N: usize>(cells: &[AtomicU64; N], values: [u64; N]) {
    for (cell, v) in cells.iter().zip(values) {
        cell.store(v, Ordering::Relaxed);
    }
}

fn load<const N: usize>(cells: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| cells[i].load(Ordering::Relaxed))
}

/// Point-in-time structure-level concurrency numbers (one worker's block
/// or the sum over all workers).
///
/// All `ops` fields are monotone counters. Within `ssmem`, the event
/// fields are counters while the point-in-time ones are per-thread gauges
/// — but unlike `curr_connections` these sum meaningfully across
/// *distinct* workers' blocks (each worker owns a separate allocator), so
/// [`merge`](Self::merge) adds every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencySnapshot {
    /// Coherence-relevant structure events.
    pub ops: OpCounters,
    /// Epoch allocator activity and limbo/pool gauges.
    pub ssmem: SsmemStats,
}

impl ConcurrencySnapshot {
    /// Adds another worker's snapshot into this one (saturating).
    pub fn merge(&mut self, other: &ConcurrencySnapshot) {
        self.ops.merge(&other.ops);
        self.ssmem.merge(&other.ssmem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_capture_and_merge() {
        let a = WorkerStats::default();
        WorkerStats::bump(&a.ops, 7);
        WorkerStats::bump(&a.bytes_in, 100);
        WorkerStats::bump(&a.partial_writes, 2);
        let b = WorkerStats::default();
        WorkerStats::bump(&b.errors, 1);
        WorkerStats::bump(&b.accepted, 4);
        WorkerStats::bump(&b.timeouts, 1);
        WorkerStats::bump(&b.wakeups, 9);
        let mut total = a.snapshot();
        total.merge_counters(&b.snapshot());
        assert_eq!(total.ops, 7);
        assert_eq!(total.errors, 1);
        assert_eq!(total.bytes_in, 100);
        assert_eq!(total.connections, 0);
        assert_eq!(total.accepted, 4);
        assert_eq!(total.timeouts, 1);
        assert_eq!(total.wakeups, 9);
        assert_eq!(total.partial_writes, 2);
        assert_eq!(total.curr_connections, 0, "gauge is filled in by the server, not workers");
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = ServerStatsSnapshot { ops: u64::MAX - 1, ..Default::default() };
        a.merge_counters(&ServerStatsSnapshot { ops: 5, ..Default::default() });
        assert_eq!(a.ops, u64::MAX);
    }

    #[test]
    fn concurrency_block_keeps_published_absolutes() {
        let block = ConcurrencyStats::default();
        let ops = OpCounters { shared_stores: 3, atomic_ops: 2, ..OpCounters::ZERO };
        block.set(&ops, &SsmemStats { allocations: 10, pending: 4, ..Default::default() });
        // Every publish overwrites: a thread's counts are cumulative.
        let ops = OpCounters { shared_stores: 4, atomic_failures: 1, hint_hits: 5, ..ops };
        block.set(&ops, &SsmemStats { allocations: 12, pending: 2, ..Default::default() });
        let snap = block.snapshot();
        assert_eq!(snap.ops.shared_stores, 4);
        assert_eq!(snap.ops.atomic_ops, 2);
        assert_eq!(snap.ops.atomic_failures, 1);
        assert_eq!(snap.ops.hint_hits, 5);
        assert_eq!(snap.ssmem.allocations, 12);
        assert_eq!(snap.ssmem.pending, 2);
        let mut total = snap;
        total.merge(&snap);
        assert_eq!(total.ops.shared_stores, 8);
        assert_eq!(total.ssmem.pending, 4, "per-worker gauges sum across distinct workers");
    }

    #[test]
    fn array_forms_round_trip_every_field() {
        let ops = OpCounters {
            shared_stores: 1,
            atomic_ops: 2,
            atomic_failures: 3,
            lock_acquisitions: 4,
            restarts: 5,
            nodes_traversed: 6,
            waits: 7,
            operations: 8,
            hint_hits: 9,
        };
        let ssmem = SsmemStats {
            allocations: 11,
            frees: 12,
            reclaimed: 13,
            reused: 14,
            gc_passes: 15,
            pending: 16,
            pooled: 17,
            guard_depth: 18,
        };
        assert_eq!(ops.to_array(), [1, 2, 3, 4, 5, 6, 7, 8, 9], "declaration order");
        assert_eq!(OpCounters::from_array(ops.to_array()), ops);
        assert_eq!(ssmem.to_array(), [11, 12, 13, 14, 15, 16, 17, 18], "declaration order");
        assert_eq!(SsmemStats::from_array(ssmem.to_array()), ssmem);
        // And through a worker's block.
        let block = ConcurrencyStats::default();
        block.set(&ops, &ssmem);
        assert_eq!(block.snapshot(), ConcurrencySnapshot { ops, ssmem });
    }

    #[test]
    fn merge_counters_leaves_the_gauge_alone() {
        // The historical bug: merging two full snapshots summed the
        // curr_connections gauge, double-counting open connections. The
        // merge must not touch it — the aggregator overwrites it.
        let mut a = ServerStatsSnapshot { curr_connections: 3, ..Default::default() };
        a.merge_counters(&ServerStatsSnapshot { curr_connections: 3, ..Default::default() });
        assert_eq!(a.curr_connections, 3, "gauge must not be summed by the merge");
    }
}
