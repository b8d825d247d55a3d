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
/// The paper's coherence counters (`ascylib::stats`) live in thread-local
/// cells only the owning thread can read — which is exactly right for the
/// bench harness, and exactly wrong for a live server that wants
/// `INFO concurrency`. Each worker bridges the gap by draining its
/// thread-local delta after every connection pass and before every scrape
/// it answers ([`ascylib::stats::drain_delta`]) and folding it into its own
/// cache-padded block here; the ssmem fields are refreshed as absolutes
/// from [`ascylib_ssmem::thread_stats`] at the same point. Single writer,
/// like [`WorkerStats`]: folds are [`WorkerStats::bump`]s, and readers
/// aggregate statistically, like every other counter block.
#[derive(Debug, Default)]
pub(crate) struct ConcurrencyStats {
    shared_stores: AtomicU64,
    atomic_ops: AtomicU64,
    atomic_failures: AtomicU64,
    lock_acquisitions: AtomicU64,
    restarts: AtomicU64,
    nodes_traversed: AtomicU64,
    waits: AtomicU64,
    operations: AtomicU64,
    ssmem_allocations: AtomicU64,
    ssmem_frees: AtomicU64,
    ssmem_reclaimed: AtomicU64,
    ssmem_reused: AtomicU64,
    ssmem_gc_passes: AtomicU64,
    ssmem_pending: AtomicU64,
    ssmem_pooled: AtomicU64,
    ssmem_guard_depth: AtomicU64,
}

impl ConcurrencyStats {
    /// Folds one drained [`OpCounters`] delta into the block. Call only
    /// from the owning worker thread.
    pub(crate) fn fold_ops(&self, d: &OpCounters) {
        WorkerStats::bump(&self.shared_stores, d.shared_stores);
        WorkerStats::bump(&self.atomic_ops, d.atomic_ops);
        WorkerStats::bump(&self.atomic_failures, d.atomic_failures);
        WorkerStats::bump(&self.lock_acquisitions, d.lock_acquisitions);
        WorkerStats::bump(&self.restarts, d.restarts);
        WorkerStats::bump(&self.nodes_traversed, d.nodes_traversed);
        WorkerStats::bump(&self.waits, d.waits);
        WorkerStats::bump(&self.operations, d.operations);
    }

    /// Publishes the owning thread's current allocator stats (absolutes —
    /// `thread_stats()` is already cumulative for the counter fields and
    /// point-in-time for `pending`/`pooled`/`guard_depth`).
    pub(crate) fn set_ssmem(&self, s: &SsmemStats) {
        self.ssmem_allocations.store(s.allocations, Ordering::Relaxed);
        self.ssmem_frees.store(s.frees, Ordering::Relaxed);
        self.ssmem_reclaimed.store(s.reclaimed, Ordering::Relaxed);
        self.ssmem_reused.store(s.reused, Ordering::Relaxed);
        self.ssmem_gc_passes.store(s.gc_passes, Ordering::Relaxed);
        self.ssmem_pending.store(s.pending, Ordering::Relaxed);
        self.ssmem_pooled.store(s.pooled, Ordering::Relaxed);
        self.ssmem_guard_depth.store(s.guard_depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of the block.
    pub(crate) fn snapshot(&self) -> ConcurrencySnapshot {
        ConcurrencySnapshot {
            ops: OpCounters {
                shared_stores: self.shared_stores.load(Ordering::Relaxed),
                atomic_ops: self.atomic_ops.load(Ordering::Relaxed),
                atomic_failures: self.atomic_failures.load(Ordering::Relaxed),
                lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
                restarts: self.restarts.load(Ordering::Relaxed),
                nodes_traversed: self.nodes_traversed.load(Ordering::Relaxed),
                waits: self.waits.load(Ordering::Relaxed),
                operations: self.operations.load(Ordering::Relaxed),
                // Not folded: no scrape surface renders hint hits.
                hint_hits: 0,
            },
            ssmem: SsmemStats {
                allocations: self.ssmem_allocations.load(Ordering::Relaxed),
                frees: self.ssmem_frees.load(Ordering::Relaxed),
                reclaimed: self.ssmem_reclaimed.load(Ordering::Relaxed),
                reused: self.ssmem_reused.load(Ordering::Relaxed),
                gc_passes: self.ssmem_gc_passes.load(Ordering::Relaxed),
                pending: self.ssmem_pending.load(Ordering::Relaxed),
                pooled: self.ssmem_pooled.load(Ordering::Relaxed),
                guard_depth: self.ssmem_guard_depth.load(Ordering::Relaxed),
            },
        }
    }
}

/// Point-in-time structure-level concurrency numbers (one worker's block
/// or the sum over all workers).
///
/// All `ops` fields are monotone counters. Within `ssmem`, the event
/// fields are counters while `pending`/`pooled`/`guard_depth` are
/// per-thread gauges — but unlike `curr_connections` these sum
/// meaningfully across *distinct* workers' blocks (each worker owns a
/// separate allocator), so [`merge`](Self::merge) adds every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencySnapshot {
    /// Coherence-relevant structure events (stores, CAS, restarts, ...).
    pub ops: OpCounters,
    /// Epoch allocator activity (allocations, reclaimed, pending, ...).
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
    fn concurrency_block_folds_deltas_and_overwrites_ssmem_absolutes() {
        let block = ConcurrencyStats::default();
        block.fold_ops(&OpCounters { shared_stores: 3, atomic_ops: 2, ..OpCounters::ZERO });
        block.fold_ops(&OpCounters { shared_stores: 1, atomic_failures: 1, ..OpCounters::ZERO });
        block.set_ssmem(&SsmemStats { allocations: 10, pending: 4, ..Default::default() });
        // set_ssmem overwrites (absolutes), fold_ops accumulates (deltas).
        block.set_ssmem(&SsmemStats { allocations: 12, pending: 2, ..Default::default() });
        let snap = block.snapshot();
        assert_eq!(snap.ops.shared_stores, 4);
        assert_eq!(snap.ops.atomic_ops, 2);
        assert_eq!(snap.ops.atomic_failures, 1);
        assert_eq!(snap.ssmem.allocations, 12);
        assert_eq!(snap.ssmem.pending, 2);
        let mut total = snap;
        total.merge(&snap);
        assert_eq!(total.ops.shared_stores, 8);
        assert_eq!(total.ssmem.pending, 4, "per-worker gauges sum across distinct workers");
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
