//! Per-thread instrumentation of shared-memory behaviour.
//!
//! The paper's central argument is that the scalability of a CSDS is
//! determined by the coherence traffic it generates: stores (and
//! read-modify-writes) on shared cache lines invalidate remote copies and
//! turn into cache misses on other cores (§4, Figure 3). Since we do not have
//! the paper's hardware performance counters, every algorithm in this crate
//! reports its shared-memory events here, and the benchmark harness converts
//! them into a cache-line-transfer estimate and an energy model.
//!
//! The counters are plain thread-local `Cell`s: recording an event costs a
//! couple of nanoseconds and never touches shared memory, so the
//! instrumentation does not perturb the scalability behaviour being measured.

use std::cell::Cell;

/// A snapshot of the calling thread's event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Stores to shared memory (node fields, lock words, bucket words).
    pub shared_stores: u64,
    /// Atomic read-modify-write operations (CAS, FAA, SWAP) attempted.
    pub atomic_ops: u64,
    /// Atomic operations that failed (lost a race) and had to be retried or
    /// abandoned.
    pub atomic_failures: u64,
    /// Lock acquisitions (each acquisition dirties the lock's cache line).
    pub lock_acquisitions: u64,
    /// Operation restarts (failed validation, failed clean-up, helping).
    pub restarts: u64,
    /// Nodes traversed during searches and parse phases.
    pub nodes_traversed: u64,
    /// Operations that waited (blocked) for another thread at least once.
    pub waits: u64,
    /// Completed operations (search + insert + remove).
    pub operations: u64,
    /// Point operations answered through a lossy hint table (`fraser-opt`
    /// past its floor) instead of a traversal.
    pub hint_hits: u64,
}

impl OpCounters {
    /// How many counters an `OpCounters` holds: the length of its array
    /// form.
    pub const FIELDS: usize = 9;

    /// The all-zero snapshot, usable in `const` contexts where
    /// `Default::default()` is not.
    pub const ZERO: OpCounters = OpCounters::from_array([0; Self::FIELDS]);

    /// The counters in declaration order. Code that handles every field
    /// alike (merging, publishing into atomics) goes through this and
    /// [`from_array`](Self::from_array), so a new counter is one more field
    /// here and in the struct.
    pub const fn to_array(&self) -> [u64; Self::FIELDS] {
        let OpCounters {
            shared_stores, atomic_ops, atomic_failures, lock_acquisitions, restarts,
            nodes_traversed, waits, operations, hint_hits,
        } = *self;
        [
            shared_stores, atomic_ops, atomic_failures, lock_acquisitions, restarts,
            nodes_traversed, waits, operations, hint_hits,
        ]
    }

    /// The inverse of [`to_array`](Self::to_array).
    pub const fn from_array(counters: [u64; Self::FIELDS]) -> OpCounters {
        let [
            shared_stores, atomic_ops, atomic_failures, lock_acquisitions, restarts,
            nodes_traversed, waits, operations, hint_hits,
        ] = counters;
        OpCounters {
            shared_stores, atomic_ops, atomic_failures, lock_acquisitions, restarts,
            nodes_traversed, waits, operations, hint_hits,
        }
    }

    /// Estimated cache-line transfers caused by this thread.
    ///
    /// Every store/RMW on a shared line invalidates remote copies, so the
    /// transfer count is approximated by the number of shared stores, atomic
    /// operations and lock acquisitions (lock release is a store and is
    /// already counted by the call sites that record it).
    pub fn cache_line_transfers(&self) -> u64 {
        self.shared_stores + self.atomic_ops + self.lock_acquisitions
    }

    /// Estimated cache-line transfers per completed operation.
    pub fn transfers_per_operation(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.cache_line_transfers() as f64 / self.operations as f64
        }
    }

    /// Atomic operations per completed operation (the §ASCY4 metric the
    /// paper reports for BSTs: natarajan ≈ 2 per update, others > 3).
    pub fn atomics_per_operation(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.atomic_ops as f64 / self.operations as f64
        }
    }

    /// Memory accesses (loads approximated by traversed nodes, plus stores).
    pub fn memory_accesses(&self) -> u64 {
        self.nodes_traversed + self.shared_stores + self.atomic_ops
    }

    /// Adds another snapshot to this one (used to aggregate across threads).
    ///
    /// Uses saturating addition: the fields are monotonic event counts, and a
    /// wrapped sum would silently report a tiny value after a very long run
    /// (at 10⁹ events/s a `u64` wraps after ~585 years per thread, but the
    /// *sum* across many threads gets there proportionally sooner). Clamping
    /// at `u64::MAX` keeps the aggregate obviously-saturated instead of
    /// quietly wrong, and avoids the debug-build overflow panic.
    pub fn merge(&mut self, other: &OpCounters) {
        let (a, b) = (self.to_array(), other.to_array());
        *self = OpCounters::from_array(std::array::from_fn(|i| a[i].saturating_add(b[i])));
    }

    /// Field-wise saturating subtraction: the events in `self` that are
    /// not already in `earlier`. Both snapshots must come from the same
    /// thread's cumulative counters for the result to be meaningful;
    /// saturation (rather than wrap) keeps a mid-air [`reset`] from
    /// producing astronomically large deltas.
    pub fn saturating_sub(&self, earlier: &OpCounters) -> OpCounters {
        let (a, b) = (self.to_array(), earlier.to_array());
        OpCounters::from_array(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }
}

thread_local! {
    static SHARED_STORES: Cell<u64> = const { Cell::new(0) };
    static ATOMIC_OPS: Cell<u64> = const { Cell::new(0) };
    static ATOMIC_FAILURES: Cell<u64> = const { Cell::new(0) };
    static LOCK_ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
    static RESTARTS: Cell<u64> = const { Cell::new(0) };
    static NODES_TRAVERSED: Cell<u64> = const { Cell::new(0) };
    static WAITS: Cell<u64> = const { Cell::new(0) };
    static OPERATIONS: Cell<u64> = const { Cell::new(0) };
    static HINT_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Cross-thread safety: each counter is a thread-local `Cell` with exactly
/// one writer (the owning thread), so there are no lost updates by
/// construction; aggregation happens via [`snapshot`] after the harness joins
/// the worker (the join provides the happens-before edge). Saturating add so
/// a pathologically long run clamps at `u64::MAX` instead of panicking in
/// debug builds or wrapping to a misleadingly small count in release.
#[inline]
fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    cell.with(|c| c.set(c.get().saturating_add(n)));
}

/// Records a store to shared memory.
#[inline]
pub fn record_store() {
    bump(&SHARED_STORES, 1);
}

/// Records `n` stores to shared memory (e.g. a copy-on-write array copy).
#[inline]
pub fn record_stores(n: u64) {
    bump(&SHARED_STORES, n);
}

/// Records an atomic read-modify-write; `success` is `false` when it lost a
/// race.
#[inline]
pub fn record_atomic(success: bool) {
    bump(&ATOMIC_OPS, 1);
    if !success {
        bump(&ATOMIC_FAILURES, 1);
    }
}

/// Records a lock acquisition.
#[inline]
pub fn record_lock() {
    bump(&LOCK_ACQUISITIONS, 1);
}

/// Records an operation restart (failed validation / clean-up / helping).
#[inline]
pub fn record_restart() {
    bump(&RESTARTS, 1);
}

/// Records `n` nodes traversed during a search or parse phase.
#[inline]
pub fn record_traversal(n: u64) {
    bump(&NODES_TRAVERSED, n);
}

/// Records that the operation had to wait for another thread.
#[inline]
pub fn record_wait() {
    bump(&WAITS, 1);
}

/// Records a completed data-structure operation.
#[inline]
pub fn record_operation() {
    bump(&OPERATIONS, 1);
}

/// Records a point operation answered through a hint table.
#[inline]
pub fn record_hint_hit() {
    bump(&HINT_HITS, 1);
}

/// Returns the calling thread's counters.
pub fn snapshot() -> OpCounters {
    OpCounters {
        shared_stores: SHARED_STORES.with(Cell::get),
        atomic_ops: ATOMIC_OPS.with(Cell::get),
        atomic_failures: ATOMIC_FAILURES.with(Cell::get),
        lock_acquisitions: LOCK_ACQUISITIONS.with(Cell::get),
        restarts: RESTARTS.with(Cell::get),
        nodes_traversed: NODES_TRAVERSED.with(Cell::get),
        waits: WAITS.with(Cell::get),
        operations: OPERATIONS.with(Cell::get),
        hint_hits: HINT_HITS.with(Cell::get),
    }
}

/// Resets the calling thread's counters to zero.
pub fn reset() {
    SHARED_STORES.with(|c| c.set(0));
    ATOMIC_OPS.with(|c| c.set(0));
    ATOMIC_FAILURES.with(|c| c.set(0));
    LOCK_ACQUISITIONS.with(|c| c.set(0));
    RESTARTS.with(|c| c.set(0));
    NODES_TRAVERSED.with(|c| c.set(0));
    WAITS.with(|c| c.set(0));
    OPERATIONS.with(|c| c.set(0));
    HINT_HITS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_store();
        record_stores(2);
        record_atomic(true);
        record_atomic(false);
        record_lock();
        record_restart();
        record_traversal(10);
        record_wait();
        record_operation();
        let s = snapshot();
        assert_eq!(s.shared_stores, 3);
        assert_eq!(s.atomic_ops, 2);
        assert_eq!(s.atomic_failures, 1);
        assert_eq!(s.lock_acquisitions, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.nodes_traversed, 10);
        assert_eq!(s.waits, 1);
        assert_eq!(s.operations, 1);
        assert_eq!(s.cache_line_transfers(), 6);
        assert!(s.transfers_per_operation() > 0.0);
        reset();
        assert_eq!(snapshot(), OpCounters::default());
    }

    #[test]
    fn hint_hits_count_apart_from_traffic() {
        reset();
        record_hint_hit();
        record_hint_hit();
        let s = snapshot();
        assert_eq!(s.hint_hits, 2);
        assert_eq!(s.cache_line_transfers(), 0, "a hint hit is a read");
        reset();
        assert_eq!(snapshot().hint_hits, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = OpCounters { shared_stores: 1, operations: 2, ..Default::default() };
        let b = OpCounters { shared_stores: 3, operations: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.shared_stores, 4);
        assert_eq!(a.operations, 6);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = OpCounters { operations: u64::MAX - 1, ..Default::default() };
        let b = OpCounters { operations: 10, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.operations, u64::MAX);
    }

    #[test]
    fn per_operation_ratios_handle_zero_ops() {
        let c = OpCounters::default();
        assert_eq!(c.transfers_per_operation(), 0.0);
        assert_eq!(c.atomics_per_operation(), 0.0);
    }
}
