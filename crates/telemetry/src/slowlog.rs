//! A bounded ring buffer of the slowest recent operations.
//!
//! Each worker owns one [`SlowLog`] behind a mutex: entries are pushed only
//! when a request's service time crosses the configured threshold, so the
//! lock is off the hot path entirely — the common case never touches it.
//! When the ring is full the oldest entry is evicted, so the log always
//! holds the most recent slow operations.

use std::collections::VecDeque;

use crate::Family;

/// Default per-worker ring capacity.
pub const DEFAULT_SLOWLOG_CAPACITY: usize = 128;

/// One captured slow operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowOp {
    /// Which command family the request belonged to.
    pub family: Family,
    /// The primary key of the request (first key for batched verbs, the
    /// cursor for `SCAN`, 0 for keyless verbs).
    pub key: u64,
    /// Payload bytes the request carried (`SET` value length, `MSET`
    /// total; 0 for reads).
    pub bytes: u64,
    /// Service time in nanoseconds (execute phase).
    pub duration_ns: u64,
    /// Capture time as milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Index of the worker thread that served the request, so a slow op
    /// can be attributed to one serving thread.
    pub worker: u32,
    /// Index of the shard the primary key routes to (0 when the embedder
    /// is unsharded), so a slow op can be attributed to a contended shard
    /// rather than just a command family.
    pub shard: u32,
}

/// The ring buffer proper. Callers wrap it in a `Mutex` (see
/// [`crate::WorkerTelemetry`]); it is not internally synchronized because
/// pushes are rare by construction.
#[derive(Debug)]
pub struct SlowLog {
    buf: VecDeque<SlowOp>,
    cap: usize,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self::new(DEFAULT_SLOWLOG_CAPACITY)
    }
}

impl SlowLog {
    /// An empty ring holding at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SlowLog { buf: VecDeque::with_capacity(cap), cap }
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn push(&mut self, op: SlowOp) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(op);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Copies the entries out, oldest first.
    pub fn entries(&self) -> Vec<SlowOp> {
        self.buf.iter().copied().collect()
    }

    /// Clears the ring.
    pub fn reset(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(key: u64, dur: u64) -> SlowOp {
        SlowOp {
            family: Family::Get,
            key,
            bytes: 0,
            duration_ns: dur,
            unix_ms: key,
            worker: 0,
            shard: 0,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let mut log = SlowLog::new(3);
        for k in 1..=5 {
            log.push(op(k, k * 100));
        }
        assert_eq!(log.len(), 3);
        let keys: Vec<u64> = log.entries().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![3, 4, 5], "oldest evicted first");
        log.reset();
        assert!(log.is_empty());
    }
}
