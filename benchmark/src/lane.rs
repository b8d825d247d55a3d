//! What one load-generating lane brings back from one timed phase.

use crate::span::Recorder;

/// Counts of a phase, and the first thing that went wrong in it.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose reply was wrong: an error frame, a refusal, a miss on an
    /// unbounded store, a torn, stale or foreign value, or no reply.
    pub failed: u64,
    pub gets: u64,
    /// GETs answered with a value.
    pub hits: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    #[cold]
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.gets += other.gets;
        self.hits += other.hits;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// One lane's measurements of one timed phase.
#[derive(Default)]
pub struct PhaseResult {
    pub tally: Tally,
    /// Times of full [`BATCH`](crate::estimate::BATCH)-op batches.
    pub batch_ns: Vec<u64>,
    /// Individually timed GETs and SETs (see each driver for from-when).
    pub get_ns: Vec<u64>,
    pub set_ns: Vec<u64>,
    /// Open loop only: how long after it was due the lane got to each op,
    /// and how many it got to too late to time (see `wire::LATE_GAPS`).
    pub late_ns: Vec<u64>,
    pub sent_late: u64,
    /// First op issued to last reply checked.
    pub elapsed_ns: u64,
    /// Traced phases only.
    pub spans: Option<Recorder>,
}

impl PhaseResult {
    pub fn with_capacity(samples: usize, lane: usize, trace: bool) -> Self {
        PhaseResult {
            batch_ns: Vec::with_capacity(1 << 16),
            get_ns: Vec::with_capacity(samples),
            set_ns: Vec::with_capacity(samples),
            spans: trace.then(|| Recorder::new(lane)),
            ..Default::default()
        }
    }
}
