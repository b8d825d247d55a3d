//! Windowed telemetry: a bounded ring of timestamped *cumulative* samples
//! whose pairwise differences yield rates and short-horizon quantiles.
//!
//! Everything else in this crate is lifetime-cumulative: histograms and
//! counters only grow, so `INFO`/`METRICS` can tell an operator what the
//! server has done since boot but not what it is doing *now*. This module
//! adds the missing time axis without touching the hot path: readers (the
//! scrape handlers) periodically capture a [`WindowSample`] — a cumulative counter vector plus a cumulative
//! [`HistogramSnapshot`] stamped with a monotonic clock — and push it into
//! a [`WindowRing`]. A windowed view is then the saturating difference
//! between the newest sample and the oldest sample inside the window
//! ([`WindowRing::delta`]), from which [`WindowDelta`] derives per-second
//! rates and delta-histogram quantiles (`p99` over the last ~10 s rather
//! than since boot).
//!
//! Rotation is **reader-driven**: nothing in the ring is touched by
//! request-serving threads. Concurrent scrapers elect one rotator per
//! interval with a single CAS ([`WindowRing::rotate`]); losers simply skip.
//! Time is supplied by the caller as opaque monotonic nanoseconds, so the
//! ring is clock-agnostic and testable: a backwards or frozen clock yields
//! an empty window and zero rates, never a panic or a wrapped counter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::HistogramSnapshot;

/// Sentinel for "no sample accepted yet" in the rotation election.
const NEVER: u64 = u64::MAX;

/// Default spacing between accepted samples: 1 s.
pub const DEFAULT_WINDOW_INTERVAL_NS: u64 = 1_000_000_000;

/// Default ring capacity: 16 one-second samples comfortably cover a 10 s
/// window with slack for rotation jitter.
pub const DEFAULT_WINDOW_CAPACITY: usize = 16;

/// Default query horizon: rates and quantiles over the last ~10 s.
pub const DEFAULT_WINDOW_NS: u64 = 10_000_000_000;

/// One cumulative observation of a set of counters and a histogram at a
/// point in time. The counter indices are caller-defined (the embedder
/// decides what lives at index 0, 1, ...); both the counters and the
/// histogram must be cumulative so that differences between samples are
/// meaningful.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// Monotonic nanoseconds from any fixed origin. Differences between
    /// samples define elapsed time; the origin itself is irrelevant.
    pub mono_ns: u64,
    /// Cumulative counter values, indexed by the embedder's convention.
    pub counters: Vec<u64>,
    /// Cumulative histogram snapshot (e.g. all service times since boot).
    pub hist: HistogramSnapshot,
}

/// The difference between two [`WindowSample`]s: what happened during the
/// window, plus how long the window actually was.
#[derive(Debug, Clone)]
pub struct WindowDelta {
    /// Monotonic span between the two samples. Zero when the supplied
    /// clock was frozen or ran backwards — every rate is then 0.0.
    pub elapsed_ns: u64,
    /// Number of samples currently buffered in the ring.
    pub samples: usize,
    /// Per-counter saturating deltas (same indices as the samples).
    counters: Vec<u64>,
    /// Delta histogram for the window (see
    /// [`HistogramSnapshot::delta_since`] for the `max()` caveat).
    pub hist: HistogramSnapshot,
}

impl WindowDelta {
    /// The increase of counter `idx` over the window (0 for out-of-range
    /// indices, so embedders can grow the counter vector without breaking
    /// old readers).
    pub fn counter(&self, idx: usize) -> u64 {
        self.counters.get(idx).copied().unwrap_or(0)
    }

    /// Counter `idx` as a per-second rate. 0.0 when the window has no
    /// measurable span (frozen or backwards clock).
    pub fn rate(&self, idx: usize) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.counter(idx) as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// The window span in milliseconds.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ns / 1_000_000
    }
}

/// A bounded ring of cumulative samples with CAS-elected, reader-driven
/// rotation. See the module docs for the design.
#[derive(Debug)]
pub struct WindowRing {
    interval_ns: u64,
    cap: usize,
    ring: Mutex<VecDeque<WindowSample>>,
    /// `mono_ns` of the last accepted sample ([`NEVER`] before the first).
    /// Doubles as the rotation election: whoever CASes it forward owns the
    /// push for this interval.
    last_rotate_ns: AtomicU64,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW_INTERVAL_NS, DEFAULT_WINDOW_CAPACITY)
    }
}

impl WindowRing {
    /// A ring accepting at most one sample per `interval_ns`, keeping the
    /// newest `cap` samples. `cap` is clamped to at least 2 (a delta needs
    /// two endpoints).
    pub fn new(interval_ns: u64, cap: usize) -> Self {
        WindowRing {
            interval_ns,
            cap: cap.max(2),
            ring: Mutex::new(VecDeque::new()),
            last_rotate_ns: AtomicU64::new(NEVER),
        }
    }

    /// Whether a sample taken at `mono_ns` would currently be accepted.
    /// Cheap (one atomic load) — callers use it to skip building a sample
    /// at all when rotation is not due.
    pub fn due(&self, mono_ns: u64) -> bool {
        let last = self.last_rotate_ns.load(Ordering::Acquire);
        last == NEVER || mono_ns.saturating_sub(last) >= self.interval_ns
    }

    /// Offers a sample to the ring. At most one offer per interval wins —
    /// concurrent rotators race on a CAS and losers drop their sample.
    /// Returns whether this sample was stored.
    pub fn rotate(&self, sample: WindowSample) -> bool {
        let last = self.last_rotate_ns.load(Ordering::Acquire);
        if last != NEVER && sample.mono_ns.saturating_sub(last) < self.interval_ns {
            return false;
        }
        if self
            .last_rotate_ns
            .compare_exchange(last, sample.mono_ns, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.push(sample);
        true
    }

    /// Stores a sample unconditionally (no interval election), so a test
    /// can lay out a ring sample by sample.
    #[cfg(test)]
    fn force_rotate(&self, sample: WindowSample) {
        self.last_rotate_ns.store(sample.mono_ns, Ordering::Release);
        self.push(sample);
    }

    fn push(&self, sample: WindowSample) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// Number of samples currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the ring holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The windowed view ending at the newest sample: the difference
    /// against the oldest sample no older than `window_ns`. Falls back to
    /// the immediately preceding sample when every other sample is older
    /// than the window (e.g. scrapes stopped for a while — the delta then
    /// honestly spans the whole gap, visible in `elapsed_ns`). Returns
    /// `None` until the ring holds two samples: a window needs both
    /// endpoints, so the very first scrape of a server's life has no rates.
    pub fn delta(&self, window_ns: u64) -> Option<WindowDelta> {
        let ring = self.ring.lock().unwrap();
        if ring.len() < 2 {
            return None;
        }
        let newest = ring.back().expect("len checked");
        // Oldest sample still inside the window; the sample before the
        // newest is the fallback baseline.
        let base = ring
            .iter()
            .find(|s| newest.mono_ns.saturating_sub(s.mono_ns) <= window_ns)
            .filter(|s| !std::ptr::eq(*s, newest))
            .unwrap_or_else(|| &ring[ring.len() - 2]);
        let counters = newest
            .counters
            .iter()
            .zip(base.counters.iter().chain(std::iter::repeat(&0)))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        Some(WindowDelta {
            elapsed_ns: newest.mono_ns.saturating_sub(base.mono_ns),
            samples: ring.len(),
            counters,
            hist: newest.hist.delta_since(&base.hist),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const S: u64 = 1_000_000_000;

    fn sample(mono_ns: u64, ops: u64, hist: HistogramSnapshot) -> WindowSample {
        WindowSample { mono_ns, counters: vec![ops], hist }
    }

    #[test]
    fn empty_and_single_sample_windows_have_no_delta() {
        let ring = WindowRing::new(S, 8);
        assert!(ring.delta(10 * S).is_none());
        assert!(ring.rotate(sample(5 * S, 100, HistogramSnapshot::empty())));
        assert_eq!(ring.len(), 1);
        assert!(ring.delta(10 * S).is_none(), "one endpoint is not a window");
    }

    #[test]
    fn rotation_election_rejects_samples_inside_the_interval() {
        let ring = WindowRing::new(S, 8);
        assert!(ring.rotate(sample(10 * S, 1, HistogramSnapshot::empty())));
        // Too soon — dropped.
        assert!(!ring.rotate(sample(10 * S + S / 2, 2, HistogramSnapshot::empty())));
        assert_eq!(ring.len(), 1);
        // On the next interval boundary — accepted.
        assert!(ring.rotate(sample(11 * S, 3, HistogramSnapshot::empty())));
        assert_eq!(ring.len(), 2);
        let d = ring.delta(10 * S).unwrap();
        assert_eq!(d.counter(0), 2);
        assert_eq!(d.elapsed_ns, S);
        assert!((d.rate(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn delta_picks_the_oldest_sample_inside_the_window() {
        let ring = WindowRing::new(S, 8);
        for t in 0..6u64 {
            ring.force_rotate(sample(t * S, t * 100, HistogramSnapshot::empty()));
        }
        // Window of 3 s ending at t=5 s: baseline is t=2 s.
        let d = ring.delta(3 * S).unwrap();
        assert_eq!(d.elapsed_ns, 3 * S);
        assert_eq!(d.counter(0), 300);
        // A huge window reaches back to the oldest sample.
        let d = ring.delta(100 * S).unwrap();
        assert_eq!(d.elapsed_ns, 5 * S);
        assert_eq!(d.counter(0), 500);
    }

    #[test]
    fn delta_falls_back_to_the_previous_sample_when_the_gap_exceeds_the_window() {
        // Scrapes stopped for a minute: both samples are older than the
        // window relative to each other, so the delta spans the real gap.
        let ring = WindowRing::new(S, 8);
        ring.force_rotate(sample(10 * S, 1000, HistogramSnapshot::empty()));
        ring.force_rotate(sample(70 * S, 7000, HistogramSnapshot::empty()));
        let d = ring.delta(10 * S).unwrap();
        assert_eq!(d.elapsed_ns, 60 * S);
        assert_eq!(d.counter(0), 6000);
        assert!((d.rate(0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn frozen_or_backwards_clocks_yield_zero_rates_not_wraps() {
        let ring = WindowRing::new(S, 8);
        ring.force_rotate(sample(50 * S, 100, HistogramSnapshot::empty()));
        // Clock went backwards *and* the counter "reset" below baseline.
        ring.force_rotate(sample(40 * S, 30, HistogramSnapshot::empty()));
        let d = ring.delta(10 * S).unwrap();
        assert_eq!(d.elapsed_ns, 0, "backwards clock saturates to an empty span");
        assert_eq!(d.counter(0), 0, "counter reset saturates, never wraps");
        assert_eq!(d.rate(0), 0.0);
        // Frozen clock: same timestamp twice. The skewed ring resolves the
        // baseline to the oldest "in-window" sample (ages saturate to 0),
        // so the counter delta saturates too — zeros, never wraps.
        ring.force_rotate(sample(40 * S, 35, HistogramSnapshot::empty()));
        let d = ring.delta(10 * S).unwrap();
        assert_eq!(d.elapsed_ns, 0);
        assert_eq!(d.rate(0), 0.0);
        assert_eq!(d.counter(0), 0);
    }

    #[test]
    fn capacity_evicts_the_oldest_sample() {
        let ring = WindowRing::new(S, 4);
        for t in 0..10u64 {
            ring.force_rotate(sample(t * S, t, HistogramSnapshot::empty()));
        }
        assert_eq!(ring.len(), 4);
        // Oldest surviving sample is t=6.
        let d = ring.delta(100 * S).unwrap();
        assert_eq!(d.elapsed_ns, 3 * S);
        assert_eq!(d.counter(0), 3);
    }

    #[test]
    fn mismatched_counter_vectors_treat_missing_baselines_as_zero() {
        // The embedder grew its counter vector between samples.
        let ring = WindowRing::new(S, 8);
        let mut a = sample(0, 10, HistogramSnapshot::empty());
        a.counters = vec![10];
        ring.force_rotate(a);
        let mut b = sample(S, 25, HistogramSnapshot::empty());
        b.counters = vec![25, 7];
        ring.force_rotate(b);
        let d = ring.delta(10 * S).unwrap();
        assert_eq!(d.counter(0), 15);
        assert_eq!(d.counter(1), 7, "new counter deltas against an implicit 0");
        assert_eq!(d.counter(9), 0, "out-of-range reads are 0");
    }

    #[test]
    fn delta_matches_a_model_under_concurrent_recording() {
        // Writers hammer a cumulative counter + histogram while a rotator
        // thread samples them; every mid-flight delta must be internally
        // sane, and the final fenced delta must match the model exactly.
        const WRITERS: usize = 4;
        const PER: u64 = 40_000;
        let ops = Arc::new(AtomicU64::new(0));
        let hist = Arc::new(Histogram::new());
        let ring = Arc::new(WindowRing::new(0, 64)); // accept every sample
        let snap = |t: u64, ops: &AtomicU64, hist: &Histogram| WindowSample {
            mono_ns: t,
            counters: vec![ops.load(Ordering::Relaxed)],
            hist: hist.snapshot(),
        };
        ring.force_rotate(snap(0, &ops, &hist));
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let (ops, hist) = (Arc::clone(&ops), Arc::clone(&hist));
                scope.spawn(move || {
                    for i in 0..PER {
                        hist.record(i % 4096);
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let (ops, hist, ring) = (Arc::clone(&ops), Arc::clone(&hist), Arc::clone(&ring));
            scope.spawn(move || {
                for t in 1..40u64 {
                    ring.rotate(snap(t * S, &ops, &hist));
                    let d = ring.delta(u64::MAX).expect("two samples exist");
                    assert!(d.counter(0) <= WRITERS as u64 * PER);
                    assert!(d.hist.count() <= WRITERS as u64 * PER);
                    if d.hist.count() > 0 {
                        assert!(d.hist.quantile(0.99) <= d.hist.quantile(1.0));
                    }
                    std::hint::spin_loop();
                }
            });
        });
        // All writers joined: one final sample, then the full-history delta
        // must equal the model (everything that was ever recorded).
        ring.force_rotate(snap(1000 * S, &ops, &hist));
        let d = ring.delta(u64::MAX).unwrap();
        assert_eq!(d.counter(0), WRITERS as u64 * PER);
        assert_eq!(d.hist.count(), WRITERS as u64 * PER);
        assert_eq!(d.hist.sum(), hist.snapshot().sum());
    }
}
