//! The `MONITOR` broadcast: a bounded, drop-counting fan-out of sampled
//! per-request trace events to subscribed connections.
//!
//! # Why an intermediate queue
//!
//! A connection belongs to one worker thread (see [`crate::server`]), and a
//! publisher is usually a different one: it cannot write into a
//! subscriber's output buffer. So the hub never touches a subscriber's
//! `Connection`: events land in a per-subscriber [`MonitorSink`] (a small
//! mutex-guarded frame queue) stamped with the subscriber's address —
//! `(worker, slab index)`. [`MonitorHub::publish`] hands back the addresses
//! of the sinks that need a wake; once the hub's locks are released the
//! publisher mails each to the owning worker's inbox (its own worker's
//! too), and *that* worker drains the sink into the connection's write
//! buffer.
//!
//! # Flow control
//!
//! The sink is bounded by bytes. A subscriber that stops reading (or reads
//! slower than events arrive) fills its sink; further events for it are
//! **dropped and counted**, never buffered unboundedly — the monitor
//! stream is lossy by design, like its Redis namesake. Once the drop count
//! crosses the eviction threshold the connection is closed with an in-band
//! `-ERR` so an operator sees *why* the stream ended. Drops are visible in
//! `INFO concurrency` (`monitor_dropped`) and `ascy_monitor_*` metrics.
//!
//! # Hot-path cost
//!
//! With no subscribers, the entire feature is one relaxed load per sampled
//! request ([`MonitorHub::active`]). Event rendering happens once per
//! published event (not per subscriber) and only when at least one
//! subscriber exists.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ascylib_telemetry::Family;

/// Default per-subscriber sink capacity in queued frame bytes (~a few
/// thousand events). Beyond it events for that subscriber are dropped.
pub(crate) const MONITOR_SINK_BYTES: usize = 256 * 1024;

/// Dropped events after which a lagging subscriber is evicted: the stream
/// has become more hole than signal, so the server closes it loudly
/// instead of letting the subscriber believe it is seeing the traffic.
pub(crate) const MONITOR_EVICT_DROPS: u64 = 4096;

/// Only drain monitor frames into a connection whose unflushed write
/// backlog is below this, so a subscriber that is also running ordinary
/// traffic keeps its replies flowing first (the sink absorbs the burst).
pub(crate) const MONITOR_DRAIN_BACKLOG: usize = 64 * 1024;

/// One sampled request trace event, as captured on the serving hot path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MonitorEvent {
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Command family of the request.
    pub family: Family,
    /// Primary key (first key for batched verbs, cursor for `SCAN`, 0 for
    /// keyless verbs).
    pub key: u64,
    /// Payload bytes the request carried.
    pub bytes: u64,
    /// Service time of the request in nanoseconds.
    pub service_ns: u64,
    /// Worker thread that served it.
    pub worker: u32,
}

impl MonitorEvent {
    /// The full wire frame: a simple-string line a `ReplyParser` yields as
    /// `Reply::Simple`, so existing clients need no new parsing.
    fn render(&self) -> Vec<u8> {
        format!(
            "+monitor unix_ms={} family={} key={} bytes={} service_ns={} worker={}\r\n",
            self.unix_ms,
            self.family.name(),
            self.key,
            self.bytes,
            self.service_ns,
            self.worker,
        )
        .into_bytes()
    }
}

/// The queue half of a sink, guarded by one mutex: frames, their byte
/// total, and whether the subscriber has already been woken for them.
#[derive(Debug, Default)]
struct SinkQueue {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
    /// `true` from the publish that asked for a wake until the subscriber
    /// drains: one wake per drain, however chatty the publishers.
    woken: bool,
}

/// One subscriber's event mailbox. The hub holds one `Arc`, the
/// subscribing `Connection` the other; when the connection dies its clone
/// drops and the hub prunes the sink on the next publish or scrape.
#[derive(Debug)]
pub(crate) struct MonitorSink {
    /// Address of the subscribing connection — its worker and slab slot —
    /// which is what [`MonitorHub::publish`] hands back for a wake.
    token: u64,
    /// Keep every `sample_n`-th eligible event (>= 1).
    pub(crate) sample_n: u64,
    /// Eligible events offered to this sink (sampling counter).
    seen: AtomicU64,
    /// Events dropped because the sink was full.
    dropped: AtomicU64,
    /// Set when `dropped` crosses the eviction threshold; the connection
    /// notices at drain time and closes itself in-band.
    evict: AtomicBool,
    /// Set by the connection when it stops monitoring (eviction path);
    /// publish skips and prunes gone sinks.
    gone: AtomicBool,
    q: Mutex<SinkQueue>,
}

impl MonitorSink {
    /// Whether this sink crossed the eviction threshold.
    pub(crate) fn evicted(&self) -> bool {
        self.evict.load(Ordering::Acquire)
    }

    /// Events dropped on this sink so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Marks the sink dead ahead of the connection's own teardown so
    /// publishers stop queueing into it immediately.
    pub(crate) fn mark_gone(&self) {
        self.gone.store(true, Ordering::Release);
    }

    /// Moves every queued frame into `out` (the connection's write
    /// buffer). Returns the number of frames moved. Clears the wake flag:
    /// the subscriber is demonstrably awake, and any later event re-wakes
    /// it through the hub.
    pub(crate) fn drain_into(&self, out: &mut Vec<u8>) -> usize {
        let mut q = self.q.lock().unwrap();
        q.woken = false;
        let n = q.frames.len();
        for frame in q.frames.drain(..) {
            out.extend_from_slice(&frame);
        }
        q.bytes = 0;
        n
    }
}

/// Aggregate monitor counters for the scrape surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Live subscribers right now.
    pub subscribers: u64,
    /// Events published since boot (counted once per event, not per
    /// subscriber).
    pub events: u64,
    /// Per-subscriber drops, summed over all subscribers since boot.
    pub dropped: u64,
}

/// The broadcast hub: the subscriber list and the global counters. One per
/// server, owned by `Shared`.
#[derive(Debug)]
pub(crate) struct MonitorHub {
    subs: Mutex<Vec<Arc<MonitorSink>>>,
    /// Cached `subs.len()` for the hot-path zero-subscriber check.
    active: AtomicUsize,
    events: AtomicU64,
    dropped_total: AtomicU64,
    sink_bytes: usize,
    evict_drops: u64,
}

impl Default for MonitorHub {
    fn default() -> Self {
        Self::with_limits(MONITOR_SINK_BYTES, MONITOR_EVICT_DROPS)
    }
}

impl MonitorHub {
    /// A hub with explicit per-sink byte capacity and eviction threshold
    /// (tests use tiny ones; the server uses the defaults).
    pub(crate) fn with_limits(sink_bytes: usize, evict_drops: u64) -> Self {
        MonitorHub {
            subs: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
            sink_bytes,
            evict_drops,
        }
    }

    /// The zero-cost-when-unused gate: one relaxed load on the sampled
    /// request path.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }

    /// Registers a subscriber. `sample_n` of 0 or `None` means every
    /// eligible event.
    pub(crate) fn subscribe(&self, token: u64, sample_n: Option<u64>) -> Arc<MonitorSink> {
        let sink = Arc::new(MonitorSink {
            token,
            sample_n: sample_n.unwrap_or(1).max(1),
            seen: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evict: AtomicBool::new(false),
            gone: AtomicBool::new(false),
            q: Mutex::new(SinkQueue::default()),
        });
        let mut subs = self.subs.lock().unwrap();
        Self::prune(&mut subs);
        subs.push(Arc::clone(&sink));
        self.active.store(subs.len(), Ordering::Release);
        sink
    }

    /// Drops sinks whose connection is gone (the hub holds the only
    /// remaining `Arc`) or that marked themselves gone.
    fn prune(subs: &mut Vec<Arc<MonitorSink>>) {
        subs.retain(|s| Arc::strong_count(s) > 1 && !s.gone.load(Ordering::Acquire));
    }

    /// Fans one event out to every live subscriber. Frames are rendered
    /// once; full sinks count a drop instead of queueing. Returns the
    /// addresses of the sinks that went non-empty (or crossed the eviction
    /// threshold) and whose subscriber the caller must wake.
    pub(crate) fn publish(&self, ev: &MonitorEvent) -> Vec<u64> {
        let mut wakes = Vec::new();
        let mut subs = self.subs.lock().unwrap();
        Self::prune(&mut subs);
        self.active.store(subs.len(), Ordering::Release);
        if subs.is_empty() {
            return wakes;
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut frame: Option<Vec<u8>> = None;
        for sink in subs.iter() {
            let n = sink.seen.fetch_add(1, Ordering::Relaxed);
            if n % sink.sample_n != 0 {
                continue;
            }
            let frame = frame.get_or_insert_with(|| ev.render());
            let mut q = sink.q.lock().unwrap();
            let mut wake = false;
            if q.bytes + frame.len() > self.sink_bytes {
                let dropped = sink.dropped.fetch_add(1, Ordering::Relaxed) + 1;
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
                if dropped >= self.evict_drops && !sink.evict.swap(true, Ordering::AcqRel) {
                    // First crossing: wake the subscriber so it can close
                    // itself in-band.
                    wake = true;
                }
            } else {
                q.bytes += frame.len();
                q.frames.push_back(frame.clone());
                wake = !q.woken;
            }
            if wake {
                q.woken = true;
                wakes.push(sink.token);
            }
        }
        wakes
    }

    /// Scrape-time aggregate (prunes dead sinks first so `subscribers` is
    /// honest).
    pub(crate) fn stats(&self) -> MonitorStats {
        let mut subs = self.subs.lock().unwrap();
        Self::prune(&mut subs);
        self.active.store(subs.len(), Ordering::Release);
        MonitorStats {
            subscribers: subs.len() as u64,
            events: self.events.load(Ordering::Relaxed),
            dropped: self.dropped_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u64) -> MonitorEvent {
        MonitorEvent {
            unix_ms: 1_700_000_000_000,
            family: Family::Get,
            key,
            bytes: 0,
            service_ns: 500,
            worker: 2,
        }
    }

    #[test]
    fn events_render_as_simple_frames_and_round_trip_the_reply_parser() {
        let frame = ev(42).render();
        let mut p = crate::protocol::ReplyParser::new();
        p.feed(&frame);
        match p.next() {
            Some(Ok(crate::protocol::Reply::Simple(s))) => {
                assert!(s.starts_with("monitor "), "{s}");
                assert!(s.contains("family=get"), "{s}");
                assert!(s.contains("key=42"), "{s}");
                assert!(s.contains("worker=2"), "{s}");
            }
            other => panic!("expected a simple frame, got {other:?}"),
        }
    }

    #[test]
    fn fan_out_respects_per_subscriber_sampling() {
        let hub = MonitorHub::default();
        let every = hub.subscribe(1, None);
        let third = hub.subscribe(2, Some(3));
        assert!(hub.active());
        let wakes: Vec<Vec<u64>> = (0..9).map(|k| hub.publish(&ev(k))).collect();
        let mut a = Vec::new();
        assert_eq!(every.drain_into(&mut a), 9);
        let mut b = Vec::new();
        assert_eq!(third.drain_into(&mut b), 3, "every 3rd eligible event");
        let stats = hub.stats();
        assert_eq!(stats.subscribers, 2);
        assert_eq!(stats.events, 9);
        assert_eq!(stats.dropped, 0);
        // Wakes were handed back for both sinks, deduplicated while queued.
        let wakes = wakes.concat();
        assert!(wakes.contains(&1) && wakes.contains(&2));
        assert_eq!(wakes.len(), 2, "one wake per sink until it drains");
    }

    #[test]
    fn stalled_subscriber_drops_are_counted_then_evicted() {
        // Sink fits exactly one frame; evict after 3 drops.
        let frame_len = ev(0).render().len();
        let hub = MonitorHub::with_limits(frame_len, 3);
        let sink = hub.subscribe(7, None);
        hub.publish(&ev(0)); // queued
        hub.publish(&ev(1)); // dropped (1)
        hub.publish(&ev(2)); // dropped (2)
        assert_eq!(sink.dropped(), 2);
        assert!(!sink.evicted());
        let wakes = hub.publish(&ev(3)); // dropped (3) -> evict
        assert!(sink.evicted());
        assert_eq!(hub.stats().dropped, 3);
        assert_eq!(hub.stats().events, 4, "drops still count as published events");
        // The eviction crossing asks for a wake so the victim can close.
        assert!(wakes.contains(&7));
        // The queued frame is still drainable; the dropped ones are gone.
        let mut out = Vec::new();
        assert_eq!(sink.drain_into(&mut out), 1);
        // After draining, the sink accepts events again (lossy, not dead).
        hub.publish(&ev(4));
        let mut out = Vec::new();
        assert_eq!(sink.drain_into(&mut out), 1);
    }

    #[test]
    fn dead_subscribers_are_pruned_and_the_hub_goes_inactive() {
        let hub = MonitorHub::default();
        let sink = hub.subscribe(9, None);
        assert!(hub.active());
        drop(sink); // the "connection" died; hub holds the last Arc
        hub.publish(&ev(0));
        assert!(!hub.active(), "publish prunes dead sinks");
        assert_eq!(hub.stats().subscribers, 0);
        // mark_gone has the same effect for live Arcs.
        let sink = hub.subscribe(10, None);
        sink.mark_gone();
        assert_eq!(hub.stats().subscribers, 0);
        assert!(!hub.active());
    }
}
