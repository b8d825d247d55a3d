//! A coarse timer wheel for idle-connection deadlines.
//!
//! Each worker has one, for the connections it owns. It files one deadline
//! per live connection and checks them lazily: when a bucket comes due, the
//! worker looks each token up in its slab and the connection's *actual*
//! last-activity time decides whether to evict or reschedule. That laziness
//! is what keeps the wheel O(1) per operation — activity on a connection
//! never has to find and remove a pending entry, it just updates
//! `last_active` and lets the stale wheel entry fall out on its next expiry.
//! Closing a connection removes nothing either: what a token means is the
//! worker's business (see `Entry::epoch` in [`crate::server`]), and one
//! filed for a connection that has closed since is dropped when it expires.

use std::time::{Duration, Instant};

pub(crate) struct TimerWheel {
    /// `buckets[i]` holds tokens due `i - cursor` ticks from now (mod len).
    buckets: Vec<Vec<u64>>,
    granularity: Duration,
    cursor: usize,
    /// The wall-clock position of `cursor`; advances in whole ticks.
    last_tick: Instant,
}

impl TimerWheel {
    /// A wheel spanning `span` with `granularity` ticks. Deadlines past the
    /// span are clamped to the furthest bucket — lazy re-checks reschedule
    /// them, so clamping affects precision, never correctness.
    pub(crate) fn new(span: Duration, granularity: Duration, now: Instant) -> TimerWheel {
        let granularity = granularity.max(Duration::from_millis(1));
        let ticks = (span.as_nanos() / granularity.as_nanos()).max(1) as usize;
        TimerWheel {
            buckets: (0..ticks + 2).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            last_tick: now,
        }
    }

    pub(crate) fn granularity(&self) -> Duration {
        self.granularity
    }

    /// Files `token` to come due at `deadline` (rounded up to a tick, at
    /// least one tick out so a just-scheduled token never fires instantly).
    pub(crate) fn schedule(&mut self, token: u64, deadline: Instant) {
        let delta = deadline.saturating_duration_since(self.last_tick);
        let gran = self.granularity.as_nanos();
        let ticks = delta.as_nanos().div_ceil(gran);
        let ticks = (ticks as usize).clamp(1, self.buckets.len() - 1);
        let slot = (self.cursor + ticks) % self.buckets.len();
        self.buckets[slot].push(token);
    }

    /// Rotates the wheel up to `now`, draining every due bucket into
    /// `expired`. Call at poll-timeout granularity; catching up after a long
    /// stall drains multiple buckets in one call.
    pub(crate) fn advance(&mut self, now: Instant, expired: &mut Vec<u64>) {
        while now.duration_since(self.last_tick) >= self.granularity {
            self.last_tick += self.granularity;
            self.cursor = (self.cursor + 1) % self.buckets.len();
            expired.append(&mut self.buckets[self.cursor]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Instant {
        Instant::now()
    }

    #[test]
    fn tokens_come_due_in_deadline_order() {
        let t0 = base();
        let gran = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(Duration::from_millis(100), gran, t0);
        wheel.schedule(1, t0 + Duration::from_millis(35));
        wheel.schedule(2, t0 + Duration::from_millis(75));
        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(30), &mut due);
        assert!(due.is_empty(), "35 ms deadline not due at 30 ms");
        wheel.advance(t0 + Duration::from_millis(40), &mut due);
        assert_eq!(due, vec![1]);
        due.clear();
        wheel.advance(t0 + Duration::from_millis(100), &mut due);
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn deadlines_past_the_span_clamp_to_the_far_edge() {
        let t0 = base();
        let mut wheel =
            TimerWheel::new(Duration::from_millis(50), Duration::from_millis(10), t0);
        wheel.schedule(9, t0 + Duration::from_secs(3600));
        let mut due = Vec::new();
        // The clamped entry surfaces within one full rotation, where the
        // lazy re-check would reschedule it.
        wheel.advance(t0 + Duration::from_millis(100), &mut due);
        assert_eq!(due, vec![9]);
    }

    #[test]
    fn past_and_immediate_deadlines_fire_on_the_next_tick() {
        let t0 = base();
        let gran = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(Duration::from_millis(100), gran, t0);
        wheel.schedule(7, t0); // already due
        let mut due = Vec::new();
        wheel.advance(t0 + gran, &mut due);
        assert_eq!(due, vec![7], "never files into the current bucket");
    }

    #[test]
    fn catching_up_after_a_stall_drains_every_due_bucket() {
        let t0 = base();
        let mut wheel =
            TimerWheel::new(Duration::from_millis(100), Duration::from_millis(10), t0);
        for (token, ms) in [(1u64, 15u64), (2, 45), (3, 85)] {
            wheel.schedule(token, t0 + Duration::from_millis(ms));
        }
        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(90), &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![1, 2, 3]);
    }
}
