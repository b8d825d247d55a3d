//! # ascylib-sync — locking and low-level synchronization substrate
//!
//! This crate provides the synchronization primitives used by the
//! [ASCYLIB-RS](https://example.com/ascylib-rs) concurrent search data
//! structures, mirroring the lock implementations shipped with the original
//! ASCYLIB C library from the ASPLOS'15 paper *"Asynchronized Concurrency:
//! The Secret to Scaling Concurrent Search Data Structures"*:
//!
//! * [`TtasLock`] — a test-and-test-and-set spin lock (the per-node lock
//!   used by the `lazy` and `pugh` lists).
//! * [`TicketLock`] — a FIFO ticket lock (used by the `coupling` list and the
//!   per-bucket hash-table locks).
//! * [`TreeLock`] — the *versioned* ticket lock pair used by BST-TK: two
//!   32-bit ticket locks (left/right child edges) packed in one 64-bit word,
//!   with `try_lock_*_at` operations that only succeed if the lock version is
//!   still the one observed during the optimistic parse phase.
//! * [`RwSpinLock`] — a reader-writer spin lock (used by the TBB-style hash
//!   table substitute).
//! * [`Backoff`] — bounded exponential back-off.
//! * [`CachePadded`] — re-exported from `crossbeam-utils`, plus the
//!   [`CACHE_LINE_SIZE`] constant used to size CLHT buckets.
//!
//! All locks are *raw*: they protect data by convention (the data structures
//! embed them inside nodes), so the basic interface is `lock`/`unlock` on
//! `&self`. RAII guards are provided where they fit naturally.
//!
//! # Example
//!
//! ```
//! use ascylib_sync::TicketLock;
//!
//! let lock = TicketLock::new();
//! lock.lock();
//! // ... critical section ...
//! lock.unlock();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod rw;
pub mod tas;
pub mod ticket;
pub mod versioned;

pub use backoff::Backoff;
pub use crossbeam_utils::CachePadded;
pub use rw::RwSpinLock;
pub use tas::TtasLock;
pub use ticket::TicketLock;
pub use versioned::{TreeLock, TreeLockSnapshot};

/// Size, in bytes, of a cache line on the platforms targeted by ASCYLIB.
///
/// CLHT sizes its buckets to exactly one cache line (8 × 64-bit words) so
/// that most operations complete with at most one cache-line transfer.
pub const CACHE_LINE_SIZE: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;
    use std::sync::Arc;

    #[test]
    fn cache_line_is_eight_words() {
        assert_eq!(CACHE_LINE_SIZE, 8 * std::mem::size_of::<u64>());
    }

    /// A deliberately non-atomic counter: if the lock under test ever admits
    /// two threads at once, increments are lost and the total comes up short
    /// (or tsan/miri would flag the race outright).
    struct RacyCounter(UnsafeCell<u64>);

    // SAFETY: the tests only touch the cell while holding the lock under test.
    unsafe impl Send for RacyCounter {}
    // SAFETY: see above.
    unsafe impl Sync for RacyCounter {}

    const THREADS: usize = 4;
    const INCREMENTS: u64 = 20_000;

    /// Runs 4 threads that each bump the shared counter `INCREMENTS` times
    /// inside the provided critical section, then checks nothing was lost.
    fn exercise_mutual_exclusion<F>(critical: F)
    where
        F: Fn(&RacyCounter) + Send + Sync + 'static,
    {
        let counter = Arc::new(RacyCounter(UnsafeCell::new(0)));
        let critical = Arc::new(critical);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let critical = Arc::clone(&critical);
                std::thread::spawn(move || {
                    for _ in 0..INCREMENTS {
                        critical(&counter);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all threads joined; no concurrent access remains.
        let total = unsafe { *counter.0.get() };
        assert_eq!(total, THREADS as u64 * INCREMENTS);
    }

    /// Bumps the counter; caller must already hold the protecting lock.
    fn bump(c: &RacyCounter) {
        // SAFETY: guaranteed exclusive by the lock held by the caller.
        unsafe { *c.0.get() += 1 };
    }

    #[test]
    fn ttas_lock_guards_counter_under_contention() {
        let lock = Arc::new(TtasLock::new());
        exercise_mutual_exclusion(move |c| {
            lock.lock();
            bump(c);
            lock.unlock();
        });
    }

    #[test]
    fn ticket_lock_guards_counter_under_contention() {
        let lock = Arc::new(TicketLock::new());
        exercise_mutual_exclusion(move |c| {
            lock.lock();
            bump(c);
            lock.unlock();
        });
    }

    #[test]
    fn rw_lock_write_side_guards_counter_under_contention() {
        let lock = Arc::new(RwSpinLock::new());
        exercise_mutual_exclusion(move |c| {
            lock.write_lock();
            bump(c);
            lock.write_unlock();
        });
    }

    #[test]
    fn tree_lock_guards_counter_under_contention() {
        let lock = Arc::new(TreeLock::new());
        exercise_mutual_exclusion(move |c| {
            loop {
                let snap = lock.snapshot();
                if snap.is_unlocked(versioned::Side::Left)
                    && lock.try_lock(versioned::Side::Left, &snap)
                {
                    break;
                }
                std::hint::spin_loop();
            }
            bump(c);
            lock.unlock(versioned::Side::Left);
        });
    }

    #[test]
    fn locks_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TtasLock>();
        assert_send_sync::<TicketLock>();
        assert_send_sync::<TreeLock>();
        assert_send_sync::<RwSpinLock>();
    }
}
