//! The test-and-test-and-set spin lock.
//!
//! This is the per-node lock used by the `lazy` and `pugh` linked lists
//! and by several other hybrid lock-based structures in ASCYLIB. It is a
//! single byte wide so that embedding one in every node does not blow up the
//! node footprint (ASCY4 cares about the number of cache lines touched per
//! update).

use std::sync::atomic::{AtomicU8, Ordering};

use crate::Backoff;

const UNLOCKED: u8 = 0;
const LOCKED: u8 = 1;

/// A test-and-test-and-set spin lock.
///
/// Spins on a plain load until the lock looks free, and only then attempts
/// the atomic swap: a waiter re-reads its own cached copy of the line
/// instead of forcing a cache-line transfer with every attempt.
///
/// # Example
///
/// ```
/// use ascylib_sync::TtasLock;
///
/// let lock = TtasLock::new();
/// lock.lock();
/// assert!(lock.is_locked());
/// lock.unlock();
/// assert!(!lock.is_locked());
/// ```
#[derive(Debug)]
pub struct TtasLock {
    state: AtomicU8,
}

impl TtasLock {
    /// Creates a new, unlocked lock.
    #[inline]
    pub const fn new() -> Self {
        Self { state: AtomicU8::new(UNLOCKED) }
    }

    /// Attempts to acquire the lock once (load-then-swap).
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.state.load(Ordering::Relaxed) == UNLOCKED
            && self.state.swap(LOCKED, Ordering::Acquire) == UNLOCKED
    }

    /// Acquires the lock, spinning on a read until it becomes available.
    #[inline]
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        loop {
            while self.state.load(Ordering::Relaxed) == LOCKED {
                backoff.spin();
                if backoff.is_saturated() {
                    std::thread::yield_now();
                }
            }
            if self.state.swap(LOCKED, Ordering::Acquire) == UNLOCKED {
                return;
            }
        }
    }

    /// Releases the lock.
    #[inline]
    pub fn unlock(&self) {
        self.state.store(UNLOCKED, Ordering::Release);
    }

    /// Returns `true` if the lock is currently held by some thread.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) == LOCKED
    }
}

impl Default for TtasLock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ttas_basic() {
        let l = TtasLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        l.lock();
        l.unlock();
        assert!(!l.is_locked());
    }

    fn hammer_counter<L, F, G>(lock: Arc<L>, lock_fn: F, unlock_fn: G) -> u64
    where
        L: Send + Sync + 'static,
        F: Fn(&L) + Send + Sync + Copy + 'static,
        G: Fn(&L) + Send + Sync + Copy + 'static,
    {
        use std::sync::atomic::AtomicU64;
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        const THREADS: usize = 4;
        const ITERS: u64 = 10_000;
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..ITERS {
                    lock_fn(&lock);
                    // Non-atomic-looking read-modify-write protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    unlock_fn(&lock);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn ttas_provides_mutual_exclusion() {
        hammer_counter(Arc::new(TtasLock::new()), TtasLock::lock, TtasLock::unlock);
    }
}
