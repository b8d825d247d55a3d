//! What the blob arena asks the allocator for, counted from outside.
//!
//! A blob is freed with a layout recomputed from the payload length in its
//! header and the TTL flag in its handle. Through ssmem's per-size-class
//! census a cycle of set, set with a deadline, EXPIRE of a deadline-free
//! value (a re-store into a blob with an expiry word), PERSIST, overwrite,
//! del and drop over every value length around the 512-byte arena limit
//! must leave each size class with as many objects in use as before; a
//! retire whose layout differs from the store's shows as one class above
//! it and another below. A second workload runs CLOCK eviction under a
//! small budget and the TTL sweep, both of which reclaim through the
//! index's conditional remove, and drops the map with keys still live.
//!
//! A binary of its own with one `#[test]`: the census is process-wide, and
//! `tests/blob.rs` runs its tests in parallel threads.

use std::sync::Arc;

use ascylib::skiplist::FraserOptSkipList;
use ascylib::testing::assert_arena_balanced;
use ascylib_shard::{BlobMap, CacheConfig, FakeClock, HotKeyConfig};
use ascylib_ssmem as ssmem;

/// Longest value; header + payload crosses from 8-byte rounding in the
/// arena to 64-byte rounding on the system allocator at 497 bytes (489
/// with a deadline).
const MAX_LEN: usize = 600;

/// A deadline no run reaches.
const HOUR_MS: u64 = 3_600_000;

fn value(len: usize, fill: u8) -> Vec<u8> {
    vec![fill; len]
}

/// Another length, so a displaced blob and its replacement sit in
/// different classes.
fn other_len(len: usize) -> usize {
    (len * 7 + 13) % (MAX_LEN + 1)
}

fn cycle() {
    let map = BlobMap::new(2, |_| FraserOptSkipList::new());
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            ssmem::set_gc_threshold(32);
            for len in 0..=MAX_LEN {
                assert!(map.set(len as u64 + 1, &value(len, 1)), "first set creates");
            }
            // Odd lengths: EXPIRE re-stores the deadline-free value with an
            // expiry word. Even lengths: an overwrite with a deadline.
            for len in 0..=MAX_LEN {
                let key = len as u64 + 1;
                if len % 2 == 1 {
                    assert!(map.expire(key, HOUR_MS));
                    assert_eq!(map.get_owned(key), Some(value(len, 1)), "EXPIRE kept the value");
                } else {
                    assert!(!map.set_ex(key, &value(other_len(len), 2), HOUR_MS));
                }
            }
            // PERSIST keeps the expiry word; a later deadline-free
            // overwrite drops it.
            for len in (0..=MAX_LEN).step_by(3) {
                assert!(map.persist(len as u64 + 1));
            }
            for len in (1..=MAX_LEN).step_by(4) {
                assert!(!map.set(len as u64 + 1, &value(other_len(len), 3)), "overwrite");
            }
            for len in (0..=MAX_LEN).step_by(2) {
                assert!(map.del(len as u64 + 1));
            }
            assert_eq!(map.get_owned(2), Some(value(other_len(1), 3)));
            assert_eq!(map.get_owned(4), Some(value(3, 1)));
            // Collect all retired blobs into the pool, which the thread's
            // exit hands back.
            collect_all();
        });
        worker.join().expect("blob worker panicked");
    });
    // The odd keys are still live: the drop frees them from its walk over
    // the index.
    assert_eq!(map.len(), MAX_LEN / 2);
    drop(map);
    ssmem::collect();
}

/// Collects every blob this thread retired into its pool (nothing else
/// runs, so every grace period is over).
fn collect_all() {
    while ssmem::thread_stats().pending > 0 {
        ssmem::collect();
    }
}

fn evict_sweep_and_drop() {
    let clock = Arc::new(FakeClock::new());
    let cfg = CacheConfig::unbounded()
        .with_budget(8 * 1024)
        .with_clock(clock.clone());
    let map = BlobMap::with_config(2, HotKeyConfig::default(), cfg, |_| {
        FraserOptSkipList::new()
    });
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            ssmem::set_gc_threshold(32);
            // Ten times the budget, half of it with a deadline: CLOCK evicts.
            for key in 1..=400u64 {
                let len = (key as usize * 37) % (MAX_LEN + 1);
                if key % 2 == 0 {
                    map.set_ex(key, &value(len, 4), 50);
                } else {
                    map.set(key, &value(len, 5));
                }
            }
            assert!(map.cache_stats().evictions > 0, "nothing was evicted");
            // Past every deadline: empty values, which evict nothing, drive
            // the piggybacked sweep over the corpses.
            clock.advance(50);
            for key in 1_000..5_000u64 {
                map.set(key, b"");
            }
            assert!(
                map.cache_stats().expired_swept > 0,
                "the sweep reclaimed nothing"
            );
            collect_all();
        });
        worker.join().expect("eviction worker panicked");
    });
    assert!(map.len() > 4_000, "the drop must free live keys");
    drop(map);
    ssmem::collect();
}

#[test]
fn blobs_are_freed_with_the_layout_they_were_stored_with() {
    assert_arena_balanced(
        "BlobMap set/set_ex/expire/persist/overwrite/del/drop, values of 0..=600 bytes",
        cycle,
    );
    assert_arena_balanced(
        "BlobMap CLOCK eviction and TTL sweep under an 8 KiB budget, then drop",
        evict_sweep_and_drop,
    );
}
