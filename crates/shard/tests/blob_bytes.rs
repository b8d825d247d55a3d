//! What the blob arena asks the allocator for, counted from outside.
//!
//! A blob is freed with a layout recomputed from the payload length in its
//! header. Through ssmem's per-size-class census a set / overwrite / del /
//! drop cycle over every value length around both rounding granularities
//! must leave each size class with as many objects in use as before; a
//! retire whose layout differs from the store's shows as one class above
//! it and another below.
//!
//! A binary of its own with one `#[test]`: the census is process-wide, and
//! `tests/blob.rs` runs its tests in parallel threads.

use ascylib::skiplist::FraserOptSkipList;
use ascylib::testing::assert_arena_balanced;
use ascylib_shard::BlobMap;
use ascylib_ssmem as ssmem;

/// Longest value; header + payload crosses from 16-byte to 64-byte rounding
/// at 232.
const MAX_LEN: usize = 300;

fn value(len: usize, fill: u8) -> Vec<u8> {
    vec![fill; len]
}

fn cycle() {
    let map = BlobMap::new(2, |_| FraserOptSkipList::new());
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            ssmem::set_gc_threshold(32);
            for len in 0..=MAX_LEN {
                assert!(map.set(len as u64 + 1, &value(len, 1)), "first set creates");
            }
            // Overwrite each key with a value of another length, so the
            // displaced blob and its replacement sit in different classes.
            for len in 0..=MAX_LEN {
                let new_len = (len * 7 + 13) % (MAX_LEN + 1);
                assert!(!map.set(len as u64 + 1, &value(new_len, 2)), "second set overwrites");
            }
            for len in (0..=MAX_LEN).step_by(2) {
                assert!(map.del(len as u64 + 1));
            }
            assert_eq!(map.get_owned(2), Some(value((7 + 13) % (MAX_LEN + 1), 2)));
            // Nothing else runs, so every grace period is over: collect all
            // retired blobs into the pool, which the thread's exit hands
            // back.
            while ssmem::thread_stats().pending > 0 {
                ssmem::collect();
            }
        });
        worker.join().expect("blob worker panicked");
    });
    // The odd keys are still live: freed through the ledger on drop.
    assert_eq!(map.len(), MAX_LEN / 2);
    drop(map);
    ssmem::collect();
}

#[test]
fn blobs_are_freed_with_the_layout_they_were_stored_with() {
    assert_arena_balanced("BlobMap set/overwrite/del/drop, values of 0..=300 bytes", cycle);
}
