//! The SET path's two concurrent contracts, over both backings the blob
//! layer is built on and with the hot-key engine on and off:
//!
//! * **never absent** — a key that is overwritten but never deleted is
//!   found by every `get` (an overwrite is one in-place swap on the index,
//!   not a remove followed by an insert);
//! * **exactly once** — whatever races on a key (`set`, `del`, `expire`'s
//!   retag, budget eviction), every stored blob is retired once, and the
//!   arena's counters, its byte gauge and its ledger agree with the index
//!   at quiescence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use ascylib::api::ReplaceMap;
use ascylib::hashtable::ClhtLb;
use ascylib::skiplist::FraserOptSkipList;
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

/// `[key | seq]` and a fill whose length varies with `seq`, so overwrites
/// move between allocation size classes.
fn payload(key: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + (seq % 200) as usize);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.resize(16 + (seq % 200) as usize, key as u8);
    out
}

fn never_absent<M: ReplaceMap>(map: BlobMap<M>) {
    const KEYS: u64 = 16;
    const WRITERS: u64 = 2;
    const READERS: usize = 2;
    const SETS_PER_WRITER: u64 = 100_000;
    for key in 1..=KEYS {
        assert!(map.set(key, &payload(key, 0)));
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITERS as usize + READERS);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let mut out = Vec::new();
                start.wait();
                // Relaxed: `done` publishes nothing, it only ends the loop.
                while !done.load(Ordering::Relaxed) {
                    for key in 1..=KEYS {
                        assert!(
                            map.get(key, &mut out),
                            "key {key} read as absent mid-overwrite"
                        );
                        assert_eq!(
                            out[..8],
                            key.to_le_bytes(),
                            "key {key} got another key's value"
                        );
                    }
                }
            });
        }
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start) = (&map, &start);
                s.spawn(move || {
                    start.wait();
                    // Both writers walk the same keys, so overwrites also
                    // race each other.
                    for seq in 1..=SETS_PER_WRITER {
                        let key = 1 + (seq + w) % KEYS;
                        assert!(
                            !map.set(key, &payload(key, seq)),
                            "overwrite of key {key}, never deleted, reported a create"
                        );
                    }
                })
            })
            .collect();
        // Stop the readers before reporting a writer's panic, or the scope
        // would wait on them forever.
        let outcomes: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Relaxed);
        for outcome in outcomes {
            outcome.expect("writer panicked");
        }
    });
    assert_eq!(map.len(), KEYS as usize);
    let arena = map.total_arena_stats();
    assert_eq!(
        arena.live_blobs(),
        KEYS,
        "every overwrite retired exactly the blob it displaced"
    );
}

#[test]
fn never_absent_over_the_skip_list() {
    never_absent(BlobMap::new(2, |_| FraserOptSkipList::new()));
}

#[test]
fn never_absent_over_the_skip_list_with_hot_keys() {
    // k = 4 of 16 keys: fronted keys publish their sets under the front
    // slot lock (write-through), the rest take the plain path and poison.
    never_absent(BlobMap::with_hotkeys(2, HotKeyConfig::eager(4), |_| {
        FraserOptSkipList::new()
    }));
}

#[test]
fn never_absent_over_clht() {
    never_absent(BlobMap::new(2, |_| ClhtLb::with_capacity(8)));
}

#[test]
fn never_absent_over_clht_with_hot_keys() {
    never_absent(BlobMap::with_hotkeys(2, HotKeyConfig::eager(4), |_| {
        ClhtLb::with_capacity(8)
    }));
}

fn exactly_once<M: ReplaceMap>(make: impl Fn(usize) -> M) {
    const KEYS: u64 = 6;
    const OPS: u64 = 40_000;
    // Two shards of 1 KiB each against values of up to 216 bytes: almost
    // every set has to evict first.
    let map = BlobMap::with_config(
        2,
        HotKeyConfig::eager(2),
        CacheConfig::unbounded().with_budget(2048),
        make,
    );
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let (map, start) = (&map, &start);
            s.spawn(move || {
                start.wait();
                for seq in 1..=OPS {
                    let key = 1 + (seq * 7 + w) % KEYS;
                    map.set(key, &payload(key, seq));
                }
            });
        }
        s.spawn(|| {
            start.wait();
            for seq in 1..=OPS {
                map.del(1 + seq % KEYS);
            }
        });
        s.spawn(|| {
            start.wait();
            // An hour: the deadline never passes, but a value stored without
            // one is unlinked, retagged in the ledger and republished.
            for seq in 1..=OPS {
                map.expire(1 + seq % KEYS, 3_600_000);
            }
        });
    });
    let arena = map.total_arena_stats();
    assert_eq!(
        arena.live_blobs(),
        map.len() as u64,
        "a blob leaked or was retired twice: {arena:?}"
    );
    let live_payload: u64 = (1..=KEYS)
        .filter_map(|key| map.get_owned(key))
        .map(|v| v.len() as u64)
        .sum();
    assert_eq!(map.cache_stats().live_bytes, live_payload);
    assert_eq!(arena.live_bytes(), live_payload);
    // In a debug build every retire and retag above checked the ledger
    // position word it followed; the drop frees the survivors through the
    // ledger.
    drop(map);
}

#[test]
fn set_del_expire_and_eviction_retire_each_blob_exactly_once() {
    exactly_once(|_| FraserOptSkipList::new());
    exactly_once(|_| ClhtLb::with_capacity(4));
}
