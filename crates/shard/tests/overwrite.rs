//! The SET path's two concurrent contracts, with the hot-key engine on and
//! off:
//!
//! * **never absent** — a key that is overwritten, given a deadline or
//!   persisted but never deleted is found by every `get` (an overwrite, and
//!   `expire`'s swap-in of a TTL'd copy, are one in-place swap on the
//!   index, not a remove followed by an insert);
//! * **exactly once** — whatever races on a key (`set`, `del`, `expire`'s
//!   re-store, budget eviction), every stored blob is retired once, and the
//!   arena's counters and its byte and blob gauges agree with the index at
//!   quiescence.
//!
//! The fronted tests run again over shards past their hint-table floor
//! (`HintedFraserOpt`), where an overwrite, `expire`'s swap and an
//! eviction reach the key's node through a hint.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use ascylib::api::ReplaceMap;
use ascylib::ordered::OrderedMap;
use ascylib::skiplist::FraserOptSkipList;
use ascylib::testing::HintedFraserOpt;
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

/// The writers' step in [`never_absent`]: an overwrite that must not
/// report a create.
fn overwrite<M: OrderedMap + ReplaceMap>(map: &BlobMap<M>, key: u64, seq: u64) {
    assert!(
        !map.set(key, &payload(key, seq)),
        "overwrite of key {key}, never deleted, reported a create"
    );
}

/// The writers' step in the EXPIRE/PERSIST battery: a deadline-free
/// overwrite, so the `expire` after it has to re-store the value with an
/// expiry word, then a deadline an hour out (never reached) and `persist`.
fn expire_and_persist<M: OrderedMap + ReplaceMap>(map: &BlobMap<M>, key: u64, seq: u64) {
    overwrite(map, key, seq);
    assert!(map.expire(key, 3_600_000), "EXPIRE of key {key}, never deleted, found it absent");
    assert!(map.persist(key), "PERSIST of key {key}, never deleted, found it absent");
}

/// Runs the battery; returns its writers' hint hits.
fn never_absent<M: OrderedMap + ReplaceMap>(
    map: BlobMap<M>,
    write: fn(&BlobMap<M>, u64, u64),
) -> u64 {
    const KEYS: u64 = 16;
    const WRITERS: u64 = 2;
    const READERS: usize = 2;
    const SETS_PER_WRITER: u64 = 100_000;
    for key in 1..=KEYS {
        assert!(map.set(key, &payload(key, 0)));
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITERS as usize + READERS);
    let hint_hits = std::thread::scope(|s| {
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
                        write(map, 1 + (seq + w) % KEYS, seq);
                    }
                    // Cumulative over this thread, which did nothing else.
                    ascylib::stats::snapshot().hint_hits
                })
            })
            .collect();
        // Stop the readers before reporting a writer's panic, or the scope
        // would wait on them forever.
        let outcomes: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Relaxed);
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("writer panicked"))
            .sum::<u64>()
    });
    assert_eq!(map.len(), KEYS as usize);
    let arena = map.total_arena_stats();
    assert_eq!(
        arena.live_blobs(),
        KEYS,
        "every overwrite retired exactly the blob it displaced"
    );
    hint_hits
}

#[test]
fn never_absent_over_the_skip_list() {
    never_absent(BlobMap::new(2, |_| FraserOptSkipList::new()), overwrite);
}

#[test]
fn never_absent_over_the_skip_list_with_hot_keys() {
    // k = 4 of 16 keys: fronted keys publish their sets under the front
    // slot word (write-through), the rest take the plain path and poison.
    never_absent(
        BlobMap::with_hotkeys(2, HotKeyConfig::eager(4), |_| FraserOptSkipList::new()),
        overwrite,
    );
}

#[test]
fn never_absent_over_hinted_shards_with_hot_keys() {
    // A fronted key's write-through and a plain key's overwrite are both an
    // `upsert` through the key's hint.
    let hint_hits = never_absent(
        BlobMap::with_hotkeys(2, HotKeyConfig::eager(4), |_| HintedFraserOpt::new()),
        overwrite,
    );
    assert!(hint_hits > 0, "no overwrite reached its key through a hint");
}

#[test]
fn expire_and_persist_never_hide_a_key_over_the_skip_list_with_hot_keys() {
    // Fronted keys' overwrites go write-through; `expire` swaps a TTL'd
    // copy in under the slot word and leaves it pending, so the key falls
    // back to the backing.
    never_absent(
        BlobMap::with_hotkeys(2, HotKeyConfig::eager(4), |_| FraserOptSkipList::new()),
        expire_and_persist,
    );
}

#[test]
fn set_del_expire_and_eviction_retire_each_blob_exactly_once() {
    retire_each_blob_exactly_once(FraserOptSkipList::new);
}

#[test]
fn set_del_expire_and_eviction_retire_each_blob_exactly_once_over_hinted_shards() {
    // CLOCK's victims and deletes clear hints that fronted sets and
    // `expire`'s swaps reach through.
    let hint_hits = retire_each_blob_exactly_once(HintedFraserOpt::new);
    assert!(hint_hits > 0, "no set, delete or expire reached its key through a hint");
}

/// Runs the race; returns the hint hits of the threads that raced.
fn retire_each_blob_exactly_once<M: OrderedMap + ReplaceMap>(backing: fn() -> M) -> u64 {
    const KEYS: u64 = 6;
    const OPS: u64 = 40_000;
    // Two shards of 1 KiB each against values of up to 216 bytes: almost
    // every set has to evict first.
    let map = BlobMap::with_config(
        2,
        HotKeyConfig::eager(2),
        CacheConfig::unbounded().with_budget(2048),
        |_| backing(),
    );
    let start = Barrier::new(4);
    // Cumulative over the calling thread, which did nothing else.
    let own_hint_hits = || ascylib::stats::snapshot().hint_hits;
    let hint_hits = std::thread::scope(|s| {
        let mut racers = Vec::new();
        for w in 0..2u64 {
            let (map, start) = (&map, &start);
            racers.push(s.spawn(move || {
                start.wait();
                for seq in 1..=OPS {
                    let key = 1 + (seq * 7 + w) % KEYS;
                    map.set(key, &payload(key, seq));
                }
                own_hint_hits()
            }));
        }
        racers.push(s.spawn(|| {
            start.wait();
            for seq in 1..=OPS {
                map.del(1 + seq % KEYS);
            }
            own_hint_hits()
        }));
        racers.push(s.spawn(|| {
            start.wait();
            // An hour: the deadline never passes, but a value stored without
            // one is copied into a TTL'd blob that is swapped in for it.
            for seq in 1..=OPS {
                map.expire(1 + seq % KEYS, 3_600_000);
            }
            own_hint_hits()
        }));
        racers.into_iter().map(|r| r.join().expect("racer panicked")).sum::<u64>()
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
    // In a debug build every retire above checked that its blob was not
    // retired before and every payload access the blob's layout tag; the
    // drop frees the survivors through the index.
    drop(map);
    hint_hits
}
