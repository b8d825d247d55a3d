//! `ConcurrentMap::search_lanes` answers, lane by lane, exactly what
//! `search` answers: through the default body for every registry structure
//! (behind its `Arc<dyn ConcurrentMap>`), and natively for
//! `FraserOptSkipList`, whose lanes run interleaved. The two staged cases
//! that need the skip list's internals — a tower marked but not yet
//! unlinked, a tombstoned value word — are unit tests in
//! `skiplist/fraser.rs`.

use std::sync::atomic::{AtomicBool, Ordering};

use ascylib::api::{ConcurrentMap, ReplaceMap, KEY_MAX, KEY_MIN, MAX_LANES};
use ascylib::registry;
use ascylib::skiplist::FraserOptSkipList;
use ascylib::stats;
use ascylib::testing::TestRng;

/// Instances the lanes of one batch are spread over.
const INSTANCES: usize = 3;

/// Keys `1..=KEYS` are spread over the instances.
const KEYS: u64 = 300;

/// Gives instance `i` the keys `k ≡ i (mod INSTANCES)` with value `10·k`,
/// both ends of the key range to instance 0 as well (key 1 also lives on
/// instance 1, with another value), then removes every seventh key.
fn populate<M: ConcurrentMap>(maps: &[M]) {
    for key in 1..=KEYS {
        assert!(maps[key as usize % INSTANCES].insert(key, key * 10));
    }
    assert!(maps[0].insert(KEY_MAX, 7));
    assert!(maps[0].insert(KEY_MIN, 9));
    for key in (7..=KEYS).step_by(7) {
        assert_eq!(maps[key as usize % INSTANCES].remove(key), Some(key * 10));
    }
}

/// A scrambled batch over every instance: present, absent and removed
/// keys, the two ends of the key range, keys asked of the wrong instance,
/// and duplicate lanes — many more than one interleaved pass holds.
fn lanes_of<M>(maps: &[M]) -> Vec<(&M, u64)> {
    let mut rng = TestRng::new(0x1A9E5);
    let mut lanes: Vec<(&M, u64)> = (0..4 * KEYS)
        .map(|_| (&maps[rng.key(INSTANCES as u64) as usize - 1], rng.key(KEYS + 20)))
        .collect();
    for map in maps {
        lanes.extend([(map, KEY_MIN), (map, KEY_MAX)]);
    }
    let duplicates: Vec<(&M, u64)> = lanes.iter().step_by(5).copied().collect();
    lanes.extend(duplicates);
    lanes.sort_by_key(|&(_, key)| key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    lanes
}

/// Every prefix width that crosses a pass boundary, and the whole batch,
/// must agree with a loop of `search` — answers and the thread's
/// traversal counters both.
fn assert_agrees<M: ConcurrentMap>(maps: &[M], what: &str) {
    let lanes = lanes_of(maps);
    for width in [0, 1, 2, MAX_LANES - 1, MAX_LANES, MAX_LANES + 1, 3 * MAX_LANES + 5, lanes.len()] {
        let lanes = &lanes[..width];
        let before = stats::snapshot();
        let expected: Vec<Option<u64>> = lanes.iter().map(|&(map, key)| map.search(key)).collect();
        let searched = stats::snapshot().saturating_sub(&before);
        let mut got = vec![Some(u64::MAX); width];
        let before = stats::snapshot();
        M::search_lanes(lanes, &mut got);
        let laned = stats::snapshot().saturating_sub(&before);
        assert_eq!(got, expected, "{what}: {width} lanes");
        assert_eq!(laned, searched, "{what}: {width} lanes counted otherwise than one by one");
    }
}

#[test]
fn every_registry_structure_agrees_through_the_default() {
    for entry in registry::all_algorithms() {
        let maps: Vec<_> = (0..INSTANCES).map(|_| (entry.construct)(1024)).collect();
        populate(&maps);
        assert_agrees(&maps, entry.name);
    }
}

#[test]
fn fraser_opt_agrees_natively() {
    let maps: Vec<FraserOptSkipList> = (0..INSTANCES).map(|_| FraserOptSkipList::new()).collect();
    populate(&maps);
    assert_agrees(&maps, "fraser-opt");
    // Overwritten values are read back, not the ones first inserted. Only
    // present keys are upserted, so the removed ones stay absent.
    for key in (2..=KEYS).step_by(11).filter(|key| key % 7 != 0) {
        assert_eq!(maps[key as usize % INSTANCES].upsert(key, key + 1), Some(key * 10));
    }
    assert_agrees(&maps, "fraser-opt after upserts");
}

#[test]
#[should_panic(expected = "one answer slot per lane")]
fn a_short_answer_slice_is_refused() {
    let map = FraserOptSkipList::new();
    FraserOptSkipList::search_lanes(&[(&map, 1), (&map, 2)], &mut [None]);
}

/// Writers overwrite keys that are never deleted while readers look them
/// up in interleaved batches spread over every instance: each lane
/// linearizes on its own, so no read may miss.
#[test]
fn concurrent_overwrites_never_read_as_absent() {
    const BATCHES: usize = 3_000;
    let maps: Vec<FraserOptSkipList> = (0..INSTANCES).map(|_| FraserOptSkipList::new()).collect();
    for key in 1..=KEYS {
        assert!(maps[key as usize % INSTANCES].insert(key, key));
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for writer in 0..2u64 {
            let (maps, done) = (&maps, &done);
            s.spawn(move || {
                let mut rng = TestRng::new(writer + 1);
                let mut round = 0u64;
                while !done.load(Ordering::Relaxed) {
                    round += 1;
                    let key = rng.key(KEYS);
                    let old = maps[key as usize % INSTANCES].upsert(key, key + KEYS * round);
                    assert!(old.is_some(), "key {key} vanished under upsert");
                }
            });
        }
        let readers: Vec<_> = (0..2u64)
            .map(|reader| {
                let maps = &maps;
                s.spawn(move || {
                    let mut rng = TestRng::new(100 + reader);
                    let mut out = [None; MAX_LANES];
                    for _ in 0..BATCHES {
                        let lanes: Vec<(&FraserOptSkipList, u64)> = (0..MAX_LANES)
                            .map(|_| rng.key(KEYS))
                            .map(|key| (&maps[key as usize % INSTANCES], key))
                            .collect();
                        FraserOptSkipList::search_lanes(&lanes, &mut out);
                        for (&(_, key), found) in lanes.iter().zip(out) {
                            let value = found.unwrap_or_else(|| panic!("key {key} read as absent"));
                            assert_eq!(value % KEYS, key % KEYS, "key {key} read {value}");
                        }
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        done.store(true, Ordering::Relaxed);
    });
}
