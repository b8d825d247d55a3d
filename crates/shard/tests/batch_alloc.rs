//! What one batched read asks the allocator for, counted from outside: a
//! warmed 16-key `BlobMap::multi_get_into` into a `BatchValues` that held
//! the previous batch allocates nothing — no handle list, no lane list,
//! no list of the keys the front cache left over, no value buffer.
//!
//! A binary of its own with one `#[test]`: the ledger is process-wide.

use ascylib::skiplist::FraserOptSkipList;
use ascylib::testing::CountingAlloc;
use ascylib_shard::{BatchValues, BlobMap, HotKeyConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BATCH: u64 = 16;

/// Keys `1..=PRESENT` are stored; the batch asks for two more that are not.
const PRESENT: u64 = BATCH - 2;

fn value(key: u64) -> Vec<u8> {
    vec![key as u8; 64]
}

/// An engine that never samples: batches take its front-probe path, and
/// nothing is promoted but what the test pins.
fn quiet_engine() -> HotKeyConfig {
    HotKeyConfig { k: 16, sample_every: 1 << 31, ..HotKeyConfig::default() }
}

fn assert_warm_batch_allocates_nothing(what: &str, map: &BlobMap<FraserOptSkipList>) {
    let keys: Vec<u64> = (1..=PRESENT).chain([PRESENT + 1, 1 << 40]).collect();
    let mut out = BatchValues::default();
    for _ in 0..3 {
        map.multi_get_into(&keys, &mut out);
    }
    let before = ALLOC.requested();
    map.multi_get_into(&keys, &mut out);
    let requested = ALLOC.requested() - before;
    assert_eq!(requested, 0, "{what}: a warmed batch requested {requested} bytes");
    let expected: Vec<Option<Vec<u8>>> =
        keys.iter().map(|&key| (key <= PRESENT).then(|| value(key))).collect();
    assert_eq!(out.to_vec(), expected, "{what}");
}

#[test]
fn a_warmed_batch_allocates_nothing() {
    let plain = BlobMap::new(4, |_| FraserOptSkipList::new());
    let quiet = BlobMap::with_hotkeys(4, quiet_engine(), |_| FraserOptSkipList::new());
    let fronted = BlobMap::with_hotkeys(4, quiet_engine(), |_| FraserOptSkipList::new());
    for map in [&plain, &quiet, &fronted] {
        for key in 1..=PRESENT {
            assert!(map.set(key, &value(key)));
        }
    }
    // Front hits, a front-cached absence, and backing reads in one batch.
    let engine = fronted.hotkey_engine().expect("engine attached");
    for key in [1, 5, 1 << 40] {
        engine.pin(key);
    }
    assert_warm_batch_allocates_nothing("no engine", &plain);
    assert_warm_batch_allocates_nothing("idle engine", &quiet);
    assert_warm_batch_allocates_nothing("fronted keys", &fronted);
    let front = fronted.hotkey_stats().expect("engine attached");
    assert!(front.front_hits > 0 && front.front_absent > 0, "{front:?}");
}
