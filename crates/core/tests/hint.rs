//! `fraser-opt`'s hint table seen from outside: what a hinted point
//! operation costs in shared traffic (ASCY1, ASCY3, ASCY4 on the hinted
//! path), that a list the size of the paper's Figure 5 has no table, and a
//! four-thread stress over a hot range of a hinted list.

use ascylib::api::{ConcurrentMap, ReplaceMap};
use ascylib::skiplist::FraserOptSkipList;
use ascylib::stats::{self, OpCounters};
use ascylib::testing::{HintedFraserOpt, TestRng};

/// Keys of the grown list: past the floor on every draw of tower heights.
const KEYS: u64 = 60_000;

/// A list of `1..=KEYS`, each key read once, so every key whose bucket had
/// room holds a hint.
fn grown_and_read() -> FraserOptSkipList {
    let list = FraserOptSkipList::new();
    for key in 1..=KEYS {
        assert!(list.insert(key, key));
    }
    assert!(list.hint_table_bytes() > 0, "{KEYS} keys did not pass the floor");
    for key in 1..=KEYS {
        assert_eq!(list.search(key), Some(key));
    }
    list
}

/// The counters `op` records on this thread.
fn counted<R>(op: impl FnOnce() -> R) -> (R, OpCounters) {
    let before = stats::snapshot();
    let r = op();
    (r, stats::snapshot().saturating_sub(&before))
}

#[test]
fn a_hinted_search_stores_nothing_and_walks_nothing() {
    let list = grown_and_read();
    let mut hinted = 0;
    for key in 1..=KEYS {
        let (found, c) = counted(|| list.search(key));
        assert_eq!(found, Some(key));
        if c.hint_hits == 1 {
            hinted += 1;
            assert_eq!((c.shared_stores, c.atomic_ops, c.nodes_traversed), (0, 0, 0), "key {key}: {c:?}");
        } else {
            // ASCY1 on the walk too: a read of a key that found no room
            // stores nothing.
            assert_eq!((c.shared_stores, c.atomic_ops), (0, 0), "key {key}: {c:?}");
        }
    }
    assert!(hinted > KEYS / 2, "only {hinted} of {KEYS} searches were hinted");
}

#[test]
fn a_hinted_replace_on_a_present_key_is_one_cas() {
    let list = grown_and_read();
    let mut hinted = 0;
    for key in 1..=KEYS {
        let (old, c) = counted(|| list.replace(key, key + 1));
        assert_eq!(old, Some(key));
        if c.hint_hits == 1 {
            hinted += 1;
            assert_eq!((c.atomic_ops, c.shared_stores, c.nodes_traversed), (1, 0, 0), "key {key}: {c:?}");
        }
        let (swapped, c) = counted(|| list.compare_replace(key, key + 1, key + 2));
        assert_eq!(swapped, Ok(()));
        if c.hint_hits == 1 {
            assert_eq!((c.atomic_ops, c.shared_stores), (1, 0), "key {key}: {c:?}");
        }
    }
    assert!(hinted > KEYS / 2, "only {hinted} of {KEYS} replaces were hinted");
}

#[test]
fn a_failed_insert_of_a_present_key_stores_nothing() {
    let list = grown_and_read();
    for key in 1..=KEYS {
        let (inserted, c) = counted(|| list.insert(key, 0));
        assert!(!inserted);
        assert_eq!((c.shared_stores, c.atomic_ops), (0, 0), "key {key}: {c:?}");
    }
}

#[test]
fn a_list_the_size_of_figure_5_has_no_table() {
    // `fig5_ascy2_skiplist` and `ablation_ascy` run `fraser-opt` at 1 024
    // keys: they measure the paper's unhinted list.
    let list = FraserOptSkipList::new();
    for round in 0..20 {
        for key in 1..=1_024 {
            list.insert(key, round);
        }
        for key in (1..=1_024).step_by(2) {
            list.remove(key);
        }
    }
    assert_eq!(list.hint_table_bytes(), 0);
    let (_, c) = counted(|| list.search(2));
    assert_eq!(c.hint_hits, 0);
}

/// Values carry their key: `key << 20 | seq`.
fn value_of(key: u64, seq: u64) -> u64 {
    key << 20 | (seq & 0xF_FFFF)
}

fn assert_belongs(key: u64, value: u64, what: &str) {
    assert_eq!(value >> 20, key, "{what} of key {key} returned {value:#x}, another key's value");
}

#[test]
fn hinted_list_stress_every_read_belongs_to_its_key() {
    // Four threads over 64 hot keys of a list past its floor: inserts,
    // removes, replaces, compare-replaces and batched searches race on the
    // same nodes, hints and buckets. A read through a hint to a recycled
    // node would hand out another key's value.
    const HOT: u64 = 64;
    const OPS: usize = 60_000;
    let list = HintedFraserOpt::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = &list;
            s.spawn(move || {
                let mut rng = TestRng::new(0x5EED + t);
                for seq in 0..OPS as u64 {
                    let key = rng.key(HOT);
                    match rng.next_u64() % 6 {
                        0 => {
                            list.insert(key, value_of(key, seq));
                        }
                        1 => {
                            if let Some(v) = list.remove(key) {
                                assert_belongs(key, v, "remove");
                            }
                        }
                        2 => {
                            if let Some(v) = list.replace(key, value_of(key, seq)) {
                                assert_belongs(key, v, "replace");
                            }
                        }
                        3 => {
                            let guess = value_of(key, seq.wrapping_sub(1));
                            if let Err(Some(v)) = list.compare_replace(key, guess, value_of(key, seq)) {
                                assert_belongs(key, v, "compare_replace");
                            }
                        }
                        4 => {
                            let keys: Vec<u64> = (0..8).map(|_| rng.key(HOT)).collect();
                            let lanes: Vec<_> = keys.iter().map(|&k| (list, k)).collect();
                            let mut out = vec![None; keys.len()];
                            HintedFraserOpt::search_lanes(&lanes, &mut out);
                            for (&k, v) in keys.iter().zip(out) {
                                if let Some(v) = v {
                                    assert_belongs(k, v, "search_lanes");
                                }
                            }
                        }
                        _ => {
                            if let Some(v) = list.search(key) {
                                assert_belongs(key, v, "search");
                            }
                        }
                    }
                }
            });
        }
    });
    for key in 1..=HOT {
        if let Some(v) = list.search(key) {
            assert_belongs(key, v, "final search");
        }
    }
}
