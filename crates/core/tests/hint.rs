//! `fraser-opt`'s hint table seen from outside: what a hinted point
//! operation costs in shared traffic (ASCY1, ASCY3, ASCY4 on the hinted
//! path), that an insert of an absent key walks once, that lists the size
//! of the paper's Figure 5 and of Figure 2 at average contention have no
//! table while one of 16 384 keys has one, how many keys of a 250 000-key
//! list and of one router shard the table hints, and four-thread stresses
//! over a hot range of a hinted list.

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
        let (swapped, c) = counted(|| list.compare_replace(key, key, key + 1));
        assert_eq!(swapped, Ok(()));
        if c.hint_hits == 1 {
            hinted += 1;
            assert_eq!((c.atomic_ops, c.shared_stores, c.nodes_traversed), (1, 0, 0), "key {key}: {c:?}");
        }
        let (stale, c) = counted(|| list.compare_replace(key, key, key + 2));
        assert_eq!(stale, Err(Some(key + 1)));
        if c.hint_hits == 1 {
            // A replace whose expected value is stale is one failed CAS.
            assert_eq!((c.atomic_ops, c.atomic_failures, c.shared_stores, c.nodes_traversed), (1, 1, 0, 0), "key {key}: {c:?}");
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
fn one_slot_per_key_hints_most_keys_of_a_250k_key_list() {
    // One of `embed_read`'s four shards: 250 000 keys loaded in a
    // scrambled order (1 000 003 is prime, so the keys are distinct), then
    // each searched once. The count sizes the table for 262 144 keys, one
    // slot each; the keys whose bucket was full when they were loaded, or
    // that a grow's copy could not place, walk. A plain list, not
    // `HintedFraserOpt`, whose fillers would crowd the same table.
    // Measured: 218 183 of 250 000 searches hinted (87.3 %); at 5/8 of a
    // slot per key a table holds at most 65.5 % of them.
    const KEYS: u64 = 250_000;
    let list = FraserOptSkipList::new();
    let keys: Vec<u64> = (1..=KEYS).map(|i| 1 + i * 48_271 % 1_000_003).collect();
    for &key in &keys {
        assert!(list.insert(key, key));
    }
    let mut hinted = 0;
    for &key in &keys {
        let (found, c) = counted(|| list.search(key));
        assert_eq!(found, Some(key));
        hinted += c.hint_hits;
    }
    let share = hinted as f64 / KEYS as f64;
    assert!(share >= 0.82, "only {hinted} of {KEYS} searches were hinted ({:.1} %)", 100.0 * share);
}

#[test]
fn one_shard_of_a_million_dense_keys_is_hinted_after_one_read() {
    // `embed_read`'s shard 1 of four: the keys of 1..=1 000 000 whose
    // Fibonacci product the router sends there, loaded in a scrambled
    // order, read once (a read fills an empty slot), then read again. The
    // table's bucket comes from the product's bits just below the
    // router's, which one shard's keys do not spread evenly: its 8-slot
    // buckets hold 5 to 14 of them. With one bucket per key, 227 771 of
    // the 249 999 second-pass searches (91.1 %) were hinted; a second
    // bucket, named by the fingerprint, raised that to 245 787 (98.3 %).
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
    let keys: Vec<u64> = (1..=1_000_000u64).filter(|k| k.wrapping_mul(FIB) >> 62 == 1).collect();
    let n = keys.len();
    // 48 271 is prime and does not divide `n`: a permutation.
    let scrambled: Vec<u64> = (0..n).map(|i| keys[i * 48_271 % n]).collect();
    let list = FraserOptSkipList::new();
    for &key in &scrambled {
        assert!(list.insert(key, key));
    }
    for &key in &scrambled {
        assert_eq!(list.search(key), Some(key));
    }
    let mut hinted = 0;
    for &key in &scrambled {
        let (found, c) = counted(|| list.search(key));
        assert_eq!(found, Some(key));
        hinted += c.hint_hits;
    }
    let share = hinted as f64 / n as f64;
    assert!(share >= 0.97, "only {hinted} of {n} searches were hinted ({:.1} %)", 100.0 * share);
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

#[test]
fn a_list_the_size_of_figure_2_at_average_contention_has_no_table() {
    // `fig2_cross_platform`'s average-contention skip list: 4 096 keys on
    // an 8 192-key range, 10 % updates split between inserts and removes.
    // Each update draws a fresh tower, so the churn resamples the count
    // over and over; a table, once allocated, is never given back, so one
    // look at the end sees any crossing.
    const RANGE: u64 = 8_192;
    let list = FraserOptSkipList::new();
    let mut rng = TestRng::new(0xF162);
    while list.size() < RANGE as usize / 2 {
        list.insert(rng.key(RANGE), 0);
    }
    for op in 0..200_000u64 {
        let key = rng.key(RANGE);
        match rng.next_u64() % 20 {
            0 => {
                list.insert(key, op);
            }
            1 => {
                list.remove(key);
            }
            _ => {
                list.search(key);
            }
        }
    }
    let size = list.size();
    assert!((3_500..=4_700).contains(&size), "the churn drifted to {size} keys");
    assert_eq!(list.hint_table_bytes(), 0, "a {size}-key list allocated a table");
}

#[test]
fn a_list_of_16_384_keys_has_a_table() {
    // Twice the floor (and Figure 2's low-contention size): the count
    // stands for 256 ± 16 tall towers, and the floor is 128 of them.
    // Several lists, each drawing its own towers.
    for round in 0..4u64 {
        let list = FraserOptSkipList::new();
        for key in 1..=16_384 {
            assert!(list.insert(key, round));
        }
        assert!(list.hint_table_bytes() > 0, "round {round}: 16 384 keys and no table");
    }
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
    // Four threads over 64 hot keys of a list past its floor: upserts,
    // inserts, removes, compare-replaces and batched searches race on the
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
                            if let Some(v) = list.upsert(key, value_of(key, seq)) {
                                assert_belongs(key, v, "upsert");
                            }
                        }
                        1 => {
                            list.insert(key, value_of(key, seq));
                        }
                        2 => {
                            if let Some(v) = list.remove(key) {
                                assert_belongs(key, v, "remove");
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
    // One live node per key: `size` counts the level-0 chain's live nodes,
    // so a key linked twice counts twice.
    let present = (1..=HOT).filter(|&key| list.search(key).is_some()).count();
    assert_eq!(list.size(), present, "a key is linked twice");
}

#[test]
fn an_insert_of_an_absent_key_walks_once() {
    // The even keys, past the floor; each odd key is absent, so its insert
    // is a hint miss, one read-only walk and the level-0 CAS from that
    // walk's own predecessors: the walk a search of the key makes, and no
    // second one through `find`.
    let list = FraserOptSkipList::new();
    for key in (2..=2 * KEYS).step_by(2) {
        assert!(list.insert(key, key));
    }
    assert!(list.hint_table_bytes() > 0, "{KEYS} keys did not pass the floor");
    for key in (1..2 * KEYS).step_by(2) {
        let (found, search) = counted(|| list.search(key));
        assert_eq!(found, None);
        let (inserted, c) = counted(|| list.insert(key, key));
        assert!(inserted);
        assert_eq!(
            (c.nodes_traversed, c.restarts, c.operations),
            (search.nodes_traversed, 0, 1),
            "key {key}: the search walked {} nodes, the insert recorded {c:?}",
            search.nodes_traversed
        );
    }
    assert_eq!(list.size(), 2 * KEYS as usize);
}

#[test]
fn an_upsert_of_a_hinted_present_key_is_one_cas() {
    let list = grown_and_read();
    let mut hinted = 0;
    for key in 1..=KEYS {
        let (old, c) = counted(|| list.upsert(key, key + 1));
        assert_eq!(old, Some(key));
        if c.hint_hits == 1 {
            hinted += 1;
            assert_eq!((c.atomic_ops, c.shared_stores, c.nodes_traversed), (1, 0, 0), "key {key}: {c:?}");
        }
    }
    assert!(hinted > KEYS / 2, "only {hinted} of {KEYS} upserts were hinted");
    assert_eq!(list.size(), KEYS as usize);
}

#[test]
fn hinted_list_stress_with_upserts_every_read_belongs_to_its_key() {
    // As the stress above, with upserts weighted up and no compare-replace:
    // an upsert that misses its hint links a new node from its own
    // read-only walk, racing the removes that mark and unlink the nodes
    // around it, and every value any operation hands back must still carry
    // its own key.
    const HOT: u64 = 64;
    const OPS: usize = 60_000;
    let list = HintedFraserOpt::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = &list;
            s.spawn(move || {
                let mut rng = TestRng::new(0x0B5E + t);
                for seq in 0..OPS as u64 {
                    let key = rng.key(HOT);
                    match rng.next_u64() % 6 {
                        0 | 1 => {
                            if let Some(v) = list.upsert(key, value_of(key, seq)) {
                                assert_belongs(key, v, "upsert");
                            }
                        }
                        2 => {
                            list.insert(key, value_of(key, seq));
                        }
                        3 => {
                            if let Some(v) = list.remove(key) {
                                assert_belongs(key, v, "remove");
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
    // One live node per key: `size` counts the level-0 chain's live nodes,
    // so a key linked twice counts twice.
    let present = (1..=HOT).filter(|&key| list.search(key).is_some()).count();
    assert_eq!(list.size(), present, "a key is linked twice");
}
