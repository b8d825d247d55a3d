//! Blob-layer integration tests: arena reclamation under churn (no torn or
//! reused payload is ever observable) and property-based differential
//! testing of `BlobMap` against `HashMap<u64, Vec<u8>>`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use ascylib::hashtable::ClhtLb;
use ascylib::skiplist::FraserOptSkipList;
use ascylib_shard::BlobMap;

/// Held by the tests whose outcome depends on who pins the epoch: seven
/// threads of reader/writer churn on two CPUs are descheduled inside epoch
/// guards for milliseconds at a time, and reclamation on every other thread
/// of the process stalls for as long.
static EPOCH_CHURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Payload self-description: `[key | seq | len]` header (24 bytes, LE) and a
/// fill byte derived from `(key, seq)`. Any torn, truncated, or
/// reused-while-reading blob breaks at least one of the checks in
/// [`check_canary`].
const CANARY_HEADER: usize = 24;

fn canary_payload(key: u64, seq: u64, len: usize) -> Vec<u8> {
    let len = len.max(CANARY_HEADER);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    let fill = (key ^ seq.rotate_left(17)) as u8 | 1;
    out.resize(len, fill);
    out
}

fn check_canary(key: u64, bytes: &[u8]) {
    assert!(
        bytes.len() >= CANARY_HEADER,
        "key {key}: blob shorter than its header ({} bytes)",
        bytes.len()
    );
    let read_key = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    assert_eq!(read_key, key, "key {key}: blob belongs to another key (reused mid-read?)");
    assert_eq!(len as usize, bytes.len(), "key {key}: length prefix disagrees with the copy");
    let fill = (key ^ seq.rotate_left(17)) as u8 | 1;
    for (i, &b) in bytes[CANARY_HEADER..].iter().enumerate() {
        assert_eq!(
            b, fill,
            "key {key} seq {seq}: torn byte at offset {} ({b} != {fill})",
            CANARY_HEADER + i
        );
    }
}

/// N writers overwrite/delete a small set of hot keys while readers copy
/// blobs out concurrently; every successful read must observe one fully
/// written payload (canary bytes + length prefix intact).
#[test]
fn readers_never_observe_torn_or_reused_blobs_under_churn() {
    let _quiet = EPOCH_CHURN.lock().unwrap_or_else(|e| e.into_inner());
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const HOT_KEYS: u64 = 16;
    const OPS_PER_WRITER: u64 = 15_000;

    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    let done = Arc::new(AtomicBool::new(false));
    let reads_ok = Arc::new(AtomicU64::new(0));

    // Small retire batches so reclamation (and hence potential reuse) is
    // exercised constantly, not only at the 512-object default threshold.
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let map = Arc::clone(&map);
            scope.spawn(move || {
                ascylib_ssmem::set_gc_threshold(8);
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ w);
                for i in 0..OPS_PER_WRITER {
                    let key = 1 + rng.random_range(0..HOT_KEYS);
                    if rng.random_range(0..10u32) < 8 {
                        let seq = (w << 48) | i;
                        let len = CANARY_HEADER + rng.random_range(0..200usize);
                        map.set(key, &canary_payload(key, seq, len));
                    } else {
                        map.del(key);
                    }
                }
            });
        }
        for r in 0..READERS as u64 {
            let map = Arc::clone(&map);
            let done = Arc::clone(&done);
            let reads_ok = Arc::clone(&reads_ok);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBEEF ^ r);
                let mut buf = Vec::new();
                let mut hits = 0u64;
                while !done.load(Ordering::Acquire) {
                    let key = 1 + rng.random_range(0..HOT_KEYS);
                    if map.get(key, &mut buf) {
                        check_canary(key, &buf);
                        hits += 1;
                    }
                }
                reads_ok.fetch_add(hits, Ordering::Relaxed);
            });
        }
        // Readers run until the writers are done; writer completion is
        // observable through the map's aggregate write counters (each
        // writer performs exactly OPS_PER_WRITER inserts + removes).
        let want = (WRITERS as u64) * OPS_PER_WRITER;
        loop {
            let s = map.total_stats();
            if s.inserts + s.removes >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
    });

    assert!(reads_ok.load(Ordering::Relaxed) > 0, "readers must observe live blobs");
    // Final state self-check: whatever survived is a valid canary payload.
    let mut buf = Vec::new();
    let mut live = 0u64;
    for key in 1..=HOT_KEYS {
        if map.get(key, &mut buf) {
            check_canary(key, &buf);
            live += 1;
        }
    }
    let stats = map.total_arena_stats();
    assert_eq!(stats.live_blobs(), live, "arena ledger agrees with the surviving keys");
    assert_eq!(map.len() as u64, live);
}

/// Steady same-size overwrite churn reuses retired blob memory across
/// epochs instead of growing: the ssmem pool serves recycled allocations
/// and live payload bytes stay exactly one value's worth per key.
#[test]
fn arena_reuses_blob_memory_across_epochs_without_leak_growth() {
    let _quiet = EPOCH_CHURN.lock().unwrap_or_else(|e| e.into_inner());
    let map = BlobMap::new(2, |_| ClhtLb::with_capacity(64));
    ascylib_ssmem::set_gc_threshold(4);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut payload = vec![0u8; 256];

    let mut reused_seen = false;
    let mut peak_pooled = 0u64;
    for round in 0..2_000u64 {
        for key in 1..=8u64 {
            rng.fill_bytes(&mut payload);
            payload[0] = round as u8; // vary contents, not size
            map.set(key, &payload);
        }
        ascylib_ssmem::collect();
        let s = ascylib_ssmem::thread_stats();
        peak_pooled = peak_pooled.max(s.pooled);
        if s.reused > 0 {
            reused_seen = true;
            if round > 200 {
                break;
            }
        }
    }
    assert!(reused_seen, "epoch churn must recycle retired blob memory");

    let arena = map.total_arena_stats();
    assert_eq!(arena.live_blobs(), 8, "one live blob per key, every overwrite retired one");
    assert_eq!(arena.live_bytes(), 8 * 256);
    // The no-leak witness: pending + pooled memory is bounded by the GC
    // threshold and pool caps, not by the number of overwrites performed.
    let s = ascylib_ssmem::thread_stats();
    assert!(
        s.pending + s.pooled < 512,
        "retired blobs must be recycled, not accumulated: {s:?}"
    );
}

/// Driver for the differential suites: applies a fuzz-chosen op sequence to
/// a `BlobMap` and to a `HashMap<u64, Vec<u8>>` model; every observable
/// result must agree.
fn check_against_model<M, F>(make: F, ops: &[(u8, u64, Vec<u8>)], ordered: bool)
where
    M: ascylib::api::ReplaceMap,
    F: Fn() -> BlobMap<M>,
    BlobMap<M>: ScanIfOrdered,
{
    let map = make();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut out = Vec::new();
    for (i, (op, raw_key, payload)) in ops.iter().enumerate() {
        let key = 1 + raw_key % 48;
        match op % 6 {
            0 | 1 => {
                let created = map.set(key, payload);
                assert_eq!(created, !model.contains_key(&key), "set({key}) step {i}");
                model.insert(key, payload.clone());
            }
            2 => {
                assert_eq!(map.del(key), model.remove(&key).is_some(), "del({key}) step {i}");
            }
            3 => {
                let found = map.get(key, &mut out);
                match model.get(&key) {
                    Some(v) => {
                        assert!(found, "get({key}) step {i}");
                        assert_eq!(&out, v, "get({key}) step {i}");
                    }
                    None => assert!(!found, "get({key}) step {i}"),
                }
            }
            4 => {
                let keys: Vec<u64> = (key..key + 5).collect();
                let got = map.multi_get(&keys);
                let want: Vec<Option<Vec<u8>>> =
                    keys.iter().map(|k| model.get(k).cloned()).collect();
                assert_eq!(got, want, "multi_get step {i}");
            }
            _ => {
                if ordered {
                    let got = map.scan_if_ordered(key, 8);
                    let mut want: Vec<(u64, Vec<u8>)> = model
                        .iter()
                        .filter(|(&k, _)| k >= key)
                        .map(|(&k, v)| (k, v.clone()))
                        .collect();
                    want.sort_by_key(|&(k, _)| k);
                    want.truncate(8);
                    assert_eq!(got, want, "scan step {i}");
                }
            }
        }
    }
    assert_eq!(map.len(), model.len());
    let arena = map.total_arena_stats();
    assert_eq!(arena.live_blobs() as usize, model.len());
    assert_eq!(
        arena.live_bytes(),
        model.values().map(|v| v.len() as u64).sum::<u64>(),
        "live payload bytes must equal the model's"
    );
}

/// Lets the shared driver call `scan` only on ordered backings.
trait ScanIfOrdered {
    fn scan_if_ordered(&self, from: u64, n: usize) -> Vec<(u64, Vec<u8>)>;
}

impl ScanIfOrdered for BlobMap<FraserOptSkipList> {
    fn scan_if_ordered(&self, from: u64, n: usize) -> Vec<(u64, Vec<u8>)> {
        self.scan(from, n)
    }
}

impl ScanIfOrdered for BlobMap<ClhtLb> {
    fn scan_if_ordered(&self, _from: u64, _n: usize) -> Vec<(u64, Vec<u8>)> {
        unreachable!("hash backings are never scanned by the driver")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ordered backing: the full surface (set/del/get/multi_get/scan)
    /// against the sequential model, arbitrary binary payloads included.
    #[test]
    fn prop_blob_map_over_skiplist_matches_hashmap(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..96)),
            1..200,
        )
    ) {
        check_against_model(|| BlobMap::new(3, |_| FraserOptSkipList::new()), &ops, true);
    }

    /// Hash backing: point and batched operations against the model.
    #[test]
    fn prop_blob_map_over_clht_matches_hashmap(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..96)),
            1..200,
        )
    ) {
        check_against_model(|| BlobMap::new(3, |_| ClhtLb::with_capacity(64)), &ops, false);
    }
}
