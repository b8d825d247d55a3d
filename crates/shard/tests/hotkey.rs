//! Hot-key engine coherence battery.
//!
//! The engine's contract (see `shard/src/hotkey.rs`): a front-cache read
//! never returns a value older than the last completed write to that key,
//! and delegated writes keep linearizable per-key outcomes. These tests
//! attack the contract directly:
//!
//! * **canary churn** — N writers overwrite one pinned hot key with
//!   self-describing payloads (writer id + per-writer sequence header,
//!   derived fill byte) while M readers assert every observed value is
//!   untorn and that each writer's sequence numbers never run backwards
//!   (a regression would mean a stale copy resurfaced);
//! * **completed-watermark** — a single writer publishes a watermark
//!   *after* each write returns; readers grab the watermark before each
//!   lookup and the observed value must be at least that fresh — the
//!   "never older than the last completed write" clause verbatim;
//! * **differential** (proptest) — the same operation sequence against an
//!   engine-on and an engine-off `BlobMap` must be observably equivalent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ascylib::hashtable::ClhtLb;
use ascylib_shard::hotkey::FRONT_VALUE_CAP;
use ascylib_shard::{BlobMap, HotKeyConfig};

const HOT_KEY: u64 = 0xAB07; // arbitrary nonzero key

fn eager(k: usize) -> HotKeyConfig {
    HotKeyConfig::eager(k)
}

fn hot_blob_map(shards: usize) -> BlobMap<ClhtLb> {
    let map = BlobMap::with_hotkeys(shards, eager(8), |_| ClhtLb::with_capacity(1024));
    if let Some(hot) = map.hotkey_engine() {
        hot.pin(HOT_KEY);
    }
    map
}

/// Canary payload: `[writer_id: u64 | seq: u64 | fill × n]` where the fill
/// byte is a function of both header words — any mix of two payloads (torn
/// read) or a wrong-length copy is detected by the checker.
fn canary(writer: u64, seq: u64) -> Vec<u8> {
    let fill = (writer.wrapping_mul(31).wrapping_add(seq) % 251) as u8;
    let len = 16 + (seq % 40) as usize;
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&writer.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.resize(len, fill);
    v
}

/// Parses and verifies a canary; returns `(writer_id, seq)`.
fn check_canary(bytes: &[u8]) -> (u64, u64) {
    assert!(bytes.len() >= 16, "canary too short: {} bytes", bytes.len());
    let writer = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let fill = (writer.wrapping_mul(31).wrapping_add(seq) % 251) as u8;
    assert_eq!(bytes.len(), 16 + (seq % 40) as usize, "torn length for {writer}:{seq}");
    assert!(
        bytes[16..].iter().all(|&b| b == fill),
        "torn payload for writer {writer} seq {seq}: {:?}",
        &bytes[16..]
    );
    (writer, seq)
}

#[test]
fn canary_churn_over_blob_map_yields_untorn_monotonic_values() {
    const WRITERS: u64 = 3;
    const WRITES_PER: u64 = 400;
    let map = Arc::new(hot_blob_map(2));
    map.set(HOT_KEY, &canary(0, 0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Highest sequence observed per writer: a later observation
                // below the watermark means a stale value resurfaced.
                let mut seen = [0u64; WRITERS as usize + 1];
                let mut out = Vec::new();
                let mut observations = 0u64;
                // `stop` is tested after the observation: on a busy box a
                // reader may first run when the writers are already done.
                loop {
                    assert!(map.get(HOT_KEY, &mut out), "the hot key is never deleted here");
                    let (writer, seq) = check_canary(&out);
                    assert!(
                        seq >= seen[writer as usize],
                        "writer {writer} ran backwards: saw seq {seq} after {}",
                        seen[writer as usize]
                    );
                    seen[writer as usize] = seq;
                    observations += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observations
            })
        })
        .collect();

    let writers: Vec<_> = (1..=WRITERS)
        .map(|w| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for seq in 1..=WRITES_PER {
                    map.set(HOT_KEY, &canary(w, seq));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let observations = r.join().unwrap();
        assert!(observations > 0, "readers must have made progress");
    }

    // Quiescent: the front cache must agree with the backing exactly.
    let mut front = Vec::new();
    assert!(map.get(HOT_KEY, &mut front));
    let stats = map.hotkey_stats().expect("engine attached");
    assert!(stats.delegated > 0, "hot writes must have delegated: {stats:?}");
    assert!(stats.front_hits > 0, "hot reads must have hit the front cache: {stats:?}");
}

#[test]
fn completed_watermark_over_blob_map_is_never_violated() {
    let map = Arc::new(hot_blob_map(2));
    map.set(HOT_KEY, &canary(1, 0));
    // Published only *after* `set` returns: any read that starts later must
    // observe at least this sequence number.
    let completed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let map = Arc::clone(&map);
            let completed = Arc::clone(&completed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let watermark = completed.load(Ordering::Acquire);
                    assert!(map.get(HOT_KEY, &mut out));
                    let (_, seq) = check_canary(&out);
                    assert!(
                        seq >= watermark,
                        "front read returned seq {seq}, older than completed write {watermark}"
                    );
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();

    for seq in 1..=1500u64 {
        map.set(HOT_KEY, &canary(1, seq));
        completed.store(seq, Ordering::Release);
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn oversize_hot_values_pass_through_but_stay_coherent() {
    let map = hot_blob_map(2);
    let big = vec![0xEEu8; FRONT_VALUE_CAP + 100];
    map.set(HOT_KEY, &big);
    let mut out = Vec::new();
    for _ in 0..10 {
        assert!(map.get(HOT_KEY, &mut out));
        assert_eq!(out, big, "oversize values must round-trip via the backing");
    }
    // Shrinking back under the cap re-enables caching.
    map.set(HOT_KEY, b"small again");
    assert!(map.get(HOT_KEY, &mut out));
    assert_eq!(out, b"small again");
    assert!(map.get(HOT_KEY, &mut out));
    assert_eq!(out, b"small again");
    let stats = map.hotkey_stats().unwrap();
    assert!(stats.front_hits >= 1, "small value must be served from the front: {stats:?}");
}

#[test]
fn delegated_delete_caches_absence_until_the_next_write() {
    let map = hot_blob_map(2);
    map.set(HOT_KEY, b"here");
    let mut out = Vec::new();
    assert!(map.get(HOT_KEY, &mut out)); // pending → fill
    assert!(map.get(HOT_KEY, &mut out)); // hit
    assert!(map.del(HOT_KEY), "present key deletes");
    assert!(!map.get(HOT_KEY, &mut out), "deleted key reads absent");
    assert!(!map.del(HOT_KEY), "double delete fails");
    map.set(HOT_KEY, b"back");
    assert!(map.get(HOT_KEY, &mut out));
    assert_eq!(out, b"back");
}

mod differential {
    use super::*;
    use proptest::prelude::*;

    /// Keys drawn from a tiny space (`1..=12`) so the eager engine fronts
    /// most of them and the scripted ops constantly cross the
    /// front-cache/backing line.
    const KEY_SPACE: u64 = 12;

    fn key_of(raw: u64) -> u64 {
        1 + raw % KEY_SPACE
    }

    /// Drives the same decoded op against an engine-on and an engine-off
    /// `BlobMap`, asserting identical observable outcomes at every step
    /// (selector % 4 → set, del, get, multi_get). Values derive
    /// from `aux` (fill byte + length); every 5th set straddles the
    /// front-cache cap so the pass-through path is exercised too.
    fn check_blob(ops: &[(u8, u64, u64)]) {
        let on = BlobMap::with_hotkeys(2, HotKeyConfig::eager(8), |_| ClhtLb::with_capacity(256));
        let off = BlobMap::new(2, |_| ClhtLb::with_capacity(256));
        let mut out_on = Vec::new();
        let mut out_off = Vec::new();
        for (i, &(op, raw, aux)) in ops.iter().enumerate() {
            let key = key_of(raw);
            match op % 4 {
                0 => {
                    let len = if aux % 5 == 0 {
                        FRONT_VALUE_CAP - 4 + (aux % 12) as usize
                    } else {
                        (aux % 40) as usize
                    };
                    let value = vec![aux as u8; len];
                    assert_eq!(on.set(key, &value), off.set(key, &value), "set step {i}");
                }
                1 => assert_eq!(on.del(key), off.del(key), "del step {i}"),
                2 => {
                    assert_eq!(
                        on.get(key, &mut out_on),
                        off.get(key, &mut out_off),
                        "get step {i}"
                    );
                    assert_eq!(out_on, out_off, "get payload step {i}");
                }
                _ => {
                    let keys: Vec<u64> =
                        (0..raw % 6).map(|j| key_of(raw.wrapping_add(j * 11))).collect();
                    assert_eq!(on.multi_get(&keys), off.multi_get(&keys), "multi_get step {i}");
                }
            }
        }
        assert_eq!(on.len(), off.len());
        for k in 1..=KEY_SPACE {
            assert_eq!(on.get_owned(k), off.get_owned(k), "final state, key {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Engine-on and engine-off `BlobMap`s are observably equal under
        /// any op sequence (the engine is a pure optimization).
        #[test]
        fn prop_blob_map_engine_on_off_equivalent(
            ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..90)
        ) {
            check_blob(&ops);
        }
    }
}
