//! Cache-tier differential and interleaving tests.
//!
//! Property tests drive a [`BlobMap`] with a hand-cranked [`FakeClock`]
//! against a sequential `BTreeMap` model of TTL semantics — expiry at the
//! exact millisecond boundary, overwrite-resets-TTL, `PERSIST`, corpse
//! reads — and, separately, assert the byte-budget invariant (`live_bytes`
//! never exceeds the budget, and an evicted key may vanish but must never
//! read back stale). Deterministic interleaving tests then pin down the
//! hot-key cooperation contract: a fronted key whose backing value is
//! evicted or expires has its front copy changed *before* the blob is
//! retired, so the front cache can never serve the retired bytes.
//!
//! The last tests are what the deleted `fig17_budget` bench checked about
//! the tier's behaviour (its timings are the `cache.*` rungs of
//! `benchmark/` now): the hit rate a budget buys is monotone in the budget,
//! and the budget holds at every sample of a multi-writer churn, over the
//! plain skip list and over one past its hint-table floor with an eager
//! front (CLOCK's walk, an eviction clearing a hint, and front
//! write-through around a hinted `upsert`). Between them, a write-heavy
//! zipf stream checks the eviction policy: an overwrite counts as a use.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ascylib::api::ReplaceMap;
use ascylib::ordered::OrderedMap;
use ascylib::skiplist::FraserOptSkipList;
use ascylib::testing::HintedFraserOpt;
use ascylib_harness::{KeyDist, KeySampler};
use ascylib_shard::{BlobMap, CacheConfig, CacheStatsSnapshot, FakeClock, HotKeyConfig, MsClock};

/// Sequential model: key → (value, optional absolute deadline in ms).
type Model = BTreeMap<u64, (Vec<u8>, Option<u64>)>;

/// Drops every model entry whose deadline has passed — the map treats
/// those as absent on every observable surface (reclamation is lazy, but
/// single-threaded observation cannot tell).
fn purge(model: &mut Model, now: u64) {
    model.retain(|_, &mut (_, deadline)| deadline.map_or(true, |d| now < d));
}

fn clocked(shards: usize, cfg: CacheConfig) -> (BlobMap<FraserOptSkipList>, Arc<FakeClock>) {
    let clock = Arc::new(FakeClock::new());
    let cfg = cfg.with_clock(clock.clone());
    let map = BlobMap::with_config(shards, HotKeyConfig::default(), cfg, |_| {
        FraserOptSkipList::new()
    });
    (map, clock)
}

/// Applies a mixed TTL-op sequence to the map and the model, asserting
/// agreement step by step. `ops` decode as: selector % 8 → 0/1 `set_ex`,
/// 2 plain `set`, 3 `expire`, 4 `persist`, 5 `ttl_ms`, 6 `del`, 7 `get`;
/// the clock advances by `adv` milliseconds before each step, so deadlines
/// lapse mid-sequence (including exactly at the boundary, since both the
/// deadline arithmetic and the advances are whole milliseconds).
fn check_ttl_against_model(
    map: BlobMap<FraserOptSkipList>,
    clock: &FakeClock,
    ops: &[(u8, u64, u64, u64)],
    key_space: u64,
) {
    let mut model: Model = BTreeMap::new();
    for (i, &(op, raw, ttl, adv)) in ops.iter().enumerate() {
        clock.advance(adv);
        let now = clock.now_ms();
        purge(&mut model, now);
        let key = 1 + raw % key_space;
        match op % 8 {
            0 | 1 => {
                let value = format!("v{i}").into_bytes();
                let expected = !model.contains_key(&key);
                assert_eq!(map.set_ex(key, &value, ttl), expected, "set_ex({key}) step {i}");
                let deadline = (ttl != 0).then(|| (now + ttl).max(1));
                model.insert(key, (value, deadline));
            }
            2 => {
                let value = format!("p{i}").into_bytes();
                let expected = !model.contains_key(&key);
                assert_eq!(map.set(key, &value), expected, "set({key}) step {i}");
                model.insert(key, (value, None));
            }
            3 => {
                let expected = model.contains_key(&key);
                assert_eq!(map.expire(key, ttl), expected, "expire({key}) step {i}");
                if let Some((_, deadline)) = model.get_mut(&key) {
                    *deadline = Some((now + ttl).max(1));
                }
            }
            4 => {
                let expected = model.contains_key(&key);
                assert_eq!(map.persist(key), expected, "persist({key}) step {i}");
                if let Some((_, deadline)) = model.get_mut(&key) {
                    *deadline = None;
                }
            }
            5 => {
                let expected = model
                    .get(&key)
                    .map(|&(_, deadline)| deadline.map(|d| d - now));
                assert_eq!(map.ttl_ms(key), expected, "ttl_ms({key}) step {i}");
            }
            6 => {
                let expected = model.remove(&key).is_some();
                assert_eq!(map.del(key), expected, "del({key}) step {i}");
            }
            _ => {
                let expected = model.get(&key).map(|(v, _)| v.clone());
                assert_eq!(map.get_owned(key), expected, "get({key}) step {i}");
                assert_eq!(map.contains(key), expected.is_some(), "contains({key}) step {i}");
            }
        }
    }
    // Final sweep: every key agrees, including ones whose deadline lapsed
    // without ever being read again.
    let now = clock.now_ms();
    purge(&mut model, now);
    for key in 1..=key_space {
        let expected = model.get(&key).map(|(v, _)| v.clone());
        assert_eq!(map.get_owned(key), expected, "final get({key})");
    }
    // Lapsed deadlines that were observed (or swept) were counted.
    let c = map.cache_stats();
    assert_eq!(c.budget_bytes, 0, "this config is unbounded");
    assert_eq!(c.evictions, 0, "no budget, no eviction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_ttl_semantics_match_the_model(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), 0u64..48, 0u64..8),
            1..300,
        )
    ) {
        let (map, clock) = clocked(1, CacheConfig::unbounded());
        check_ttl_against_model(map, &clock, &ops, 24);
    }

    #[test]
    fn prop_ttl_semantics_are_shard_count_invariant(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), 0u64..48, 0u64..8),
            1..250,
        )
    ) {
        let (map, clock) = clocked(4, CacheConfig::unbounded());
        check_ttl_against_model(map, &clock, &ops, 24);
    }

    /// Budget invariant under churn: `live_bytes` never exceeds the budget
    /// while nothing is force-admitted, and an evicted key may read as
    /// absent but must never read back a value other than its latest write.
    #[test]
    fn prop_eviction_never_overruns_the_budget_or_serves_stale_bytes(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), 1usize..200), 1..300)
    ) {
        let (map, _clock) = clocked(1, CacheConfig::unbounded().with_budget(4096));
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, &(op, raw, len)) in ops.iter().enumerate() {
            let key = 1 + raw % 32;
            match op % 4 {
                0 | 1 => {
                    let value = vec![b'a' + (i % 23) as u8; len];
                    map.set(key, &value);
                    model.insert(key, value);
                }
                2 => {
                    map.del(key);
                    model.remove(&key);
                }
                _ => {
                    // A present value is always the latest write. Absent
                    // is legal for evicted keys (the no-budget
                    // differential above covers the must-be-present
                    // direction).
                    if let Some(v) = map.get_owned(key) {
                        assert_eq!(Some(&v), model.get(&key), "stale read of {key}");
                    }
                }
            }
            let c = map.cache_stats();
            if c.forced == 0 {
                assert!(
                    c.live_bytes <= c.budget_bytes,
                    "step {i}: live {} > budget {}",
                    c.live_bytes,
                    c.budget_bytes
                );
            }
        }
    }
}

/// A fronted (hot) key whose backing value is evicted must not be served
/// from the front cache afterwards: eviction removes under the slot word
/// *before* retiring the handle, so the retired bytes are unreachable.
#[test]
fn evicting_a_fronted_key_never_serves_the_retired_blob() {
    let cfg = CacheConfig::unbounded().with_budget(4 * 1024);
    let map = BlobMap::with_config(1, HotKeyConfig::eager(8), cfg, |_| FraserOptSkipList::new());
    assert!(map.set(1, b"pinned"));
    for _ in 0..64 {
        assert_eq!(map.get_owned(1).as_deref(), Some(&b"pinned"[..]));
    }
    let h = map.hotkey_stats().expect("engine is attached");
    assert!(h.front_hits > 0, "64 reads of one key must promote and front it: {h:?}");

    // Never-read churn fills the 4 KiB budget until CLOCK's hand reaches
    // key 1 (its ref bit decays after one lap without reads).
    let mut filler = 1000u64;
    while map.contains(1) {
        map.set(filler, &[0u8; 128]);
        filler += 1;
        assert!(filler < 1000 + 100_000, "churn never evicted the fronted key");
    }
    assert_eq!(map.get_owned(1), None, "front cache served an evicted value");
    let c = map.cache_stats();
    assert!(c.evictions > 0, "{c:?}");
    assert!(c.live_bytes <= c.budget_bytes || c.forced > 0, "{c:?}");

    // The key is reusable: a fresh write is a create and reads back.
    assert!(map.set(1, b"fresh"));
    assert_eq!(map.get_owned(1).as_deref(), Some(&b"fresh"[..]));
}

/// The other side of the same contract: a front hit touches no blob, so it
/// marks its front slot, and the CLOCK hand counts the mark as a reference.
/// A budgeted key read only through the front, once between any two
/// fillers, outlives two laps of churn.
#[test]
fn a_key_read_only_through_the_front_survives_two_laps_of_churn() {
    let cfg = CacheConfig::unbounded().with_budget(4 * 1024);
    let map = BlobMap::with_config(1, HotKeyConfig::eager(8), cfg, |_| FraserOptSkipList::new());
    assert!(map.set(1, b"pinned"));
    for _ in 0..64 {
        assert_eq!(map.get_owned(1).as_deref(), Some(&b"pinned"[..]));
    }
    let mut hits = map.hotkey_stats().expect("engine is attached").front_hits;
    assert!(hits > 0, "64 reads of one key must promote and front it");

    // A lap chooses at most two victims per value the shard holds, so
    // four evictions per value held span at least two laps.
    let mut filler = 1000u64;
    let mut held = 0;
    while held == 0 || map.cache_stats().evictions < 4 * held {
        map.set(filler, &[0u8; 128]);
        filler += 1;
        if map.cache_stats().evictions > 0 && held == 0 {
            held = map.total_arena_stats().live_blobs();
        }
        assert_eq!(
            map.get_owned(1).as_deref(),
            Some(&b"pinned"[..]),
            "evicted after {} evictions",
            map.cache_stats().evictions
        );
        let now = map.hotkey_stats().expect("engine is attached").front_hits;
        assert_eq!(now, hits + 1, "every read of the key is a front hit");
        hits = now;
        assert!(filler < 1000 + 100_000, "churn never evicted enough");
    }
}

/// The expiry flavour of the same contract: arming a TTL on a fronted key
/// leaves its slot pending (TTL'd values are never front-cached), and once
/// the deadline lapses the key reads as absent everywhere — the front cache
/// cannot resurrect the lease.
#[test]
fn a_lapsed_lease_on_a_fronted_key_reads_as_absent() {
    let clock = Arc::new(FakeClock::new());
    let cfg = CacheConfig::unbounded().with_clock(clock.clone());
    let map = BlobMap::with_config(1, HotKeyConfig::eager(8), cfg, |_| FraserOptSkipList::new());
    assert!(map.set(1, b"hot"));
    for _ in 0..64 {
        assert_eq!(map.get_owned(1).as_deref(), Some(&b"hot"[..]));
    }
    assert!(map.hotkey_stats().expect("engine").front_hits > 0);

    assert!(map.expire(1, 5));
    // Alive until the deadline; the read now comes from the backing store
    // (leased values bypass the front cache), so it sees the TTL.
    assert_eq!(map.get_owned(1).as_deref(), Some(&b"hot"[..]));
    assert_eq!(map.ttl_ms(1), Some(Some(5)));
    clock.advance(5);
    assert!(!map.contains(1), "deadline is inclusive: now == expire_at is dead");
    assert_eq!(map.get_owned(1), None);
    assert_eq!(map.ttl_ms(1), None);
    assert!(map.cache_stats().expired() >= 1);

    // Overwriting the corpse is a create and is immediately readable.
    assert!(map.set(1, b"fresh"));
    assert_eq!(map.get_owned(1).as_deref(), Some(&b"fresh"[..]));
}

/// Concurrent churn under a small budget with hot-key fronting on: values
/// are a function of their key, so any read that returns bytes can be
/// validated exactly. Eviction retiring blobs under readers must never
/// produce a torn or stale payload.
#[test]
fn concurrent_churn_under_budget_never_returns_torn_values() {
    fn value_of(key: u64) -> Vec<u8> {
        vec![b'a' + (key % 23) as u8; 8 + (key % 240) as usize]
    }

    let cfg = CacheConfig::unbounded().with_budget(32 * 1024);
    let map = Arc::new(BlobMap::with_config(2, HotKeyConfig::eager(8), cfg, |_| {
        FraserOptSkipList::new()
    }));
    let writers = 4;
    let mut handles = Vec::new();
    for t in 0..writers {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            let mut state = 0xC0FFEE_u64.wrapping_mul(t + 1);
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = 1 + state % 512;
                if state & 7 == 0 {
                    map.del(key);
                } else {
                    map.set(key, &value_of(key));
                }
            }
        }));
    }
    for t in 0..2u64 {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            let mut state = 0xBEEF_u64.wrapping_mul(t + 1);
            let mut out = Vec::new();
            for _ in 0..40_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Skew toward a handful of keys so some get fronted while
                // eviction churns underneath them.
                let key = 1 + state % if state & 3 == 0 { 512 } else { 8 };
                if map.get(key, &mut out) {
                    assert_eq!(out, value_of(key), "torn/stale read of key {key}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let c = map.cache_stats();
    assert!(c.evictions > 0, "churn past 32 KiB must evict: {c:?}");
    assert!(
        c.live_bytes <= c.budget_bytes || c.forced > 0,
        "quiescent overrun without forced admissions: {c:?}"
    );
}

/// The working set of the two budget tests: 4096 keys of 256 B, 1 MiB of
/// payload over the two-shard skip-list map the stock `kv_server` serves.
const WS_KEYS: u64 = 4096;
const VALUE_LEN: usize = 256;
const WS_BYTES: u64 = WS_KEYS * VALUE_LEN as u64;

fn budgeted<M: OrderedMap + ReplaceMap>(
    budget: u64,
    hot: HotKeyConfig,
    backing: fn() -> M,
) -> BlobMap<M> {
    let cfg = CacheConfig::unbounded().with_budget(budget);
    BlobMap::with_config(2, hot, cfg, |_| backing())
}

/// Prefills the working set through `budget`, then serves a read-mostly
/// stream (10 % writes) in which a read miss refetches and re-`SET`s, as a
/// cache in front of a backing store would. Hot-key fronting is off so the
/// curve isolates the budget. Single-threaded and seeded: it repeats.
fn hit_rate_at(budget: u64, dist: KeyDist, seed: u64) -> (f64, CacheStatsSnapshot) {
    let map = budgeted(budget, HotKeyConfig::with_k(0), FraserOptSkipList::new);
    let value = [0xA5u8; VALUE_LEN];
    for k in 1..=WS_KEYS {
        map.set(k, &value);
    }
    let sampler = KeySampler::new(dist, WS_KEYS);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = Vec::with_capacity(VALUE_LEN);
    let (mut reads, mut hits) = (0u64, 0u64);
    for _ in 0..1 << 15 {
        let key = sampler.sample(&mut rng);
        if rng.random_range(0..100u32) < 10 {
            map.set(key, &value);
        } else {
            reads += 1;
            if map.get(key, &mut buf) {
                hits += 1;
            } else {
                map.set(key, &value);
            }
        }
    }
    (hits as f64 / reads as f64, map.cache_stats())
}

#[test]
fn hit_rate_is_monotone_in_the_budget_and_every_point_stays_within_it() {
    let dists = [("zipf(0.99)", KeyDist::Zipfian { theta: 0.99 }), ("uniform", KeyDist::Uniform)];
    for (label, dist) in dists {
        let mut prev = -1.0f64;
        for (i, pct) in [10u64, 25, 50, 100, 200].into_iter().enumerate() {
            let (rate, c) = hit_rate_at(WS_BYTES * pct / 100, dist, 0xF17A + i as u64);
            assert!(
                c.live_bytes <= c.budget_bytes && c.forced == 0,
                "{label} @{pct}%: budget invariant violated: {c:?}"
            );
            if pct < 100 {
                assert!(c.evictions > 0, "{label} @{pct}%: an under-provisioned budget must evict: {c:?}");
            }
            if pct == 200 {
                assert_eq!(c.evictions, 0, "{label}: twice the working set must never evict: {c:?}");
            }
            // More memory never hurts the hit rate (1 % slack for CLOCK's
            // approximation of recency).
            assert!(
                rate + 0.01 >= prev,
                "{label}: hit rate fell from {prev:.4} to {rate:.4} when the budget grew to {pct}%"
            );
            prev = prev.max(rate);
        }
        assert!(prev > 0.99, "{label}: everything fits at 200%, so every read hits: {prev:.4}");
    }
}

/// The benchmark's `embed_write` in miniature: a seeded single-threaded
/// zipf(0.99) stream, half GETs and half SETs with no refill on a miss,
/// over 20 000 preloaded 256 B keys against a budget of half their bytes,
/// with the front off. Most SETs overwrite a key that is in use, and an
/// overwrite keeps the survival its key earned, so the hit share stays
/// above what a policy that starts every blob unreferenced reaches.
#[test]
fn overwrites_keep_a_write_heavy_zipf_stream_cached() {
    const KEYS: u64 = 20_000;
    const OPS: u64 = 400_000;
    let cfg = CacheConfig::unbounded().with_budget(KEYS * VALUE_LEN as u64 / 2);
    let map = BlobMap::with_config(4, HotKeyConfig::with_k(0), cfg, |_| FraserOptSkipList::new());
    let value = [0x5Au8; VALUE_LEN];
    for k in 1..=KEYS {
        map.set(k, &value);
    }
    let sampler = KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, KEYS);
    let mut rng = SmallRng::seed_from_u64(0xE3B0);
    let mut buf = Vec::with_capacity(VALUE_LEN);
    let (mut reads, mut hits) = (0u64, 0u64);
    // The first half warms the cache up; the second half is measured.
    for op in 0..OPS {
        let key = sampler.sample(&mut rng);
        if rng.random::<bool>() {
            map.set(key, &value);
        } else if op >= OPS / 2 {
            reads += 1;
            hits += u64::from(map.get(key, &mut buf));
        } else {
            map.get(key, &mut buf);
        }
    }
    let share = hits as f64 / reads as f64;
    let c = map.cache_stats();
    assert!(c.live_bytes <= c.budget_bytes && c.forced == 0, "{c:?}");
    // 0.909 measured (0.908-0.909 over four other seeds); 0.891 (0.890-0.892)
    // when every stored blob starts unreferenced.
    assert!(share >= 0.90, "hit share {share:.4}: {c:?}");
}

/// Four writers churn twice the working set — plain sets, short leases,
/// deletes — against a budget of a quarter of it, while this thread samples
/// the gauges: the budget must hold at *every* sample, not only at rest.
#[test]
fn the_budget_holds_at_every_sample_of_a_four_writer_churn() {
    four_writer_churn(HotKeyConfig::default(), FraserOptSkipList::new);
}

/// The same churn over shards past their hint-table floor, with a front
/// that promotes on the second sample: evictions, deletes and lapsed
/// leases clear hints while fronted sets upsert through them.
#[test]
fn the_budget_holds_at_every_sample_of_a_four_writer_churn_over_hinted_shards() {
    let (map, hint_hits) = four_writer_churn(HotKeyConfig::eager(256), HintedFraserOpt::new);
    assert!(hint_hits > 0, "no writer reached a key through its hint");
    let hot = map.hotkey_stats().expect("a front");
    assert!(hot.delegated > 0, "no set went write-through: {hot:?}");
}

/// Runs the churn; returns the map and the hint hits of its writers.
fn four_writer_churn<M: OrderedMap + ReplaceMap>(
    hot: HotKeyConfig,
    backing: fn() -> M,
) -> (BlobMap<M>, u64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let budget = WS_BYTES / 4;
    let map = budgeted(budget, hot, backing);
    let value = [0xB7u8; VALUE_LEN];
    for k in 1..=WS_KEYS {
        map.set(k, &value);
    }
    let stop = AtomicBool::new(false);
    let (samples, c, hint_hits) = std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let (map, stop) = (&map, &stop);
            writers.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xF17B ^ t.wrapping_mul(0x9E37));
                while !stop.load(Ordering::Relaxed) {
                    let key = 1 + rng.random_range(0..WS_KEYS * 2);
                    match rng.random_range(0..16u32) {
                        0 => {
                            map.del(key);
                        }
                        // Leases of 1-5 ms: they lapse under the churn and
                        // the sweep piggybacked on later writes reclaims them.
                        1 | 2 => {
                            map.set_ex(key, &value, 1 + rng.random_range(0..5u64));
                        }
                        _ => {
                            map.set(key, &value);
                        }
                    }
                }
                // Cumulative over this thread, which did nothing else.
                ascylib::stats::snapshot().hint_hits
            }));
        }
        // Sample until the churn has shown everything the test is about;
        // the deadline only turns a hang into a failure.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut samples = 0u64;
        let last = loop {
            let c = map.cache_stats();
            assert_eq!(c.budget_bytes, budget, "budget gauge drifted");
            assert!(
                c.live_bytes <= c.budget_bytes,
                "sample {samples}: live {} B over the {} B budget",
                c.live_bytes,
                c.budget_bytes
            );
            assert_eq!(c.forced, 0, "256 B values never need a forced admission: {c:?}");
            samples += 1;
            if samples >= 1000 && c.evictions > 0 && c.expired() > 0 {
                break c;
            }
            if Instant::now() >= deadline {
                stop.store(true, Ordering::Relaxed);
                panic!("after {samples} samples the churn neither evicted nor expired: {c:?}");
            }
            std::thread::yield_now();
        };
        stop.store(true, Ordering::Relaxed);
        let hint_hits = writers
            .into_iter()
            .map(|w| w.join().expect("writer panicked"))
            .sum::<u64>();
        (samples, last, hint_hits)
    });
    assert!(samples >= 1000);
    assert!(c.evictions > 0, "churn past the budget must evict: {c:?}");
    assert!(c.expired() > 0, "short leases must expire under churn: {c:?}");
    (map, hint_hits)
}
