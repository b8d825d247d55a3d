//! Reusable test batteries for `ConcurrentMap` implementations.
//!
//! These helpers are used by the unit tests of every algorithm module and by
//! the workspace integration tests. They are `doc(hidden)`: they are not part
//! of the supported public API.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crate::api::{ConcurrentMap, ReplaceMap, KEY_MAX, KEY_MIN, VALUE_MAX};
use crate::ordered::OrderedMap;

/// A tiny deterministic RNG (xorshift64*) so the test battery does not need
/// external dependencies.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a new generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[1, bound]`.
    pub fn key(&mut self, bound: u64) -> u64 {
        1 + self.next_u64() % bound
    }
}

/// A `#[global_allocator]` for allocation tests: the system allocator plus
/// a count of the bytes requested from it.
///
/// It is process-wide and counts every thread, so a test binary that
/// installs it holds one `#[test]`. Small ssmem objects never reach it:
/// they come from ssmem's arena, which [`assert_arena_balanced`] and
/// [`arena_bytes_in_use`] read instead.
#[derive(Debug)]
pub struct CountingAlloc {
    requested: AtomicU64,
}

impl CountingAlloc {
    /// A zero count.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self { requested: AtomicU64::new(0) }
    }

    /// Total bytes requested so far.
    pub fn requested(&self) -> u64 {
        self.requested.load(Ordering::Relaxed)
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// is one atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: read only after the threads of a test were joined.
        self.requested.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes of ssmem arena objects handed out and not free again, over every
/// size class: live objects plus retired ones awaiting their grace period.
pub fn arena_bytes_in_use() -> u64 {
    ascylib_ssmem::census().iter().map(|class| class.in_use() * class.size as u64).sum()
}

/// Runs `round` once so process-wide state reaches its steady size, then
/// again, and requires the second run to leave every ssmem size class with
/// as many objects in use as it found.
///
/// The census counts the size a caller *states*, on both sides. Code that
/// recomputes a layout to free with (the skip lists from a node's recorded
/// height, the blob arena from a header's length) and gets it wrong leaves
/// one class above its starting count and another below it, where the
/// free would otherwise have gone through unnoticed. The census is
/// process-wide, so a binary that calls this holds one `#[test]`, and
/// `round` must `join` the threads it spawns: a scope's own wait ends
/// when their closures return, before the thread-local destructors that
/// hand the ssmem pools back.
pub fn assert_arena_balanced(what: &str, round: impl Fn()) {
    let in_use = || -> Vec<(usize, u64)> {
        ascylib_ssmem::census().iter().map(|c| (c.size, c.in_use())).collect()
    };
    round();
    let start = in_use();
    round();
    let end = in_use();
    let moved: Vec<String> = start
        .iter()
        .zip(&end)
        .filter(|(before, after)| before != after)
        .map(|(&(size, before), &(_, after))| {
            format!("{size} B: {:+} objects", after as i64 - before as i64)
        })
        .collect();
    assert!(moved.is_empty(), "{what}: size classes off balance after a round: {moved:?}");
}

/// Basic single-threaded semantics: inserts, duplicate rejection, search,
/// removal, reinsertion, size accounting.
pub fn sequential_suite<M, F>(ctor: F)
where
    M: ConcurrentMap,
    F: Fn() -> M,
{
    let m = ctor();
    assert_eq!(m.size(), 0, "new structure must be empty");
    assert!(m.is_empty());
    assert_eq!(m.search(7), None);
    assert_eq!(m.remove(7), None);

    // Insert a batch of keys in scrambled order.
    let keys = [13u64, 2, 40, 25, 7, 31, 19, 4, 28, 10];
    for &k in &keys {
        assert!(m.insert(k, k * 100), "first insert of {k} must succeed");
        assert!(!m.insert(k, k * 100 + 1), "duplicate insert of {k} must fail");
    }
    assert_eq!(m.size(), keys.len());
    for &k in &keys {
        assert_eq!(m.search(k), Some(k * 100), "search({k})");
        assert!(m.contains(k));
    }
    assert_eq!(m.search(1), None);
    assert_eq!(m.search(1000), None);

    // Remove half, verify, reinsert.
    for &k in keys.iter().step_by(2) {
        assert_eq!(m.remove(k), Some(k * 100), "remove({k})");
        assert_eq!(m.remove(k), None, "double remove({k}) must fail");
        assert_eq!(m.search(k), None);
    }
    assert_eq!(m.size(), keys.len() - keys.len().div_ceil(2));
    for &k in keys.iter().step_by(2) {
        assert!(m.insert(k, k + 1), "reinsert of {k} must succeed");
        assert_eq!(m.search(k), Some(k + 1));
    }
    assert_eq!(m.size(), keys.len());

    // Drain everything.
    for &k in &keys {
        assert!(m.remove(k).is_some());
    }
    assert_eq!(m.size(), 0);
}

/// Randomized differential test against `BTreeMap` (single-threaded).
pub fn model_check<M, F>(ctor: F, operations: usize)
where
    M: ConcurrentMap,
    F: Fn() -> M,
{
    let m = ctor();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = TestRng::new(0xA5CF_11B5);
    let key_range = 128;
    for i in 0..operations {
        let key = rng.key(key_range);
        match rng.next_u64() % 3 {
            0 => {
                let expected = !model.contains_key(&key);
                let value = i as u64;
                assert_eq!(
                    m.insert(key, value),
                    expected,
                    "insert({key}) disagreed with model at step {i}"
                );
                model.entry(key).or_insert(value);
            }
            1 => {
                let expected = model.remove(&key);
                assert_eq!(
                    m.remove(key),
                    expected,
                    "remove({key}) disagreed with model at step {i}"
                );
            }
            _ => {
                assert_eq!(
                    m.search(key),
                    model.get(&key).copied(),
                    "search({key}) disagreed with model at step {i}"
                );
            }
        }
        if i % 257 == 0 {
            assert_eq!(m.size(), model.len(), "size disagreed with model at step {i}");
        }
    }
    assert_eq!(m.size(), model.len());
    for (&k, &v) in &model {
        assert_eq!(m.search(k), Some(v));
    }
}

/// Concurrent determinism check: each thread owns a disjoint key range, so
/// the final contents are known exactly regardless of interleavings.
pub fn partitioned_concurrency<M, F>(ctor: F, threads: usize, keys_per_thread: u64)
where
    M: ConcurrentMap + 'static,
    F: Fn() -> M,
{
    let m = Arc::new(ctor());
    let mut handles = Vec::new();
    for t in 0..threads {
        let m = Arc::clone(&m);
        handles.push(std::thread::spawn(move || {
            let base = t as u64 * keys_per_thread + 1;
            // Insert everything, remove the odd offsets, reinsert a third.
            for k in base..base + keys_per_thread {
                assert!(m.insert(k, k), "partitioned insert({k})");
            }
            for k in (base..base + keys_per_thread).filter(|k| (k - base) % 2 == 1) {
                assert_eq!(m.remove(k), Some(k), "partitioned remove({k})");
            }
            for k in (base..base + keys_per_thread).filter(|k| (k - base) % 6 == 1) {
                assert!(m.insert(k, k + 7), "partitioned reinsert({k})");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Verify the deterministic final state.
    let mut expected_size = 0usize;
    for t in 0..threads {
        let base = t as u64 * keys_per_thread + 1;
        for k in base..base + keys_per_thread {
            let off = k - base;
            let expected = if off % 2 == 0 {
                Some(k)
            } else if off % 6 == 1 {
                Some(k + 7)
            } else {
                None
            };
            assert_eq!(m.search(k), expected, "final state of key {k}");
            if expected.is_some() {
                expected_size += 1;
            }
        }
    }
    assert_eq!(m.size(), expected_size);
}

/// Concurrent mixed stress: random operations on a shared key range, with a
/// global balance check (successful inserts − successful removes = final
/// size).
pub fn balance_stress<M, F>(ctor: F, threads: usize, ops_per_thread: usize, key_range: u64)
where
    M: ConcurrentMap + 'static,
    F: Fn() -> M,
{
    let m = Arc::new(ctor());
    let inserts = Arc::new(AtomicU64::new(0));
    let removes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let m = Arc::clone(&m);
        let inserts = Arc::clone(&inserts);
        let removes = Arc::clone(&removes);
        handles.push(std::thread::spawn(move || {
            let mut rng = TestRng::new(0xDEAD_BEEF ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
            for i in 0..ops_per_thread {
                let key = rng.key(key_range);
                match rng.next_u64() % 10 {
                    0..=3 => {
                        if m.insert(key, key.wrapping_add(i as u64)) {
                            inserts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    4..=7 => {
                        if m.remove(key).is_some() {
                            removes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        let _ = m.search(key);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Relaxed: the joins above synchronize all worker increments.
    let expected = inserts.load(Ordering::Relaxed) - removes.load(Ordering::Relaxed);
    assert_eq!(
        m.size() as u64,
        expected,
        "final size must equal successful inserts minus successful removes"
    );
    // Every remaining key must be findable.
    for key in 1..=key_range {
        if let Some(v) = m.search(key) {
            // The value was written by some insert of this key; just make
            // sure a subsequent remove agrees.
            assert_eq!(m.remove(key), Some(v));
        }
    }
    assert_eq!(m.size(), 0);
}

/// Differential driver for the [`OrderedMap`] surface against the `BTreeMap`
/// sequential model (single-threaded): decodes `(selector, a, b)` tuples
/// into point updates and `range_search`/`scan`/`scan_into` calls, requiring
/// exact agreement at every step, then checks a full-range sweep. Shared by
/// the RNG-driven [`ordered_model_check`] battery and the proptest suites in
/// the core and shard crates (so the scan contract is asserted in one
/// place).
///
/// Op decode: `selector % 6` → 0/1 insert, 2 remove, 3/4 `range_search`
/// over `[min(a,b), max(a,b)]`, 5 `scan(a, b % 16)`; keys are `1 + x %
/// key_space`.
pub fn ordered_ops_check<M: OrderedMap>(m: &M, ops: &[(u8, u64, u64)], key_space: u64) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, &(op, a, b)) in ops.iter().enumerate() {
        let key = 1 + a % key_space;
        match op % 6 {
            0 | 1 => {
                let expected = !model.contains_key(&key);
                let value = i as u64;
                assert_eq!(m.insert(key, value), expected, "insert({key}) at step {i}");
                model.entry(key).or_insert(value);
            }
            2 => {
                assert_eq!(m.remove(key), model.remove(&key), "remove({key}) at step {i}");
            }
            3 | 4 => {
                let other = 1 + b % key_space;
                let (lo, hi) = (key.min(other), key.max(other));
                out.clear();
                let count = m.range_search(lo, hi, &mut out);
                let want: Vec<(u64, u64)> =
                    model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(out, want, "range_search({lo}, {hi}) at step {i}");
                assert_eq!(count, want.len(), "range_search count at step {i}");
            }
            _ => {
                let n = (b % 16) as usize;
                let got = m.scan(key, n);
                let want: Vec<(u64, u64)> =
                    model.range(key..).take(n).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "scan({key}, {n}) at step {i}");
                // The buffer-reusing variant must agree with `scan`.
                out.clear();
                assert_eq!(m.scan_into(key, n, &mut out), want.len());
                assert_eq!(out, want, "scan_into({key}, {n}) at step {i}");
            }
        }
    }
    // A quiescent full-range sweep is exactly the model's contents.
    let mut all = Vec::new();
    let count = m.range_search(KEY_MIN, KEY_MAX, &mut all);
    assert_eq!(count, model.len());
    assert_eq!(all, model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    assert_eq!(m.size(), model.len());
}

/// Randomized differential test of the [`OrderedMap`] surface: generates a
/// deterministic op sequence and feeds it through [`ordered_ops_check`].
pub fn ordered_model_check<M, F>(ctor: F, operations: usize)
where
    M: OrderedMap,
    F: Fn() -> M,
{
    let mut rng = TestRng::new(0x0D0_5CA1);
    let ops: Vec<(u8, u64, u64)> = (0..operations)
        .map(|_| (rng.next_u64() as u8, rng.next_u64(), rng.next_u64()))
        .collect();
    ordered_ops_check(&ctor(), &ops, 192);
}

/// Concurrent scan-vs-mutation check for the documented (non-snapshot) scan
/// semantics. A set of *stable* keys is inserted up front and never touched;
/// writer threads churn a disjoint set of *volatile* keys while the main
/// thread scans. Every scan must return strictly-ascending in-bounds keys,
/// no phantoms (only keys from the two sets, with the values the writers
/// actually store), no resurrections (a third key set that was inserted and
/// removed *before* the scans start must never appear), and every stable key
/// in range.
pub fn scan_under_churn<M, F>(ctor: F, writers: usize, scans: usize)
where
    M: OrderedMap + 'static,
    F: Fn() -> M,
{
    const STABLE_STRIDE: u64 = 3;
    let span = 600u64;
    let m = Arc::new(ctor());
    // Stable keys: multiples of 3. Ghost keys (removed before any scan):
    // span..span+50.
    for k in (STABLE_STRIDE..=span).step_by(STABLE_STRIDE as usize) {
        assert!(m.insert(k, k * 2));
    }
    for k in span + 1..=span + 50 {
        assert!(m.insert(k, 1));
        assert_eq!(m.remove(k), Some(1));
    }
    let stop = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..writers {
        let m = Arc::clone(&m);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = TestRng::new(0x5CA2 ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
            while stop.load(Ordering::Relaxed) == 0 {
                // Volatile keys: non-multiples of 3 within the span.
                let key = rng.key(span);
                if key % STABLE_STRIDE == 0 {
                    continue;
                }
                if rng.next_u64() % 2 == 0 {
                    let _ = m.insert(key, key * 7);
                } else {
                    let _ = m.remove(key);
                }
            }
        }));
    }
    let mut rng = TestRng::new(0x5CA3);
    for i in 0..scans {
        // Bounds reach past `span` so the ghost range is actually scanned.
        let a = rng.key(span + 50);
        let b = rng.key(span + 50);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut got = Vec::new();
        m.range_search(lo, hi, &mut got);
        let mut prev = None;
        for &(k, v) in &got {
            assert!(k >= lo && k <= hi, "scan {i}: key {k} outside [{lo}, {hi}]");
            assert!(prev.map_or(true, |p| k > p), "scan {i}: keys not strictly ascending at {k}");
            prev = Some(k);
            assert!(k <= span, "scan {i}: resurrected ghost key {k}");
            if k % STABLE_STRIDE == 0 {
                assert_eq!(v, k * 2, "scan {i}: stable key {k} has foreign value {v}");
            } else {
                assert_eq!(v, k * 7, "scan {i}: volatile key {k} has foreign value {v}");
            }
        }
        // No stable key in range may be missed: each was present for the
        // entire duration of the scan.
        let returned: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
        for k in (lo..=hi.min(span)).filter(|k| k % STABLE_STRIDE == 0) {
            assert!(returned.binary_search(&k).is_ok(), "scan {i}: stable key {k} missing");
        }
    }
    stop.store(1, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// The battery for [`ReplaceMap`] implementations: sequential semantics,
/// then the two concurrent guarantees in-place overwrite exists for.
pub fn replace_suite<M, F>(ctor: F)
where
    M: ReplaceMap,
    F: Fn() -> M,
{
    let m = ctor();
    assert_eq!(m.replace(5, 50), None);
    assert_eq!(m.search(5), None, "replace of an absent key must not insert it");
    assert_eq!(m.size(), 0);
    assert!(m.insert(5, 50));
    assert_eq!(m.replace(5, 51), Some(50));
    assert_eq!(m.search(5), Some(51));
    assert!(!m.insert(5, 52), "a replaced key is still present");
    assert_eq!(m.size(), 1);
    assert_eq!(m.remove(5), Some(51));
    assert_eq!(m.replace(5, 53), None, "replace of a removed key must fail");
    assert_eq!(m.size(), 0);

    assert_eq!(m.compare_replace(6, 60, 61), Err(None), "absent key");
    assert_eq!(m.search(6), None, "compare_replace of an absent key must not insert it");
    assert!(m.insert(6, 60));
    assert_eq!(m.compare_replace(6, 59, 61), Err(Some(60)), "a mismatch answers the current value");
    assert_eq!(m.search(6), Some(60), "a mismatch must not write");
    assert_eq!(m.compare_replace(6, 60, 61), Ok(()));
    assert_eq!(m.search(6), Some(61));
    assert_eq!(m.remove(6), Some(61));
    assert_eq!(m.compare_replace(6, 61, 62), Err(None), "compare_replace of a removed key must fail");
    assert_eq!(m.size(), 0);

    assert_eq!(m.remove_if(8, 80), Err(None), "absent key");
    assert!(m.insert(8, 80));
    assert_eq!(
        m.remove_if(8, 79),
        Err(Some(80)),
        "a mismatch answers the current value"
    );
    assert_eq!(m.search(8), Some(80), "a mismatch must not remove");
    assert_eq!(m.remove_if(8, 80), Ok(()));
    assert_eq!(m.search(8), None);
    assert_eq!(
        m.remove_if(8, 80),
        Err(None),
        "remove_if of a removed key must fail"
    );
    assert!(
        m.insert(8, 81),
        "a key removed by remove_if can be inserted again"
    );
    assert_eq!(m.search(8), Some(81));
    assert_eq!(m.remove(8), Some(81));
    assert_eq!(m.size(), 0);

    replace_never_hides_a_present_key(&ctor());
    replace_and_remove_take_each_value_once(&ctor());
    compare_replace_counts_every_swap(&ctor());
}

/// One thread overwrites a key that is never removed while another searches
/// it: every search must hit, and — the writer's values only grow — must
/// never see an older value after a newer one.
fn replace_never_hides_a_present_key<M: ReplaceMap>(m: &M) {
    const KEY: u64 = 7;
    const WRITES: u64 = 200_000;
    // Neighbours, so a one-bucket hash table has the key in a shared chain.
    for k in 1..=12 {
        assert!(m.insert(k, 0));
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let mut newest = 0;
            // Relaxed: `done` publishes nothing, it only ends the loop.
            while !done.load(Ordering::Relaxed) {
                let seen = m.search(KEY).expect("a key under continuous replace read as absent");
                assert!(seen >= newest, "search returned {seen} after {newest}");
                newest = seen;
            }
        });
        let writer = s.spawn(|| {
            start.wait();
            for v in 1..=WRITES {
                assert_eq!(m.replace(KEY, v), Some(v - 1));
            }
        });
        // Stop the reader before reporting the writer's panic, or the scope
        // would wait on it forever.
        let outcome = writer.join();
        done.store(true, Ordering::Relaxed);
        outcome.expect("writer panicked");
    });
    assert_eq!(m.search(KEY), Some(WRITES));
}

/// An insert/remove cycler, a replacer and a conditional remover race on a
/// few keys. Every value that went in (by `insert` or `replace`) must come
/// out exactly once (from `remove`, from `replace`, from a `remove_if` of
/// the value its search saw, or by being there at the end), and no search
/// may return the reserved value.
fn replace_and_remove_take_each_value_once<M: ReplaceMap>(m: &M) {
    const ROUNDS: u64 = 50_000;
    const KEYS: u64 = 3;
    let done = AtomicBool::new(false);
    let start = Barrier::new(4);
    let (mut put, mut taken) = std::thread::scope(|s| {
        let cycler = s.spawn(|| {
            let (mut put, mut taken) = (Vec::new(), Vec::new());
            start.wait();
            for i in 0..ROUNDS {
                let key = 1 + i % KEYS;
                if m.insert(key, 2 * i) {
                    put.push(2 * i);
                }
                taken.extend(m.remove(key));
            }
            (put, taken)
        });
        let replacer = s.spawn(|| {
            let (mut put, mut taken) = (Vec::new(), Vec::new());
            start.wait();
            for i in 0..ROUNDS {
                if let Some(old) = m.replace(1 + i % KEYS, 2 * i + 1) {
                    put.push(2 * i + 1);
                    taken.push(old);
                }
            }
            (put, taken)
        });
        let conditional = s.spawn(|| {
            let mut taken = Vec::new();
            start.wait();
            for i in 0..ROUNDS {
                let key = 1 + i % KEYS;
                if let Some(seen) = m.search(key) {
                    if m.remove_if(key, seen).is_ok() {
                        taken.push(seen);
                    }
                }
            }
            taken
        });
        s.spawn(|| {
            start.wait();
            let mut key = 1;
            // Relaxed: `done` publishes nothing, it only ends the loop.
            while !done.load(Ordering::Relaxed) {
                if let Some(v) = m.search(key) {
                    assert!(v <= VALUE_MAX, "search returned the reserved value");
                }
                key = 1 + key % KEYS;
            }
        });
        let (cycled, replaced, removed) = (cycler.join(), replacer.join(), conditional.join());
        done.store(true, Ordering::Relaxed);
        let (mut put, mut taken) = cycled.expect("cycler panicked");
        let (put_b, taken_b) = replaced.expect("replacer panicked");
        put.extend(put_b);
        taken.extend(taken_b);
        taken.extend(removed.expect("conditional remover panicked"));
        (put, taken)
    });
    for key in 1..=KEYS {
        taken.extend(m.remove(key));
    }
    put.sort_unstable();
    taken.sort_unstable();
    // Not `assert_eq!`: a failure would print both 100k-element vectors.
    assert!(
        put == taken,
        "a displaced value was lost or handed out twice ({} went in, {} came out)",
        put.len(),
        taken.len()
    );
}

/// Two threads increment one key by compare-and-swap: `compare_replace`
/// from the value they last saw to one more, taking the current value from
/// a mismatch. Each `Ok` is exactly one increment, so the final value must
/// equal their count; a swap lost or applied twice shows as a difference.
fn compare_replace_counts_every_swap<M: ReplaceMap>(m: &M) {
    const KEY: u64 = 7;
    const ATTEMPTS: u64 = 50_000;
    // Neighbours, so a one-bucket hash table has the key in a shared chain.
    for k in 1..=12 {
        assert!(m.insert(k, 0));
    }
    let start = Barrier::new(2);
    let swaps: u64 = std::thread::scope(|s| {
        let incrementers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let (mut swaps, mut seen) = (0, 0);
                    for _ in 0..ATTEMPTS {
                        match m.compare_replace(KEY, seen, seen + 1) {
                            Ok(()) => {
                                swaps += 1;
                                seen += 1;
                            }
                            Err(current) => {
                                seen = current.expect("a key never removed read as absent");
                            }
                        }
                    }
                    swaps
                })
            })
            .collect();
        incrementers.into_iter().map(|t| t.join().expect("incrementer panicked")).sum()
    });
    // Each failed attempt follows a distinct swap by the other thread.
    assert!(swaps >= ATTEMPTS, "only {swaps} swaps in {} attempts", 2 * ATTEMPTS);
    assert_eq!(m.search(KEY), Some(swaps));
}

/// The full battery used by every linearizable implementation.
pub fn full_suite<M, F>(ctor: F)
where
    M: ConcurrentMap + 'static,
    F: Fn() -> M + Copy,
{
    sequential_suite(ctor);
    model_check(ctor, 4_000);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8);
    partitioned_concurrency(ctor, threads, 64);
    balance_stress(ctor, threads, 3_000, 96);
}

/// Keys from here up fill the lists [`HintedFraserOpt::new`] builds; the
/// batteries in this module use far smaller keys.
pub const HINT_FILLERS_FROM: u64 = 1 << 40;

/// A [`FraserOptSkipList`](crate::skiplist::FraserOptSkipList) grown past
/// its hint-table floor with filler keys from [`HINT_FILLERS_FROM`] up,
/// seen through the keys below them: `size` and the scans leave the
/// fillers out. The batteries here build their lists far below the floor,
/// so over a plain list they never reach the hint path; over this one every
/// point operation probes a table whose buckets the fillers crowd.
pub struct HintedFraserOpt {
    list: crate::skiplist::FraserOptSkipList,
    fillers: usize,
}

impl HintedFraserOpt {
    /// A list with a hint table and no key below [`HINT_FILLERS_FROM`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let list = crate::skiplist::FraserOptSkipList::new();
        let mut fillers = 0;
        while list.hint_table_bytes() == 0 {
            for _ in 0..1_024 {
                assert!(list.insert(HINT_FILLERS_FROM + fillers as u64, 1));
                fillers += 1;
            }
        }
        Self { list, fillers }
    }

    /// Drops the entries of fillers from the end of `out`, from `from` on.
    fn without_fillers(out: &mut Vec<(u64, u64)>, from: usize) -> usize {
        let kept = out[from..].partition_point(|&(key, _)| key < HINT_FILLERS_FROM);
        out.truncate(from + kept);
        kept
    }
}

impl ConcurrentMap for HintedFraserOpt {
    fn search(&self, key: u64) -> Option<u64> {
        self.list.search(key)
    }
    fn search_lanes(lanes: &[(&Self, u64)], out: &mut [Option<u64>]) {
        let lanes: Vec<_> = lanes.iter().map(|&(m, key)| (&m.list, key)).collect();
        crate::skiplist::FraserOptSkipList::search_lanes(&lanes, out);
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        assert!(key < HINT_FILLERS_FROM, "key {key} is a filler's");
        self.list.insert(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        self.list.remove(key)
    }
    fn size(&self) -> usize {
        self.list.size() - self.fillers
    }
}

impl ReplaceMap for HintedFraserOpt {
    fn replace(&self, key: u64, value: u64) -> Option<u64> {
        self.list.replace(key, value)
    }
    fn compare_replace(&self, key: u64, expected: u64, value: u64) -> Result<(), Option<u64>> {
        self.list.compare_replace(key, expected, value)
    }
    fn remove_if(&self, key: u64, expected: u64) -> Result<(), Option<u64>> {
        self.list.remove_if(key, expected)
    }
}

impl OrderedMap for HintedFraserOpt {
    fn range_search(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        self.list.range_search(lo, hi.min(HINT_FILLERS_FROM - 1), out)
    }
    fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
        let mut out = self.list.scan(from, n);
        Self::without_fillers(&mut out, 0);
        out
    }
    fn scan_into(&self, from: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        let start = out.len();
        self.list.scan_into(from, n, out);
        Self::without_fillers(out, start)
    }
}
