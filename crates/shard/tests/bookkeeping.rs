//! Exactness of the striped bookkeeping.
//!
//! Every counter and gauge of a [`BlobMap`] is kept per thread: traffic
//! counters and live-blob gauges in striped blocks, live bytes as a shared
//! reservation gauge minus per-thread byte credits. A blob one thread
//! stores another may retire, so a single stripe means nothing; the sums
//! must be exact once the writers are joined. Four threads mix set, get and
//! del, then exit (their stripes outlive them), and every total is checked
//! against what the threads did and what the map holds.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

const THREADS: u64 = 4;
const OPS: u64 = 20_000;
const KEYS: u64 = 8_192;
const MAX_VALUE: usize = 300;

/// What one thread did: gets, gets that hit, sets that created their key,
/// dels that found theirs.
#[derive(Default)]
struct Tally {
    gets: u64,
    hits: u64,
    created: u64,
    deleted: u64,
}

fn churn(map: &Arc<BlobMap<FraserOptSkipList>>) -> Tally {
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = Arc::clone(map);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xB00C + t);
                let (mut tally, mut out) = (Tally::default(), Vec::new());
                for _ in 0..OPS {
                    let key = rng.random_range(1..=KEYS);
                    match rng.random_range(0..10u32) {
                        0..=3 => {
                            tally.gets += 1;
                            tally.hits += u64::from(map.get(key, &mut out));
                        }
                        4..=8 => {
                            let len = rng.random_range(1..=MAX_VALUE);
                            tally.created += u64::from(map.set(key, &vec![key as u8; len]));
                        }
                        _ => tally.deleted += u64::from(map.del(key)),
                    }
                }
                tally
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).fold(Tally::default(), |a, b| Tally {
        gets: a.gets + b.gets,
        hits: a.hits + b.hits,
        created: a.created + b.created,
        deleted: a.deleted + b.deleted,
    })
}

/// Churns `map` and checks every total; returns its evictions.
fn check_exact(cache: CacheConfig) -> u64 {
    let map = Arc::new(BlobMap::with_config(4, HotKeyConfig::with_k(0), cache, |_| {
        FraserOptSkipList::new()
    }));
    let tally = churn(&map);
    let (stats, arena, c) = (map.total_stats(), map.total_arena_stats(), map.cache_stats());
    let len = map.len() as u64;
    assert_eq!(stats.searches, tally.gets, "one search per get");
    assert_eq!(stats.hits, tally.hits, "one hit per get that found its key");
    assert_eq!(stats.inserts_ok, tally.created, "one insert per set that created its key");
    assert_eq!(stats.removes_ok, tally.deleted + c.evictions, "one remove per del or eviction");
    assert_eq!(stats.inserts_ok - stats.removes_ok, len);
    assert_eq!(arena.live_blobs(), len, "one live blob per key");
    let payload: u64 = map.scan(0, usize::MAX).iter().map(|(_, v)| v.len() as u64).sum();
    assert_eq!(arena.live_bytes(), payload, "live bytes are the payloads held");
    assert_eq!(c.live_bytes, payload, "both surfaces read the same gauge");
    if c.budget_bytes > 0 {
        let (live, budget) = (c.live_bytes, c.budget_bytes);
        assert!(live <= budget, "{live} bytes over a {budget}-byte budget");
        assert_eq!(c.forced, 0, "a value far below the budget was forced in");
    }
    c.evictions
}

#[test]
fn unbudgeted_totals_are_exact_after_join() {
    assert_eq!(check_exact(CacheConfig::unbounded()), 0);
}

#[test]
fn budgeted_totals_are_exact_after_join() {
    // About half the working set (8 192 keys of ~150 bytes), so CLOCK
    // evicts throughout; each shard's 128 KiB share gives stripes a
    // 512-byte credit.
    let evictions = check_exact(CacheConfig::unbounded().with_budget(512 * 1024));
    assert!(evictions > 0, "the budget never bound");
}
