//! What the skip lists ask the allocator for, counted from outside.
//!
//! Nodes are allocated for their own tower height and freed with a layout
//! recomputed from the height recorded in the node. Both halves are checked
//! here through ssmem's per-size-class census: the mean bytes in use per
//! node must be a few words (it was 216 B when every node carried
//! `MAX_LEVEL` links), and after churn, teardown and collection every size
//! class must hold as many objects in use as before — a free with the
//! wrong layout shows as one class above it and another below.
//!
//! One `#[test]` only: the census is process-wide, and tests of one binary
//! run in parallel.

use std::sync::Barrier;

use ascylib::api::ConcurrentMap;
use ascylib::skiplist::{
    AsyncSkipList, FraserOptSkipList, FraserSkipList, HerlihySkipList, PughSkipList,
};
use ascylib::testing::{arena_bytes_in_use, assert_arena_balanced, TestRng};
use ascylib_ssmem as ssmem;

/// Keys of the size measurement; 100 003 is prime, so `i -> 1 + i * 48 271
/// mod 100 003` visits distinct keys in scrambled order.
const NODES: u64 = 100_000;

/// Mean arena bytes taken into use per inserted node.
fn bytes_per_node<M: ConcurrentMap>(list: M) -> f64 {
    let before = arena_bytes_in_use();
    for i in 0..NODES {
        assert!(list.insert(1 + i * 48_271 % 100_003, i));
    }
    let mean = (arena_bytes_in_use() - before) as f64 / NODES as f64;
    assert_eq!(list.size(), NODES as usize);
    mean
}

/// Two threads insert and remove over a small key range, so towers of every
/// common height are retired, recycled at their own height and freed on
/// every path there is: a lost publishing race, retirement, the reuse
/// pool's hand-back at thread exit, and the list's own teardown.
fn churn<M: ConcurrentMap + Sync>(list: M) {
    const KEYS: u64 = 2_048;
    const OPS_PER_THREAD: usize = 150_000;
    for key in (1..=KEYS).step_by(2) {
        list.insert(key, key);
    }
    let churned = Barrier::new(2);
    std::thread::scope(|s| {
        let workers = [11, 12].map(|seed| {
            let (list, churned) = (&list, &churned);
            s.spawn(move || {
                let mut rng = TestRng::new(seed);
                for _ in 0..OPS_PER_THREAD {
                    let key = rng.key(KEYS);
                    if rng.next_u64() % 2 == 0 {
                        list.insert(key, key);
                    } else {
                        list.remove(key);
                    }
                }
                // Past the barrier both threads are quiescent for good, so
                // every retired node's grace period is over: collect them
                // all into the pool, which the thread's exit hands back.
                churned.wait();
                while ssmem::thread_stats().pending > 0 {
                    ssmem::collect();
                }
            })
        });
        // The scope's own wait ends when the closures return; only `join`
        // waits for the thread-local destructors that hand the pools back.
        for worker in workers {
            worker.join().expect("churn thread panicked");
        }
    });
    drop(list);
    ssmem::collect();
}

#[test]
fn nodes_are_sized_to_their_towers_and_freed_with_that_size() {
    // Mean tower is 2 links: 24 + 16 B, a word more for the lock-based
    // header. Sentinels and ssmem's own bookkeeping are outside the window.
    for (name, mean, expected) in [
        ("fraser", bytes_per_node(FraserSkipList::new()), 40.0),
        ("fraser-opt", bytes_per_node(FraserOptSkipList::new()), 40.0),
        ("herlihy", bytes_per_node(HerlihySkipList::new()), 48.0),
        ("pugh", bytes_per_node(PughSkipList::new()), 48.0),
        ("async", bytes_per_node(AsyncSkipList::new()), 40.0),
    ] {
        assert!(mean <= 64.0, "{name}: {mean:.1} B requested per node");
        assert!((mean - expected).abs() < 1.0, "{name}: {mean:.1} B per node, not ~{expected}");
    }

    assert_arena_balanced("fraser", || churn(FraserSkipList::new()));
    assert_arena_balanced("fraser-opt", || churn(FraserOptSkipList::new()));
    assert_arena_balanced("herlihy", || churn(HerlihySkipList::new()));
    assert_arena_balanced("pugh", || churn(PughSkipList::new()));
    // The asynchronized baseline is sequential code that never retires a
    // node (removed ones are leaked by design), so its free path is the
    // teardown alone: build and drop.
    assert_arena_balanced("async", || {
        bytes_per_node(AsyncSkipList::new());
    });
}
