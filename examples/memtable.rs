//! A RocksDB-style memtable built on a concurrent ordered map.
//!
//! The paper's introduction points out that skip lists are the backbone of
//! LSM key/value stores such as RocksDB: writers insert new versions into a
//! sorted in-memory table, readers do point lookups *and short range
//! iterations* (RocksDB's `Seek` + `Next`), and a flusher periodically
//! drains the table in key order into an SSTable. The range half of that
//! pattern is exactly what the `OrderedMap` layer provides:
//!
//! * readers issue `scan(key, 16)` iterator reads alongside point `search`es;
//! * the flusher `walk`s the table from a cursor and drains each key as the
//!   walk reaches it — key-ordered, like a real SSTable write — instead of
//!   probing the whole key space for resident keys.
//!
//! Runs the same mix on the ASCY-compliant `fraser-opt` skip list, the
//! lock-based `herlihy` skip list, and BST-TK as an ordered-index
//! alternative.
//!
//! Run with: `cargo run --release --example memtable`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ascylib::api::ConcurrentMap;
use ascylib::bst::BstTk;
use ascylib::ordered::OrderedMap;
use ascylib::skiplist::{FraserOptSkipList, HerlihySkipList};

const KEYSPACE: u64 = 64 * 1024;
const OPS_PER_THREAD: u64 = 100_000;
const FLUSH_THRESHOLD: usize = 16 * 1024;
const SCAN_LEN: usize = 16;

fn run_memtable(name: &str, table: Arc<dyn OrderedMap>, threads: usize) {
    let flushes = Arc::new(AtomicU64::new(0));
    let flushed_keys = Arc::new(AtomicU64::new(0));
    let scanned_keys = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads as u64 {
        let table = Arc::clone(&table);
        let flushes = Arc::clone(&flushes);
        let flushed_keys = Arc::clone(&flushed_keys);
        let scanned_keys = Arc::clone(&scanned_keys);
        handles.push(std::thread::spawn(move || {
            let mut state = (t + 1) * 0xA24B_AED4;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // The flusher's cursor walks the key space in order and wraps.
            let mut flush_cursor = 1u64;
            for i in 0..OPS_PER_THREAD {
                let key = 1 + rng() % KEYSPACE;
                match rng() % 100 {
                    // 50% writes: insert a new version (value = sequence no).
                    0..=49 => {
                        if !table.insert(key, i) {
                            // Key already present: emulate an overwrite by
                            // remove + insert (the CSDS interface is a set).
                            table.remove(key);
                            table.insert(key, i);
                        }
                    }
                    // 25% point lookups.
                    50..=74 => {
                        table.search(key);
                    }
                    // 15% iterator reads: Seek(key) + up to 16 Next()s.
                    75..=89 => {
                        let got = table.scan(key, SCAN_LEN);
                        scanned_keys.fetch_add(got.len() as u64, Ordering::Relaxed);
                    }
                    // 10% deletes (tombstones applied immediately).
                    _ => {
                        table.remove(key);
                    }
                }
                // Thread 0 plays the flusher: when the memtable grows past
                // the threshold, drain a chunk *in key order* (simulating a
                // flush to an SSTable) by iterating the table itself.
                if t == 0 && i % 4096 == 0 && table.size() > FLUSH_THRESHOLD {
                    let mut drained = 0usize;
                    while drained < FLUSH_THRESHOLD / 2 {
                        let from = flush_cursor;
                        table.walk(from, &mut |k, _| {
                            drained += usize::from(table.remove(k).is_some());
                            flush_cursor = k + 1;
                            drained < FLUSH_THRESHOLD / 2
                        });
                        if drained < FLUSH_THRESHOLD / 2 {
                            // The walk ran off the top of the table: wrap,
                            // unless the table is momentarily empty.
                            if from == 1 && flush_cursor == 1 {
                                break;
                            }
                            flush_cursor = 1;
                        }
                    }
                    flushed_keys.fetch_add(drained as u64, Ordering::Relaxed);
                    flushes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let total = threads as u64 * OPS_PER_THREAD;
    println!(
        "{name:>12}: {:>7.2} Mops/s  final size {:>6}  flushes {:>3} ({:>6} keys drained in order)  {:>8} keys iterated  ({threads} threads)",
        total as f64 / elapsed.as_secs_f64() / 1e6,
        table.size(),
        flushes.load(Ordering::Relaxed),
        flushed_keys.load(Ordering::Relaxed),
        scanned_keys.load(Ordering::Relaxed),
    );
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    println!(
        "RocksDB-style memtable workload (50% write / 25% read / 15% iterate / 10% delete + ordered flusher)"
    );
    run_memtable("fraser-opt", Arc::new(FraserOptSkipList::new()), threads);
    run_memtable("herlihy", Arc::new(HerlihySkipList::new()), threads);
    run_memtable("bst-tk", Arc::new(BstTk::new()), threads);

    // One explicit range query to close the loop: everything currently in
    // the fraser-opt table between two keys, in order.
    let table = FraserOptSkipList::new();
    for k in [10u64, 40, 20, 35, 50, 15] {
        table.insert(k, k * 100);
    }
    let mut window = Vec::new();
    table.range_search(15, 40, &mut window);
    println!("range_search(15, 40) over a fresh table -> {window:?}");
}
