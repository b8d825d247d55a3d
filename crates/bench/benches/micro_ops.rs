//! Criterion micro-benchmarks: single-threaded cost of search / insert /
//! remove on a representative subset of the algorithms.
//!
//! `fraser-opt` runs at three sizes: 1 k keys (below its hint-table floor,
//! the paper's list), 16 k and 256 k. Built once with the floor forced to 0
//! and once to `isize::MAX` (`FLOOR` in `crates/core/src/skiplist/hint.rs`),
//! the three rows are the sweep the floor was chosen from.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use ascylib::api::ConcurrentMap;
use ascylib::bst::{BstTk, NatarajanBst};
use ascylib::hashtable::{ClhtLb, ClhtLf, JavaHashTable, LazyHashTable};
use ascylib::list::{HarrisOptList, LazyList};
use ascylib::skiplist::{FraserOptSkipList, HerlihySkipList};

fn bench_map(c: &mut Criterion, name: &str, map: &dyn ConcurrentMap, elements: u64) {
    for k in 1..=elements {
        map.insert(k * 2, k);
    }
    let mut group = c.benchmark_group(name);
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    let mut key = 0u64;
    group.bench_function("search_hit", |b| {
        b.iter(|| {
            key = key % elements + 1;
            std::hint::black_box(map.search(key * 2))
        })
    });
    group.bench_function("search_miss", |b| {
        b.iter(|| {
            key = key % elements + 1;
            std::hint::black_box(map.search(key * 2 - 1))
        })
    });
    group.bench_function("insert_remove", |b| {
        b.iter(|| {
            key = key % elements + 1;
            std::hint::black_box(map.insert(key * 2 - 1, key));
            std::hint::black_box(map.remove(key * 2 - 1))
        })
    });
    group.finish();
}

fn micro(c: &mut Criterion) {
    bench_map(c, "list/lazy", &LazyList::new(), 128);
    bench_map(c, "list/harris-opt", &HarrisOptList::new(), 128);
    bench_map(c, "hash/lazy", &LazyHashTable::with_buckets(2048), 1024);
    bench_map(c, "hash/java", &JavaHashTable::with_capacity(2048), 1024);
    bench_map(c, "hash/clht-lb", &ClhtLb::with_capacity(2048), 1024);
    bench_map(c, "hash/clht-lf", &ClhtLf::with_capacity(2048), 1024);
    bench_map(c, "skiplist/herlihy", &HerlihySkipList::new(), 1024);
    bench_map(c, "skiplist/fraser-opt", &FraserOptSkipList::new(), 1024);
    bench_map(c, "skiplist/fraser-opt-16k", &FraserOptSkipList::new(), 16 << 10);
    bench_map(c, "skiplist/fraser-opt-256k", &FraserOptSkipList::new(), 256 << 10);
    bench_map(c, "bst/natarajan", &NatarajanBst::new(), 1024);
    bench_map(c, "bst/bst-tk", &BstTk::new(), 1024);
}

criterion_group!(benches, micro);
criterion_main!(benches);
