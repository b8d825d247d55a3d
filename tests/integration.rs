//! Workspace integration tests: exercise every registered algorithm through
//! the public API, across crates (core + harness + shard), including
//! property-based tests with proptest.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use ascylib::api::{ConcurrentMap, ReplaceMap, StructureKind};
use ascylib::ordered::OrderedMap;
use ascylib::registry;
use ascylib_harness::{run_benchmark, run_benchmark_ordered, KeyDist, OpMix, WorkloadBuilder};
use ascylib_shard::ShardedMap;

/// Every registered algorithm passes the shared concurrent test battery.
#[test]
fn all_linearizable_algorithms_pass_partitioned_concurrency() {
    for entry in registry::all_algorithms() {
        if entry.asynchronized {
            continue;
        }
        let map = (entry.construct)(512);
        let name = entry.name;
        let threads = 4;
        let keys_per_thread = 48u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let map = Arc::clone(&map);
            handles.push(std::thread::spawn(move || {
                let base = t as u64 * keys_per_thread + 1;
                for k in base..base + keys_per_thread {
                    assert!(map.insert(k, k * 2), "{name}: insert({k})");
                }
                for k in (base..base + keys_per_thread).step_by(2) {
                    assert_eq!(map.remove(k), Some(k * 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut expected = 0;
        for t in 0..threads {
            let base = t as u64 * keys_per_thread + 1;
            for k in base..base + keys_per_thread {
                let present = (k - base) % 2 == 1;
                assert_eq!(
                    map.search(k).is_some(),
                    present,
                    "{}: final state of {k}",
                    entry.name
                );
                if present {
                    expected += 1;
                }
            }
        }
        assert_eq!(map.size(), expected, "{}", entry.name);
    }
}

/// The harness produces sane results for one algorithm per structure family.
#[test]
fn harness_runs_each_structure_family() {
    for (name, size) in [
        ("ll-lazy", 128usize),
        ("ht-clht-lb", 1024),
        ("sl-fraser-opt", 1024),
        ("bst-tk", 1024),
    ] {
        let entry = registry::by_name(name).unwrap();
        let w = WorkloadBuilder::new()
            .initial_size(size)
            .update_percent(20)
            .threads(2)
            .duration_ms(40)
            .build();
        let r = run_benchmark((entry.construct)(size * 2), w);
        assert!(r.total_ops > 0, "{name}");
        let delta = r.successful_inserts as i64 - r.successful_removes as i64;
        assert_eq!(r.final_size as i64, size as i64 + delta, "{name}: size bookkeeping");
    }
}

/// A sharded deployment of a registry algorithm runs through the full
/// harness measurement loop under skewed traffic, with intact size
/// bookkeeping (the sharded `size` composes the shard views).
#[test]
fn harness_drives_sharded_maps_under_skew() {
    for dist in [
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: 0.99 },
        KeyDist::Hotspot { hot_fraction: 0.1, hot_prob: 0.9 },
    ] {
        let entry = registry::by_name("ht-clht-lb").unwrap();
        let map = ShardedMap::from_registry(&entry, 4, 1024);
        let w = WorkloadBuilder::new()
            .initial_size(512)
            .update_percent(20)
            .threads(2)
            .duration_ms(40)
            .key_dist(dist)
            .build();
        let r = run_benchmark(Arc::new(map), w);
        assert!(r.total_ops > 0, "{dist}");
        let delta = r.successful_inserts as i64 - r.successful_removes as i64;
        assert_eq!(r.final_size as i64, 512 + delta, "{dist}: size bookkeeping");
    }
}

/// The full scan stack end to end: a YCSB-E preset (95% scans / 5% inserts)
/// driven through the harness over one backing per ordered family, uniform
/// and skewed.
#[test]
fn harness_runs_ycsb_e_over_each_ordered_family() {
    let backings: Vec<(&str, std::sync::Arc<dyn OrderedMap>)> = vec![
        ("ll-harris", Arc::new(ascylib::list::HarrisList::new())),
        ("sl-fraser-opt", Arc::new(ascylib::skiplist::FraserOptSkipList::new())),
        ("bst-tk", Arc::new(ascylib::bst::BstTk::new())),
    ];
    for (name, map) in backings {
        let w = WorkloadBuilder::new()
            .initial_size(256)
            .op_mix(OpMix::ycsb_e())
            .threads(2)
            .duration_ms(40)
            .zipfian(0.99)
            .build();
        let r = run_benchmark_ordered(map, w);
        assert!(r.total_ops > 0, "{name}");
        assert!(r.scans > 0, "{name}: YCSB-E must scan");
        assert!(r.scan_keys_returned > 0, "{name}: scans over a populated table return keys");
        let delta = r.successful_inserts as i64 - r.successful_removes as i64;
        assert_eq!(r.final_size as i64, 256 + delta, "{name}: size bookkeeping");
    }
}

/// A *sharded* ordered deployment exposes the same scan surface: the harness
/// drives YCSB-E against it, and a direct sweep confirms globally key-ordered
/// scatter-gather results.
#[test]
fn harness_runs_ycsb_e_over_a_sharded_ordered_map() {
    let map = Arc::new(ShardedMap::new(4, |_| ascylib::skiplist::FraserOptSkipList::new()));
    let w = WorkloadBuilder::new()
        .initial_size(512)
        .op_mix(OpMix::ycsb_e())
        .threads(2)
        .duration_ms(40)
        .build();
    let r = run_benchmark_ordered(map.clone(), w);
    assert!(r.scans > 0);
    let delta = r.successful_inserts as i64 - r.successful_removes as i64;
    assert_eq!(r.final_size as i64, 512 + delta);
    // Post-run sweep: globally ordered and consistent with the size.
    let mut all = Vec::new();
    map.range_search(1, u64::MAX, &mut all);
    assert_eq!(all.len(), map.size());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scatter-gather order violated");
}

/// The full serving stack across crates: the *same* workload vocabulary
/// (OpMix preset + key distribution) drives a sharded map in-process via
/// the harness and over loopback TCP via the wire tier's load generator —
/// the loopback side now moving real byte payloads through the blob layer;
/// both must serve traffic.
#[test]
fn serving_tier_replays_a_harness_workload_over_loopback() {
    use ascylib_server::loadgen::{self, LoadGenConfig};
    use ascylib_server::{BlobStore, Server, ServerConfig, ValueSize};
    use ascylib_shard::BlobMap;

    // In-process: harness measurement over a 4-shard CLHT.
    let entry = registry::by_name("ht-clht-lb").unwrap();
    let w = WorkloadBuilder::new()
        .initial_size(512)
        .op_mix(OpMix::ycsb_b())
        .threads(2)
        .duration_ms(40)
        .zipfian(0.99)
        .build();
    let in_process =
        run_benchmark(Arc::new(ShardedMap::from_registry(&entry, 4, 1024)), w);
    assert!(in_process.total_ops > 0);

    // Over loopback: same mix, same distribution and the same sharding —
    // through sockets, frames, the closed-loop client, and the blob-value
    // layer, over the skip list it needs (built directly: the blob layer
    // needs `ReplaceMap` and `OrderedMap`, which the registry's
    // `dyn ConcurrentMap` handles hide).
    let map = Arc::new(BlobMap::new(4, |_| ascylib::skiplist::FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::new(Arc::clone(&map)),
        ServerConfig::for_connections(2),
    )
    .expect("ephemeral bind");
    loadgen::prefill(server.addr(), 512, 1024, ValueSize::Fixed(32), 7).expect("prefill");
    let r = loadgen::run(
        server.addr(),
        &LoadGenConfig {
            connections: 2,
            duration_ms: 40,
            mix: OpMix::ycsb_b(),
            dist: KeyDist::Zipfian { theta: 0.99 },
            key_range: 1024,
            value_size: ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 },
            pipeline_depth: 8,
            ..LoadGenConfig::default()
        },
    )
    .expect("loadgen run");
    assert!(r.total_ops > 0);
    assert_eq!(r.errors, 0);
    assert!(r.hits > 0, "zipf head over a prefilled keyspace must hit");
    assert!(
        r.payload_bytes_read > 0 && r.payload_bytes_written > 0,
        "the replay must move payload bytes both ways"
    );
    // Mutations over the wire land in the map the test kept a handle to:
    // write a sentinel through a fresh client, observe it in-process.
    let mut probe = ascylib_server::Client::connect(server.addr()).expect("probe connect");
    let sentinel = 1_000_000u64;
    assert!(probe.set(sentinel, b"forty-two").expect("wire SET"));
    assert_eq!(
        map.get_owned(sentinel),
        Some(b"forty-two".to_vec()),
        "wire mutation visible through the Arc"
    );
    probe.quit().expect("quit");
    let stats = server.join();
    assert!(stats.ops > r.total_ops, "server accounted the keyspace ops it served");
    assert_eq!(stats.errors, 0);
}
#[test]
fn skewed_traffic_actually_skews_the_op_stream() {
    let sampler = ascylib_harness::KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, 1_000);
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(9);
    let mut head = 0usize;
    let draws = 20_000;
    for _ in 0..draws {
        if sampler.sample(&mut rng) <= 10 {
            head += 1;
        }
    }
    // Uniform would put ~1% on the 10-key head; zipf(0.99) puts ~40%.
    assert!(head as f64 / draws as f64 > 0.25, "head fraction {head}/{draws}");
}

/// The registry covers all four structures of Table 1.
#[test]
fn registry_structure_coverage() {
    for kind in [
        StructureKind::LinkedList,
        StructureKind::HashTable,
        StructureKind::SkipList,
        StructureKind::Bst,
    ] {
        assert!(registry::by_structure(kind).len() >= 5, "{kind}");
    }
}

/// `ReplaceMap::upsert` of a structure that has one.
type Upsert<M> = fn(&M, u64, u64) -> Option<u64>;

/// Property-based differential testing: arbitrary operation sequences applied
/// to a CSDS and to a `BTreeMap` model must agree. One representative per
/// structure family is checked (the full matrix runs in the unit tests).
/// Structures that implement `ReplaceMap` pass their `upsert`, and a quarter
/// of the ops exercise it; for the others those ops are searches.
fn check_against_model<M: ConcurrentMap>(map: M, ops: &[(u8, u64)], upsert: Option<Upsert<M>>) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &(op, key)) in ops.iter().enumerate() {
        let key = 1 + key % 64;
        match (op % 4, upsert) {
            (0, _) => {
                let expected = !model.contains_key(&key);
                assert_eq!(map.insert(key, i as u64), expected, "insert({key}) step {i}");
                model.entry(key).or_insert(i as u64);
            }
            (1, _) => {
                assert_eq!(map.remove(key), model.remove(&key), "remove({key}) step {i}");
            }
            (2, Some(upsert)) => {
                let expected = model.insert(key, i as u64);
                assert_eq!(upsert(&map, key, i as u64), expected, "upsert({key}) step {i}");
            }
            _ => {
                assert_eq!(map.search(key), model.get(&key).copied(), "search({key}) step {i}");
            }
        }
    }
    assert_eq!(map.size(), model.len());
    for (&key, &value) in &model {
        assert_eq!(map.search(key), Some(value), "final value of {key}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_lazy_list_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::list::LazyList::new(), &ops, None);
    }

    #[test]
    fn prop_harris_opt_list_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::list::HarrisOptList::new(), &ops, None);
    }

    #[test]
    fn prop_clht_lb_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::hashtable::ClhtLb::with_capacity(32), &ops, None);
    }

    #[test]
    fn prop_clht_lf_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::hashtable::ClhtLf::with_capacity(32), &ops, None);
    }

    #[test]
    fn prop_fraser_skiplist_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::skiplist::FraserSkipList::new(), &ops, Some(ReplaceMap::upsert));
    }

    #[test]
    fn prop_fraser_opt_skiplist_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::skiplist::FraserOptSkipList::new(), &ops, Some(ReplaceMap::upsert));
    }

    #[test]
    fn prop_sharded_clht_lb_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        let map = ShardedMap::new(4, |_| ascylib::hashtable::ClhtLb::with_capacity(16));
        check_against_model(map, &ops, None);
    }

    #[test]
    fn prop_bst_tk_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::bst::BstTk::new(), &ops, None);
    }

    #[test]
    fn prop_natarajan_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::bst::NatarajanBst::new(), &ops, None);
    }

    #[test]
    fn prop_ellen_matches_model(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        check_against_model(ascylib::bst::EllenBst::new(), &ops, None);
    }
}
