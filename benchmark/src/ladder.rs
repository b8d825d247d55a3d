//! The layer ladder: one seeded op stream replayed, single-threaded,
//! against each layer's public API from the bare structure outwards.
//!
//! Every rung runs the same stream for a fixed number of ops, so counts
//! repeat exactly for a seed. Within a batch the GETs run first and the
//! SETs after, each group under one pair of clock reads: per-kind time per
//! op without a clock read per op. A rung's time is the lower quartile of
//! its per-batch quotients (see `estimate`); a layer's *self* time is its
//! rung minus the rung below.
//!
//! The workload's counters (hot-key, cache) are not taken here but from
//! the workload's own map under its real thread count; see `run`.

use std::alloc::Layout;
use std::hint::black_box;
use std::sync::Arc;

use ascylib::api::ConcurrentMap;
use ascylib::skiplist::FraserOptSkipList;
use ascylib::stats::{self as core_stats, OpCounters};
use ascylib_server::protocol::{encode_request, encode_set, wire, ReplyParser, RequestParser};
use ascylib_server::{KvStore, Request};
use ascylib_shard::{CacheConfig, HotKeyConfig, ShardedMap};
use ascylib_ssmem as ssmem;
use ascylib_telemetry::clock;
use ascylib_telemetry::hist::Histogram;

use crate::estimate::{ns_per_op, ratio, BATCH};
use crate::ops::{preload_order, Kind, Op, OpGen, Purpose, Spec};
use crate::run::Scale;
use crate::span::now_ns;
use crate::stack::{as_store, build_map, cache_config, Map, SHARDS};
use crate::value;

/// Per-op times of one rung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    pub get_ns: f64,
    pub set_ns: f64,
}

/// What the ladder measured, as `(metric name, value)` in print order,
/// plus the top map for the caller's loopback rung.
pub struct Ladder {
    pub metrics: Vec<(&'static str, f64)>,
    /// Sum of self times from the bare structure up to `store`: equals
    /// `store.get_ns`/`store.set_ns` by construction, kept by name for the
    /// reconciliation line.
    pub store: Rung,
    /// The map behind the `cache`, `store` and codec rungs, still loaded,
    /// and the version of each key it holds.
    pub top: Arc<Map>,
    pub top_versions: Vec<u32>,
}

/// One batch of the stream, GETs and SETs apart, SET payloads ready.
struct Split {
    gets: Vec<u64>,
    sets: Vec<u64>,
    payloads: Vec<u8>,
}

impl Split {
    fn payload(&self, i: usize, len: usize) -> &[u8] {
        &self.payloads[i * len..(i + 1) * len]
    }
}

/// The ladder's stream: the workload's mix and key distribution on one
/// lane that owns every key.
struct Stream {
    gen: OpGen,
    ops: Vec<Op>,
    value_len: usize,
}

impl Stream {
    fn new(single: &Spec, seed: u64) -> Self {
        Stream {
            gen: OpGen::new(single, seed, 0, Purpose::Ladder),
            ops: Vec::with_capacity(BATCH),
            value_len: single.value_len,
        }
    }

    /// The next batch, its SET payloads carrying the next version of their
    /// key according to `versions` (which is advanced).
    fn next_batch(&mut self, into: &mut Split, versions: &mut [u32]) {
        self.gen.fill(&mut self.ops, BATCH);
        into.gets.clear();
        into.sets.clear();
        for op in &self.ops {
            match op.kind {
                Kind::Get => into.gets.push(op.key),
                Kind::Set => into.sets.push(op.key),
            }
        }
        into.payloads.resize(into.sets.len() * self.value_len, 0);
        for (i, &key) in into.sets.iter().enumerate() {
            versions[key as usize] += 1;
            value::encode(
                &mut into.payloads[i * self.value_len..(i + 1) * self.value_len],
                key,
                versions[key as usize],
            );
        }
    }
}

/// Times and counts of one rung's replay.
#[derive(Default)]
struct Replay {
    get_batches: Vec<(u64, u32)>,
    set_batches: Vec<(u64, u32)>,
    get_counts: OpCounters,
    set_counts: OpCounters,
    gets: u64,
    sets: u64,
    misses: u64,
    /// Most retired-but-unreclaimed ssmem objects seen at a batch boundary.
    pending_max: u64,
}

impl Replay {
    fn rung(&self) -> Rung {
        Rung {
            get_ns: ns_per_op(&self.get_batches),
            set_ns: ns_per_op(&self.set_batches),
        }
    }
}

/// Replays the stream through `get` and `set`: half of `ops` unrecorded
/// first, so a rung on a map just built is measured as warm as a rung on a
/// map the rung below has already run over, then `ops` recorded.
fn replay(
    single: &Spec,
    seed: u64,
    ops: u64,
    versions: &mut [u32],
    mut get: impl FnMut(u64) -> bool,
    mut set: impl FnMut(u64, &[u8]),
) -> Replay {
    let mut stream = Stream::new(single, seed);
    let mut split = Split {
        gets: Vec::new(),
        sets: Vec::new(),
        payloads: Vec::new(),
    };
    let mut out = Replay::default();
    let len = single.value_len;
    for _ in 0..ops / 2 / BATCH as u64 {
        stream.next_batch(&mut split, versions);
        for &key in &split.gets {
            get(key);
        }
        for (i, &key) in split.sets.iter().enumerate() {
            set(key, split.payload(i, len));
        }
    }
    for _ in 0..ops / BATCH as u64 {
        stream.next_batch(&mut split, versions);
        let c0 = core_stats::snapshot();
        let t0 = now_ns();
        for &key in &split.gets {
            out.misses += u64::from(!get(key));
        }
        let t1 = now_ns();
        let c1 = core_stats::snapshot();
        for (i, &key) in split.sets.iter().enumerate() {
            set(key, split.payload(i, len));
        }
        let t2 = now_ns();
        let c2 = core_stats::snapshot();
        out.get_batches.push((t1 - t0, split.gets.len() as u32));
        out.set_batches.push((t2 - t1, split.sets.len() as u32));
        out.get_counts.merge(&c1.saturating_sub(&c0));
        out.set_counts.merge(&c2.saturating_sub(&c1));
        out.gets += split.gets.len() as u64;
        out.sets += split.sets.len() as u64;
        out.pending_max = out.pending_max.max(ssmem::thread_stats().pending);
    }
    out
}

/// The upsert the blob tier performs on its index, on a `u64` map.
fn upsert(map: &impl ConcurrentMap, key: u64, value: u64) {
    while !map.insert(key, value) {
        map.remove(key);
    }
}

/// Lower-quartile ns per call of `f` over `n` batches of [`BATCH`] calls.
fn micro(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(n);
    for b in 0..n {
        let t0 = now_ns();
        for i in 0..BATCH {
            f(b * BATCH + i);
        }
        batches.push((now_ns() - t0, BATCH as u32));
    }
    ns_per_op(&batches)
}

/// Runs every in-process rung for `spec` and the micro-measurements.
pub fn run(spec: &Spec, seed: u64, scale: &Scale) -> Ladder {
    let single = spec.single_lane();
    // Which version of each key the map under replay holds. Only the top
    // map's is read afterwards; it is reset when that map is preloaded.
    let mut versions = vec![1u32; spec.keys as usize + 1];
    let preload_u64 = |map: &dyn ConcurrentMap| {
        for key in preload_order(&single, seed, 0) {
            assert!(map.insert(key, key));
        }
    };
    let preload_blob = |map: &Map| {
        let mut buf = vec![0u8; single.value_len];
        for key in preload_order(&single, seed, 0) {
            value::encode(&mut buf, key, 1);
            assert!(map.set(key, &buf));
        }
    };
    let replay_blob = |map: &Map, versions: &mut [u32]| {
        let mut buf = Vec::with_capacity(single.value_len);
        replay(
            &single,
            seed,
            scale.rung_ops,
            versions,
            |k| map.get(k, &mut buf),
            |k, v| {
                map.set(k, v);
            },
        )
    };
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Rung 1, `core`: the bare structure, every key in one skip list.
    let core = {
        let list = FraserOptSkipList::new();
        preload_u64(&list);
        let r = replay(
            &single,
            seed,
            scale.rung_ops,
            &mut versions,
            |k| list.search(k).is_some(),
            |k, _| upsert(&list, k, k),
        );
        assert_eq!(r.misses, 0, "core rung: a preloaded key was missing");
        m.push(("core.get_ns", r.rung().get_ns));
        m.push(("core.set_ns", r.rung().set_ns));
        m.push((
            "core.atomics_per_set",
            ratio(r.set_counts.atomic_ops, r.sets),
        ));
        m.push((
            "core.stores_per_set",
            ratio(r.set_counts.shared_stores, r.sets),
        ));
        m.push((
            "core.nodes_per_get",
            ratio(r.get_counts.nodes_traversed, r.gets),
        ));
        let atomics = r.get_counts.atomic_ops + r.set_counts.atomic_ops;
        let failures = r.get_counts.atomic_failures + r.set_counts.atomic_failures;
        m.push(("core.cas_fail_share", ratio(failures, atomics)));
        m.push((
            "core.restarts_per_op",
            ratio(
                r.get_counts.restarts + r.set_counts.restarts,
                r.gets + r.sets,
            ),
        ));
        r.rung()
    };

    let mut below = core;
    let mut push_rung = |m: &mut Vec<(&'static str, f64)>, names: [&'static str; 4], rung: Rung| {
        m.push((names[0], rung.get_ns));
        m.push((names[1], rung.set_ns));
        m.push((names[2], rung.get_ns - below.get_ns));
        m.push((names[3], rung.set_ns - below.set_ns));
        below = rung;
    };

    // Rung 2, `map`: hash routing and shard stats over four skip lists.
    {
        let map = ShardedMap::new(SHARDS, |_| FraserOptSkipList::new());
        preload_u64(&map);
        let r = replay(
            &single,
            seed,
            scale.rung_ops,
            &mut versions,
            |k| map.search(k).is_some(),
            |k, _| upsert(&map, k, k),
        );
        assert_eq!(r.misses, 0, "map rung: a preloaded key was missing");
        push_rung(
            &mut m,
            [
                "map.get_ns",
                "map.set_ns",
                "map.self_get_ns",
                "map.self_set_ns",
            ],
            r.rung(),
        );
    }

    // Rung 3, `blob`: byte values in ssmem arenas, no hot-key engine.
    {
        let map = build_map(HotKeyConfig::with_k(0), CacheConfig::unbounded());
        preload_blob(&map);
        let r = replay_blob(&map, &mut versions);
        assert_eq!(r.misses, 0, "blob rung: a preloaded key was missing");
        push_rung(
            &mut m,
            [
                "blob.get_ns",
                "blob.set_ns",
                "blob.self_get_ns",
                "blob.self_set_ns",
            ],
            r.rung(),
        );
    }

    // Rung 4, `hotkey`: the engine at its defaults; rung 5, `cache`: the
    // workload's budget on top. Without a budget the two configurations
    // are the same map, replayed twice.
    let hot = build_map(HotKeyConfig::default(), CacheConfig::unbounded());
    versions.fill(1);
    preload_blob(&hot);
    let r = replay_blob(&hot, &mut versions);
    assert_eq!(r.misses, 0, "hotkey rung: a preloaded key was missing");
    push_rung(
        &mut m,
        [
            "hotkey.get_ns",
            "hotkey.set_ns",
            "hotkey.self_get_ns",
            "hotkey.self_set_ns",
        ],
        r.rung(),
    );
    let top = if spec.budget.is_some() {
        drop(hot);
        let budgeted = build_map(HotKeyConfig::default(), cache_config(spec));
        versions.fill(1);
        preload_blob(&budgeted);
        budgeted
    } else {
        hot
    };
    let r = replay_blob(&top, &mut versions);
    assert!(
        spec.budget.is_some() || r.misses == 0,
        "cache rung: miss on an unbounded store"
    );
    push_rung(
        &mut m,
        [
            "cache.get_ns",
            "cache.set_ns",
            "cache.self_get_ns",
            "cache.self_set_ns",
        ],
        r.rung(),
    );

    // Rung 6, `store`: the same map behind `dyn KvStore`, as the server
    // calls it. ssmem's counters are this thread's, so they are exact too.
    let store = as_store(&top);
    let store_rung = {
        let mut buf = Vec::with_capacity(single.value_len);
        let s0 = ssmem::thread_stats();
        let r = replay(
            &single,
            seed,
            scale.rung_ops,
            &mut versions,
            |k| store.get(k, &mut buf),
            |k, v| {
                store.set(k, v);
            },
        );
        let s1 = ssmem::thread_stats();
        push_rung(
            &mut m,
            [
                "store.get_ns",
                "store.set_ns",
                "store.self_get_ns",
                "store.self_set_ns",
            ],
            r.rung(),
        );
        m.push((
            "ssmem.reuse_share",
            ratio(s1.reused - s0.reused, s1.allocations - s0.allocations),
        ));
        m.push((
            "ssmem.gc_passes_per_kop",
            ratio((s1.gc_passes - s0.gc_passes) * 1000, r.gets + r.sets),
        ));
        m.push(("ssmem.pending_max", r.pending_max as f64));
        r.rung()
    };
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    m.push((
        "ssmem.alloc_retire_ns",
        micro(scale.micro_batches, |_| {
            let _guard = ssmem::protect();
            let p = ssmem::alloc_raw(layout);
            // SAFETY: `p` came from `alloc_raw(layout)` just above and was
            // never shared, so nothing can still reach it.
            unsafe { ssmem::retire_raw(black_box(p), layout) };
        }),
    ));

    codec(
        &single,
        seed,
        scale.codec_ops,
        &mut versions,
        &*store,
        &mut m,
    );

    clock::calibrate();
    m.push((
        "telemetry.clock_ns",
        micro(scale.micro_batches, |_| {
            black_box(clock::now());
        }),
    ));
    let hist = Histogram::new();
    m.push((
        "telemetry.hist_record_ns",
        micro(scale.micro_batches, |i| {
            hist.record(black_box(1_000 + i as u64))
        }),
    ));

    drop(store);
    Ladder {
        metrics: m,
        store: store_rung,
        top,
        top_versions: versions,
    }
}

/// Rung 7: the codec in memory. Per batch, four timed passes — encode
/// every request, parse them, encode every reply, parse those — with the
/// store calls in between untimed (rung 6 already costed them).
fn codec(
    single: &Spec,
    seed: u64,
    ops: u64,
    versions: &mut [u32],
    store: &dyn KvStore,
    m: &mut Vec<(&'static str, f64)>,
) {
    let len = single.value_len;
    let mut stream = Stream::new(single, seed);
    let mut split = Split {
        gets: Vec::new(),
        sets: Vec::new(),
        payloads: Vec::new(),
    };
    let (mut req_parser, mut reply_parser) = (RequestParser::new(), ReplyParser::new());
    let (mut wire_req, mut wire_reply) = (Vec::<u8>::new(), Vec::<u8>::new());
    let mut requests: Vec<Request> = Vec::with_capacity(BATCH);
    // What each request answered: `Some(value)` for a GET hit, `None`
    // for a miss; SETs answer `created` in `created`.
    let mut values: Vec<Option<Vec<u8>>> = Vec::with_capacity(BATCH);
    let mut created: Vec<bool> = Vec::with_capacity(BATCH);
    let mut passes: [Vec<(u64, u32)>; 4] = Default::default();
    let (mut get_bytes, mut set_bytes, mut gets, mut sets) = (0u64, 0u64, 0u64, 0u64);
    let mut buf = Vec::with_capacity(len);
    for _ in 0..ops / BATCH as u64 {
        stream.next_batch(&mut split, versions);
        let n = (split.gets.len() + split.sets.len()) as u32;
        wire_req.clear();
        wire_reply.clear();
        requests.clear();
        values.clear();
        created.clear();

        let t0 = now_ns();
        for &key in &split.gets {
            encode_request(&Request::Get(key), &mut wire_req);
        }
        let get_req_bytes = wire_req.len();
        for (i, &key) in split.sets.iter().enumerate() {
            encode_set(&mut wire_req, key, split.payload(i, len));
        }
        let t1 = now_ns();
        req_parser.feed(&wire_req);
        while let Some(parsed) = req_parser.next() {
            requests.push(parsed.expect("the codec parses what it encoded"));
        }
        let t2 = now_ns();
        assert_eq!(requests.len() as u32, n);

        for req in &requests {
            match req {
                Request::Get(k) => values.push(store.get(*k, &mut buf).then(|| buf.clone())),
                Request::Set(k, v) => created.push(store.set(*k, v)),
                other => unreachable!("the stream holds only GET and SET, parsed {other:?}"),
            }
        }

        let t3 = now_ns();
        for v in &values {
            match v {
                Some(bytes) => wire::bulk(&mut wire_reply, bytes),
                None => wire::null(&mut wire_reply),
            }
        }
        let get_reply_bytes = wire_reply.len();
        for &c in &created {
            wire::int(&mut wire_reply, u64::from(c));
        }
        let t4 = now_ns();
        reply_parser.feed(&wire_reply);
        let mut replies = 0u32;
        while let Some(parsed) = reply_parser.next() {
            black_box(parsed.expect("the codec parses what it encoded"));
            replies += 1;
        }
        let t5 = now_ns();
        assert_eq!(replies, n);

        for (pass, ns) in passes.iter_mut().zip([t1 - t0, t2 - t1, t4 - t3, t5 - t4]) {
            pass.push((ns, n));
        }
        get_bytes += (get_req_bytes + get_reply_bytes) as u64;
        set_bytes += (wire_req.len() - get_req_bytes + wire_reply.len() - get_reply_bytes) as u64;
        gets += split.gets.len() as u64;
        sets += split.sets.len() as u64;
    }
    m.push(("protocol.req_encode_ns", ns_per_op(&passes[0])));
    m.push(("protocol.req_parse_ns", ns_per_op(&passes[1])));
    m.push(("protocol.reply_encode_ns", ns_per_op(&passes[2])));
    m.push(("protocol.reply_parse_ns", ns_per_op(&passes[3])));
    m.push(("protocol.bytes_per_get", ratio(get_bytes, gets)));
    m.push(("protocol.bytes_per_set", ratio(set_bytes, sets)));
}
