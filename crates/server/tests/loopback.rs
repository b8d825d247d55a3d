//! Loopback integration tests: real sockets, concurrent pipelined clients,
//! binary payloads, final server state checked against a sequential model.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::client::{decode_optional_bulk, decode_pair, info_field};
use ascylib_server::protocol::MAX_VALUE;
use ascylib_server::{BlobStore, Client, Reply, Request, Server, ServerConfig};
use ascylib_shard::BlobMap;

const CLIENTS: usize = 4;
const SPAN: u64 = 512;
const ROUNDS: usize = 100;
const DEPTH: usize = 16;

/// Pages through the whole keyspace with `SCAN` cursors.
fn full_scan(client: &mut Client) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut from = 1u64;
    loop {
        let page = client.scan(from, 256).expect("scan page");
        let Some((last, _)) = page.last() else { break };
        from = last + 1;
        out.extend(page);
    }
    out
}

/// A deterministic binary value: length and contents derive from `(key,
/// round)`, and the bytes deliberately include NULs, CRs, and LFs.
fn value_for(key: u64, round: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(key.rotate_left(17) ^ round);
    let len = rng.random_range(0..128u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    if len >= 4 {
        v[0] = 0;
        v[1] = b'\n';
        v[2] = b'\r';
    }
    v
}

/// The acceptance scenario: ≥4 concurrent pipelined clients run a mixed
/// GET/SET/DEL/SCAN workload against one server over a `BlobMap`; each
/// client owns a disjoint key range and mirrors its mutations on a local
/// `BTreeMap<u64, Vec<u8>>`, so after the run the server's contents must
/// equal the union of the sequential models — and every GET can be checked
/// against the model *while* the run is concurrent, because nobody else
/// touches those keys.
#[test]
fn concurrent_pipelined_clients_match_the_sequential_model() {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::new(Arc::clone(&map)),
        ServerConfig::for_connections(CLIENTS + 1),
    )
    .expect("bind");
    let addr = server.addr();

    let results: Vec<(BTreeMap<u64, Vec<u8>>, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS as u64 {
            handles.push(scope.spawn(move || {
                let base = 1 + c * SPAN;
                let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
                let mut gets = 0u64;
                let mut client = Client::connect(addr).expect("connect");
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ (c + 1));
                for round in 0..ROUNDS {
                    // Build one pipelined batch of mixed operations over
                    // this client's private key range, mirroring mutations
                    // on the model in queue order.
                    let mut kinds: Vec<Request> = Vec::with_capacity(DEPTH);
                    let mut expected: Vec<Option<Option<Vec<u8>>>> = Vec::with_capacity(DEPTH);
                    let mut p = client.pipeline();
                    for _ in 0..DEPTH {
                        let key = base + rng.random_range(0..SPAN);
                        match rng.random_range(0..100u32) {
                            0..=39 => {
                                p.get(key);
                                gets += 1;
                                kinds.push(Request::Get(key));
                                expected.push(Some(model.get(&key).cloned()));
                            }
                            40..=69 => {
                                let value = value_for(key, round as u64);
                                p.set(key, &value);
                                // SET is an upsert: the model overwrites.
                                model.insert(key, value.clone());
                                kinds.push(Request::Set(key, value));
                                expected.push(None);
                            }
                            70..=89 => {
                                p.del(key);
                                model.remove(&key);
                                kinds.push(Request::Del(key));
                                expected.push(None);
                            }
                            _ => {
                                p.scan(key, 8);
                                kinds.push(Request::Scan(key, 8));
                                expected.push(None);
                            }
                        }
                    }
                    let replies = p.run().expect("pipeline run");
                    assert_eq!(replies.len(), kinds.len());
                    for ((req, reply), expect) in kinds.iter().zip(&replies).zip(&expected) {
                        match req {
                            Request::Get(_) => {
                                let got =
                                    decode_optional_bulk(reply.clone()).expect("GET reply");
                                assert_eq!(
                                    got.as_ref(),
                                    expect.as_ref().expect("GET expectation recorded").as_ref(),
                                    "client {c}: GET must match the private-range model"
                                );
                            }
                            Request::Scan(from, n) => {
                                // Scans cross other clients' live ranges, so
                                // only shape is checkable mid-run: ascending
                                // keys, within bounds, at most n.
                                let pairs: Vec<(u64, Vec<u8>)> = match reply {
                                    Reply::Array(elems) => elems
                                        .iter()
                                        .map(|e| decode_pair(e.clone()).expect("pair"))
                                        .collect(),
                                    other => panic!("SCAN reply {other:?}"),
                                };
                                assert!(pairs.len() <= *n);
                                assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                                assert!(pairs.iter().all(|(k, _)| *k >= *from));
                            }
                            _ => assert!(
                                matches!(reply, Reply::Int(_)),
                                "SET/DEL reply {reply:?}"
                            ),
                        }
                    }
                }
                client.quit().expect("quit");
                (model, gets)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let total_gets: u64 = results.iter().map(|(_, g)| g).sum();

    // Union of the sequential models == final server contents.
    let mut combined: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (model, _) in &results {
        combined.extend(model.iter().map(|(&k, v)| (k, v.clone())));
    }

    // Check through the wire (paged SCAN + MGET)...
    let mut checker = Client::connect(addr).expect("connect checker");
    let scanned = full_scan(&mut checker);
    let expected: Vec<(u64, Vec<u8>)> =
        combined.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(scanned, expected, "full SCAN sweep must equal the merged sequential model");
    let all_keys: Vec<u64> = (1..=CLIENTS as u64 * SPAN).collect();
    for chunk in all_keys.chunks(512) {
        let answers = checker.mget(chunk).expect("mget");
        for (&k, got) in chunk.iter().zip(answers) {
            assert_eq!(got, combined.get(&k).cloned(), "MGET key {k}");
        }
    }
    checker.quit().expect("quit checker");

    // ...and through the in-process handle the test kept.
    assert_eq!(map.len(), combined.len());
    for (&k, v) in &combined {
        assert_eq!(map.get_owned(k).as_ref(), Some(v), "in-process view of key {k}");
    }
    // The arena's live-byte accounting agrees with the model exactly.
    assert_eq!(
        map.total_arena_stats().live_bytes(),
        combined.values().map(|v| v.len() as u64).sum::<u64>()
    );
    let stats = server.join();
    assert_eq!(stats.errors, 0, "a well-formed run must produce no error frames");
    assert_eq!(stats.connections, CLIENTS as u64 + 1);
    // Read-outcome coherence: every single-key lookup the run performed —
    // the clients' GETs plus the checker's per-key MGET probes — classified
    // as exactly one hit or one miss.
    assert_eq!(
        stats.hits + stats.misses,
        total_gets + all_keys.len() as u64,
        "hits + misses must equal the keys looked up"
    );
}

/// The value-payload acceptance test: binary values — NUL and newline bytes
/// included — and a maximum-size (64 KiB) payload round-trip through
/// SET/GET/MSET/MGET/SCAN against a sequential model.
#[test]
fn binary_and_max_size_values_round_trip_every_verb() {
    let map = Arc::new(BlobMap::new(3, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::new(Arc::clone(&map)),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(0xB1A9);

    // SET: every troublesome byte pattern, plus the 64 KiB maximum.
    let mut big = vec![0u8; MAX_VALUE];
    rng.fill_bytes(&mut big);
    let fixtures: Vec<(u64, Vec<u8>)> = vec![
        (1, b"\0\0\0".to_vec()),
        (2, b"\r\n\r\n".to_vec()),
        (3, Vec::new()),
        (4, (0..=255u8).collect()),
        (5, big.clone()),
        (6, b"GET 1\r\nQUIT\r\n".to_vec()), // protocol text as data
    ];
    for (k, v) in &fixtures {
        assert!(c.set(*k, v).expect("SET"), "fresh key {k}");
        model.insert(*k, v.clone());
    }
    // MSET: more binary values, one overwrite of the 64 KiB key.
    let mut big2 = vec![0u8; MAX_VALUE];
    rng.fill_bytes(&mut big2);
    let mset_entries: Vec<(u64, Vec<u8>)> =
        vec![(7, vec![0u8; 1000]), (5, big2.clone()), (8, b"\n".to_vec())];
    let borrowed: Vec<(u64, &[u8])> =
        mset_entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
    assert_eq!(c.mset(&borrowed).expect("MSET"), vec![true, false, true]);
    for (k, v) in &mset_entries {
        model.insert(*k, v.clone());
    }

    // GET each key against the model.
    for (k, v) in &model {
        assert_eq!(c.get(*k).expect("GET").as_ref(), Some(v), "GET {k}");
    }
    // MGET in one batch (plus a miss).
    let keys: Vec<u64> = model.keys().copied().chain([999]).collect();
    let got = c.mget(&keys).expect("MGET");
    for (k, item) in keys.iter().zip(got) {
        assert_eq!(item, model.get(k).cloned(), "MGET {k}");
    }
    // SCAN sweeps the whole model in key order, payloads intact.
    let swept = full_scan(&mut c);
    let expected: Vec<(u64, Vec<u8>)> =
        model.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(swept, expected, "SCAN returns every binary payload in key order");
    // And the in-process handle agrees on the big value.
    assert_eq!(map.get_owned(5), Some(big2));

    // Over-cap SETs are rejected in-band and change nothing.
    let err = c.set(10, &vec![1u8; MAX_VALUE + 1]).expect_err("over cap");
    assert!(err.to_string().contains("exceeds"), "{err}");
    assert_eq!(c.get(10).expect("GET after reject"), None);

    c.quit().expect("quit");
    server.join();
}

/// Wire-level resynchronization: a malformed frame in the middle of a
/// pipelined burst costs exactly one `-ERR` reply, and the rest of the
/// burst executes in order.
#[test]
fn malformed_frame_mid_pipeline_resynchronizes() {
    use std::io::{Read, Write};
    let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
    let server =
        Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default()).expect("bind");
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"SET 1 2\r\nXY\r\nGARBAGE \x01\x02\r\nGET 1\r\nSCAN 1 4\r\nQUIT\r\n")
        .unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).unwrap();
    assert_eq!(
        reply,
        b":1\r\n-ERR illegal byte in frame\r\n$2\r\nXY\r\n*1\r\n=1 2\r\nXY\r\n+BYE\r\n",
        "got {:?}",
        String::from_utf8_lossy(&reply)
    );
    let stats = server.join();
    assert_eq!(stats.errors, 1);
}

/// STATS over the wire reflects the traffic that produced it.
#[test]
fn stats_frame_reports_store_and_server_counters() {
    let map = Arc::new(BlobMap::new(3, |_| FraserOptSkipList::new()));
    let server =
        Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default()).expect("bind");
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 1..=10u64 {
        assert!(c.set(k, &[7u8; 100]).unwrap());
    }
    assert!(c.get(1).unwrap().is_some());
    assert!(c.get(999).unwrap().is_none());
    let stats = c.stats().unwrap();
    let field = |name: &str| -> u64 {
        stats
            .split(' ')
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(field("size"), 10);
    assert_eq!(field("shards"), 3);
    assert_eq!(field("value_bytes"), 1000, "10 live values of 100 bytes");
    assert_eq!(field("ops"), 12, "ten SETs and two GETs before the STATS frame");
    assert_eq!(field("frames"), 13);
    assert_eq!(field("hits"), 1, "GET 1 found its value");
    assert_eq!(field("misses"), 1, "GET 999 did not");
    assert!(field("bytes_in") > 0);
    assert_eq!(field("errors"), 0);
    c.quit().unwrap();
    server.join();
}

/// Each request fact is counted once: `STATS` `frames`, `hits` and
/// `misses` are the per-family counts, a scrape counting itself, and one
/// `INFO` body's `frames` is the sum of its `cmd_<f>_ops` lines.
#[test]
fn frames_hits_and_misses_are_the_per_family_counts() {
    use ascylib_server::Family;
    use std::io::{Read, Write};
    let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
    let server =
        Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default()).expect("bind");
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    // A GET run of three (two hits, one miss), an MGET of two keys (one
    // hit), an out-of-range GET, a malformed line and a PING.
    let batch = b"SET 1 2\r\nXY\r\nGET 1\r\nGET 1\r\nGET 2\r\nMGET 1 2\r\nGET 0\r\nbogus\r\nPING\r\n";
    s.write_all(batch).unwrap();
    let expected: &[u8] = b":1\r\n$2\r\nXY\r\n$2\r\nXY\r\n_\r\n*2\r\n$2\r\nXY\r\n_\r\n\
        -ERR key out of usable range [1, 2^64-2]\r\n-ERR unknown verb\r\n+PONG\r\n";
    let mut reply = vec![0u8; expected.len()];
    s.read_exact(&mut reply).unwrap();
    assert_eq!(reply, expected, "got {:?}", String::from_utf8_lossy(&reply));

    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.stats().unwrap();
    let field = |name: &str| -> u64 {
        stats
            .split(' ')
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
            .parse()
            .unwrap()
    };
    let counts = (field("frames"), field("hits"), field("misses"));
    assert_eq!(counts, (8, 3, 2), "seven frames before the STATS frame, plus itself");

    let info = c.info(Some("commands")).unwrap();
    let get = |key: &str| info_field(&info, key).unwrap_or_else(|| panic!("{key}:\n{info}"));
    let sum: u64 = Family::ALL.iter().map(|f| get(&format!("cmd_{}_ops", f.name()))).sum();
    assert_eq!(get("frames"), sum, "{info}");
    c.quit().unwrap();
    server.join();
}

/// End-to-end telemetry: a real loadgen run, then every observability
/// surface — `INFO`, `SLOWLOG`, `METRICS`, and the loadgen's own scrape —
/// checked against the client-side view of the same traffic.
#[test]
fn telemetry_surfaces_reflect_the_run_and_bound_the_client_view() {
    use ascylib_server::loadgen::{self, LoadGenConfig, ValueSize};
    use std::time::Duration;

    let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::new(map),
        ServerConfig {
            // A zero threshold turns the slow-op log into a full recent-op
            // log, so the deliberate slow op below is captured regardless
            // of how fast this machine is.
            slowlog_threshold: Duration::ZERO,
            ..ServerConfig::for_connections(4)
        },
    )
    .expect("bind");
    let addr = server.addr();

    let cfg = LoadGenConfig {
        connections: 2,
        duration_ms: 120,
        key_range: 512,
        value_size: ValueSize::Fixed(64),
        pipeline_depth: 8,
        ..LoadGenConfig::default()
    };
    let r = loadgen::run(addr, &cfg).expect("loadgen");
    assert!(r.total_ops > 0);
    assert_eq!(r.errors, 0);

    // The loadgen scraped the server's own latency view at end of run. Each
    // request's service time elapses inside the round trip of the batch
    // that carried it, so the server-side p99 must sit within the client's
    // worst batch RTT — plus the histogram's 6.25% bucket-rounding slack.
    let sl = r.server_latency.expect("telemetry is on by default");
    assert!(sl.count >= r.total_ops, "server counted at least the answered ops");
    assert!(sl.p50_ns > 0 && sl.p99_ns >= sl.p50_ns && sl.max_ns >= sl.p999_ns);
    assert!(
        sl.p99_ns <= r.latency.max() + r.latency.max() / 8,
        "server p99 {}ns outside the client envelope (worst batch RTT {}ns)",
        sl.p99_ns,
        r.latency.max(),
    );

    // A deliberately heavy operation: one MSET carrying ~1 MiB of payload.
    let mut c = Client::connect(addr).expect("connect");
    let big = vec![0xABu8; MAX_VALUE];
    let entries: Vec<(u64, &[u8])> = (1000..1015).map(|k| (k, big.as_slice())).collect();
    c.mset(&entries).expect("big MSET");

    // SLOWLOG captured it (newest entries first).
    assert!(c.slowlog_len().expect("len") > 0);
    let slow = c.slowlog_get().expect("slowlog");
    let entry = slow
        .lines()
        .find(|l| l.contains("family=mset"))
        .unwrap_or_else(|| panic!("big MSET missing from slowlog:\n{slow}"));
    assert!(entry.contains("key=1000"), "{entry}");
    assert!(
        entry.contains(&format!("bytes={}", 15 * MAX_VALUE)),
        "payload bytes recorded: {entry}"
    );
    c.slowlog_reset().expect("reset");
    // At threshold zero the RESET frame records *itself* after clearing the
    // rings, so exactly one entry survives its own reset.
    assert_eq!(c.slowlog_len().expect("len after reset"), 1);

    // INFO renders every section; the commands section agrees with the
    // client-side tally on reads (GET hits + misses == GETs answered).
    let info = c.info(None).expect("info");
    for header in ["# server", "# commands", "# latency", "# memory"] {
        assert!(info.contains(header), "INFO missing {header}");
    }
    let field = |name: &str| {
        info_field(&info, name).unwrap_or_else(|| panic!("missing {name} in INFO"))
    };
    assert_eq!(field("cmd_get_ops"), r.gets, "server GET count == client GETs answered");
    assert_eq!(
        field("cmd_get_hits") + field("cmd_get_misses"),
        r.gets,
        "every GET classified as a hit or a miss"
    );
    assert_eq!(field("cmd_get_hits"), r.hits, "hit counts agree across the wire");

    // METRICS is well-formed Prometheus text exposition with real samples.
    let metrics = c.metrics().expect("metrics");
    ascylib_telemetry::expo::validate(&metrics).expect("exposition validates");
    assert!(metrics.contains("ascy_request_duration_ns_bucket"), "{metrics}");
    assert!(metrics.contains("ascy_phase_duration_ns_bucket{phase=\"execute\""), "{metrics}");

    c.quit().expect("quit");
    server.join();
}

/// Closed-loop bursts of the paper's 10%-update mix over shards × pipeline
/// depth at 8 B values, and at 4 KiB values pipelined: every row serves
/// error-free traffic, and once the server is joined the arenas hold one
/// live blob per key, so every value an overwrite or delete displaced was
/// retired.
#[test]
fn closed_loop_bursts_are_error_free_and_retire_every_displaced_blob() {
    use ascylib_harness::{KeyDist, OpMix};
    use ascylib_server::loadgen::{self, LoadGenConfig, ValueSize};

    const KEYS: u64 = 2048;
    let rows = [(1, 1, 8), (1, 16, 8), (4, 1, 8), (4, 16, 8), (1, 16, 4096), (4, 16, 4096)];
    for (shards, depth, size) in rows {
        let map = Arc::new(BlobMap::new(shards, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(Arc::clone(&map)),
            ServerConfig::for_connections(CLIENTS),
        )
        .expect("bind");
        let value_size = ValueSize::Fixed(size);
        loadgen::prefill(server.addr(), KEYS, KEYS * 2, value_size, 0xF1613).expect("prefill");
        let cfg = LoadGenConfig {
            connections: CLIENTS,
            duration_ms: 60,
            mix: OpMix::update(10),
            dist: KeyDist::Uniform,
            key_range: KEYS * 2,
            value_size,
            pipeline_depth: depth,
            ..LoadGenConfig::default()
        };
        let r = loadgen::run(server.addr(), &cfg).expect("loadgen");
        let row = format!("{shards} shards, depth {depth}, {size} B values");
        assert_eq!(r.errors, 0, "{row}: well-formed traffic must not error");
        assert!(r.total_ops > 0, "{row}: the burst must serve traffic");
        server.join();
        let arena = map.total_arena_stats();
        assert_eq!(
            arena.live_blobs(),
            map.len() as u64,
            "{row}: update traffic must retire displaced blobs ({arena:?})"
        );
    }
}
