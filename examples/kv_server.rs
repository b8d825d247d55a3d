//! A standalone key-value server speaking the ASCY wire protocol (v2:
//! binary bulk values).
//!
//! Serves a blob-valued sharded Fraser skip list (ordered, so `SCAN`
//! works; values are arbitrary byte strings up to 64 KiB stored in
//! per-shard ssmem arenas). Two modes:
//!
//! * **serve** (default): bind `ASCYLIB_ADDR` (default `127.0.0.1:7878`)
//!   and serve until killed (or for `ASCYLIB_SERVE_MILLIS` milliseconds if
//!   set — handy for scripted runs). Drive it with
//!   `cargo run --release --example kv_loadgen`, or by hand:
//!
//!   ```text
//!   $ nc 127.0.0.1 7878
//!   SET 7 5
//!   hello
//!   :1
//!   GET 7
//!   $5
//!   hello
//!   SCAN 1 4
//!   *1
//!   =7 5
//!   hello
//!   QUIT
//!   +BYE
//!   ```
//!
//! * **`--demo`**: bind an ephemeral port, run the in-process closed-loop
//!   load generator against it for a short burst (pipelined and
//!   unpipelined), print both reports — payload bandwidth included — then
//!   scrape the observability surfaces (`INFO
//!   latency`/`commands`/`concurrency`/`memory`, `METRICS`, `SLOWLOG`, the
//!   threshold forced to zero so the slow log fills), wait out one
//!   telemetry window so the second scrape carries live rates, and run a
//!   2-second `MONITOR` watch that must see at least one trace event
//!   before its subscriber disconnects cleanly. Exits non-zero if the
//!   burst served nothing or a scrape fails to validate — CI uses this as
//!   the serving smoke test.
//!
//! Environment: `ASCYLIB_ADDR`, `ASCYLIB_SHARDS` (default 4),
//! `ASCYLIB_WORKERS` (default 8; the event-driven tier serves any number
//! of connections on them), `ASCYLIB_IDLE_MS` (idle-connection eviction
//! timeout, default 60000; 0 disables), `ASCYLIB_SLOW_US` (slow-op log
//! threshold in microseconds, default 10000; serve mode only — the demo
//! pins it to 0), `ASCYLIB_SERVE_MILLIS` (0 = forever),
//! `ASCYLIB_BENCH_MILLIS` (demo burst length, default 300),
//! `ASCYLIB_VALUES` (value-size spec: `fixed:64`, `uniform:16,4096`, or
//! `bimodal:16,256,10`; demo default `bimodal:16,256,10`),
//! `ASCYLIB_HOTKEYS` (hot-key engine front-cache size `k`, default 16;
//! 0 disables the engine), `ASCYLIB_DIST` (demo key distribution:
//! `uniform`, `zipf:<theta>`, or `hotspot:<frac>:<prob>`; default
//! `zipf:0.99`), `ASCYLIB_BUDGET` (cache-tier byte budget: `64mb`,
//! `512kb`, a bare byte count, or `off`; default unbounded — the demo
//! applies 256 KiB if nothing is set so eviction is observable), and
//! `ASCYLIB_TTL` (default TTL stamped on plain `SET`s: `500ms`, `30s`,
//! `5m`, `2h`, or `off`; default none). The `--budget <spec>` and
//! `--ttl <spec>` flags override the corresponding variables per run.

use std::sync::Arc;
use std::time::Duration;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_harness::{arg_value, bench_millis, env_or, KeyDist, OpMix};
use ascylib_server::client::info_field;
use ascylib_server::loadgen::{self, LoadGenConfig, LoadGenResult};
use ascylib_server::{BlobStore, Client, Server, ServerConfig, ServerHandle, ValueSize};
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

fn start(
    addr: &str,
    shards: usize,
    workers: usize,
    slowlog: Duration,
    cache: CacheConfig,
) -> ServerHandle {
    let hot = HotKeyConfig::from_env();
    let policy = cache.describe();
    let map = Arc::new(BlobMap::with_config(shards, hot, cache, |_| FraserOptSkipList::new()));
    let hotkeys = match map.hotkey_engine() {
        Some(engine) => format!("hot-key engine k={}", engine.k()),
        None => "hot-key engine off".to_string(),
    };
    let idle_timeout = match env_or("ASCYLIB_IDLE_MS", 60_000) {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    let config = ServerConfig {
        workers,
        idle_timeout,
        slowlog_threshold: slowlog,
        ..ServerConfig::default()
    };
    let server = Server::start(addr, BlobStore::ordered(map), config)
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!(
        "kv_server: serving {shards}-shard blob-valued fraser-opt skip list on {} \
         ({workers} workers, event-driven, {hotkeys}, cache tier: {policy}, \
         idle timeout {:?})",
        server.addr(),
        config.idle_timeout
    );
    server
}

fn print_result(label: &str, r: &LoadGenResult) {
    println!(
        "{label:>14}: {:.2} Mops/s  ({} ops: {} get / {} set / {} del / {} scan, \
         hit rate {:.0}%, p50 rtt {:.1} us, p99 {:.1} us)",
        r.mops,
        r.total_ops,
        r.gets,
        r.sets,
        r.dels,
        r.scans,
        100.0 * r.hit_rate(),
        r.batch_rtt.p50 as f64 / 1e3,
        r.batch_rtt.p99 as f64 / 1e3,
    );
    println!(
        "{:>14}  payload: read {:.2} MB/s, wrote {:.2} MB/s",
        "", r.read_mbps(), r.write_mbps()
    );
}

fn demo(shards: usize, workers: usize, cache: CacheConfig) {
    // The demo is also the CI smoke test for the cache tier, so it needs a
    // budget small enough that its churn burst visibly evicts: apply a
    // 256 KiB default when neither the environment nor the flags set one.
    let cache = if cache.budget_bytes.is_none() { cache.with_budget(256 * 1024) } else { cache };
    // Threshold zero so the burst is guaranteed to populate the slow-op
    // log — the demo shows the mechanism, not a tuned production cutoff.
    let server = start("127.0.0.1:0", shards, workers, Duration::ZERO, cache);
    let addr = server.addr();
    let key_range = 8192u64;
    let vsize = ValueSize::from_env();
    let inserted =
        loadgen::prefill(addr, key_range / 2, key_range, vsize, 0xDE30).expect("prefill");
    println!("kv_server: prefilled {inserted} keys over the wire ({vsize} values)");

    // YCSB-B-flavoured point mix plus a dash of scans, skewed keys — the
    // full protocol surface in one burst.
    let mix = OpMix { read: 85, insert: 5, remove: 5, scan: 5, scan_len: 16 };
    let dist = KeyDist::from_env();
    println!("kv_server: demo key distribution {dist}");
    let base = LoadGenConfig {
        connections: 4,
        duration_ms: bench_millis(),
        mix,
        dist,
        key_range,
        value_size: vsize,
        pipeline_depth: 1,
        ..LoadGenConfig::default()
    };
    let unpipelined = loadgen::run(addr, &base).expect("unpipelined burst");
    print_result("depth 1", &unpipelined);
    let pipelined =
        loadgen::run(addr, &LoadGenConfig { pipeline_depth: 16, ..base }).expect("pipelined burst");
    print_result("depth 16", &pipelined);
    println!(
        "{:>14}  {:.2}x",
        "pipelining:",
        pipelined.mops / unpipelined.mops.max(f64::MIN_POSITIVE)
    );
    if let Some(sl) = pipelined.server_latency {
        println!(
            "{:>14}  server-side service time: p50 {} ns, p99 {} ns, max {} ns over {} requests",
            "", sl.p50_ns, sl.p99_ns, sl.max_ns, sl.count
        );
    }

    // The observability surfaces, scraped over the same wire protocol the
    // data path uses (see PROTOCOL.md and README "Observing a running
    // server").
    let mut probe = Client::connect(addr).expect("observability probe connects");
    let latency = probe.info(Some("latency")).expect("INFO latency");
    let commands = probe.info(Some("commands")).expect("INFO commands");
    println!("kv_server: INFO latency ->");
    for line in latency.lines().take(8) {
        println!("    {line}");
    }
    println!("kv_server: INFO commands ->");
    for line in commands.lines().filter(|l| l.contains("_ops:")) {
        println!("    {line}");
    }
    let hotkeys = probe.info(Some("hotkeys")).expect("INFO hotkeys");
    println!("kv_server: INFO hotkeys ->");
    for line in hotkeys.lines().take(8) {
        println!("    {line}");
    }
    // Structure-level concurrency counters (paper §4: coherence traffic is
    // what scalability is made of) and the ssmem allocator totals, both on
    // the wire now.
    let concurrency = probe.info(Some("concurrency")).expect("INFO concurrency");
    println!("kv_server: INFO concurrency ->");
    for line in concurrency.lines().take(13) {
        println!("    {line}");
    }
    let memory = probe.info(Some("memory")).expect("INFO memory");
    // Two scrapes far enough apart rotate the telemetry window, so the
    // second one carries live rates (ops_per_sec and friends).
    std::thread::sleep(Duration::from_millis(1_200));
    let concurrency2 = probe.info(Some("concurrency")).expect("second INFO concurrency");
    for line in concurrency2.lines().filter(|l| l.contains("per_sec")).take(3) {
        println!("    {line}");
    }
    let metrics = probe.metrics().expect("METRICS");
    ascylib_telemetry::expo::validate(&metrics).expect("METRICS body is valid exposition text");
    println!(
        "kv_server: METRICS -> {} lines of valid Prometheus text exposition",
        metrics.lines().count()
    );
    let slow_len = probe.slowlog_len().expect("SLOWLOG LEN");
    let slowlog = probe.slowlog_get().expect("SLOWLOG GET");
    println!("kv_server: SLOWLOG -> {slow_len} ops at/over threshold; most recent:");
    for line in slowlog.lines().take(3) {
        println!("    {line}");
    }
    probe.quit().expect("probe quits");

    // MONITOR smoke: one connection subscribes to the live trace stream,
    // another drives traffic, and at least one sampled event must arrive
    // within a 2-second watch before the subscriber disconnects cleanly.
    let mut watcher = Client::connect(addr).expect("monitor subscriber connects");
    watcher.monitor(None).expect("MONITOR subscribes");
    watcher.set_timeout(Some(Duration::from_millis(100))).expect("watch timeout");
    let mut feeder = Client::connect(addr).expect("monitor feeder connects");
    let watch_deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut trace = None;
    let mut fed = 0u64;
    while trace.is_none() && std::time::Instant::now() < watch_deadline {
        for k in 1..=64u64 {
            feeder.set(k, b"monitored").expect("feeder SET");
            fed += 1;
        }
        match watcher.monitor_next() {
            Ok(line) => trace = Some(line),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("monitor stream failed: {e}"),
        }
    }
    let trace = trace.expect("a 2-second MONITOR watch must see at least one event");
    println!("kv_server: MONITOR -> {trace} (after {fed} fed ops)");
    watcher.set_timeout(None).expect("clear watch timeout");
    feeder.quit().expect("feeder quits");
    watcher.quit().expect("monitor subscriber disconnects cleanly");
    let mut after = Client::connect(addr).expect("post-monitor probe connects");
    after.ping().expect("server stays live after the monitor watch");
    after.quit().expect("post-monitor probe quits");

    // Cache-tier churn burst: write far past the byte budget, lease a key,
    // then scrape the cache surfaces while the evictions are fresh.
    let mut churn = Client::connect(addr).expect("cache churn connects");
    let payload = vec![0x5A; 256];
    for k in 1..=4096u64 {
        churn.set(k, &payload).expect("churn SET");
    }
    churn.set_ex(4097, b"leased", 60).expect("churn SETEX");
    let lease = churn.ttl(4097).expect("churn TTL");
    assert!(
        matches!(lease, Some(Some(1..=60))),
        "a fresh 60 s lease must count down from 60, got {lease:?}"
    );
    let cache_info = churn.info(Some("cache")).expect("INFO cache");
    println!("kv_server: INFO cache (after a 1 MiB churn burst) ->");
    for line in cache_info.lines().take(12) {
        println!("    {line}");
    }
    let cache_metrics = churn.metrics().expect("METRICS after churn");
    ascylib_telemetry::expo::validate(&cache_metrics).expect("post-churn METRICS validates");
    churn.quit().expect("churn client quits");

    let stats = server.join();
    println!(
        "kv_server: clean shutdown after {} conns, {} frames, {} ops, {} errors",
        stats.connections, stats.frames, stats.ops, stats.errors
    );
    // The demo doubles as the CI smoke test: a silent zero-op "success"
    // must fail loudly.
    assert!(unpipelined.total_ops > 0, "unpipelined burst served nothing");
    assert!(pipelined.total_ops > 0, "pipelined burst served nothing");
    assert_eq!(unpipelined.errors + pipelined.errors, 0, "bursts must be error-free");
    assert!(
        pipelined.payload_bytes_written > 0 && pipelined.payload_bytes_read > 0,
        "the burst must move real payload bytes"
    );
    assert!(stats.frames > 0 && stats.connections > 0);
    // Observability contract: the latency section reflects the burst, and
    // with a zero threshold the slow log cannot be empty.
    assert!(
        pipelined.server_latency.is_some_and(|sl| sl.count > 0),
        "server-side latency must be scraped after the burst"
    );
    assert!(latency.contains("request_p99_ns:"), "INFO latency must expose percentiles");
    assert!(slow_len > 0, "zero-threshold slow log must capture ops");
    // The stock demo server carries the hot-key engine (ASCYLIB_HOTKEYS=0
    // turns it off); either way the INFO section must say which.
    assert!(
        hotkeys.contains("hotkey_engine:on") || hotkeys.contains("hotkey_engine:off"),
        "INFO hotkeys must report the engine state"
    );
    // Coherence counters must have registered the burst, the ssmem totals
    // must be on the wire, and the second scrape's rotated window must
    // carry live rates.
    assert!(
        info_field(&concurrency, "coherence_operations").unwrap_or(0) > 0,
        "the burst must register structure-level operations:\n{concurrency}"
    );
    assert!(
        memory.contains("ssmem_allocations:") && memory.contains("ssmem_pending:"),
        "INFO memory must carry the ssmem allocator totals:\n{memory}"
    );
    assert!(
        concurrency2.contains("ops_per_sec:"),
        "a rotated window must render live rates:\n{concurrency2}"
    );
    assert!(
        metrics.contains("ascy_coherence_operations_total")
            && metrics.contains("ascy_ssmem_allocations_total")
            && metrics.contains("ascy_monitor_subscribers"),
        "METRICS must export the coherence, ssmem, and monitor families"
    );
    // Cache-tier contract after the churn burst: the budget held, the
    // eviction counter moved, and the families reached the exporter.
    assert!(
        cache_info.contains("cache_budget:on"),
        "the demo store must carry a bounded cache tier:\n{cache_info}"
    );
    let budget = info_field(&cache_info, "cache_budget_bytes").unwrap_or(0);
    let live = info_field(&cache_info, "cache_live_bytes").unwrap_or(u64::MAX);
    assert!(budget > 0 && live <= budget, "budget gauges incoherent:\n{cache_info}");
    assert!(
        info_field(&cache_info, "cache_evictions").unwrap_or(0) > 0,
        "a 1 MiB churn against a 256 KiB budget must evict:\n{cache_info}"
    );
    assert!(
        info_field(&cache_info, "cache_ttl_live").unwrap_or(0) > 0,
        "the leased key must register on the TTL gauge:\n{cache_info}"
    );
    assert!(
        cache_metrics.contains("ascy_cache_evictions_total")
            && cache_metrics.contains("ascy_cache_budget_bytes")
            && cache_metrics.contains("ascy_cache_live_bytes"),
        "METRICS must export the cache families after the churn"
    );
}

fn main() {
    let shards = env_or("ASCYLIB_SHARDS", 4) as usize;
    let workers = env_or("ASCYLIB_WORKERS", 8) as usize;
    let cache = CacheConfig::resolve(arg_value("--budget").as_deref(), arg_value("--ttl").as_deref());
    if std::env::args().any(|a| a == "--demo") {
        demo(shards, workers, cache);
        return;
    }

    let addr = std::env::var("ASCYLIB_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let slowlog = Duration::from_micros(env_or("ASCYLIB_SLOW_US", 10_000));
    let server = start(&addr, shards, workers, slowlog, cache);
    println!(
        "kv_server: protocol GET/SET/DEL/MGET/MSET/SCAN/PING/STATS/QUIT with bulk values, \
         expiry via SET .. EX / EXPIRE / TTL / PERSIST, \
         plus INFO/SLOWLOG/METRICS observability (see PROTOCOL.md);\n\
         kv_server: drive with `cargo run --release --example kv_loadgen` or `nc {}`",
        server.addr()
    );
    let serve_millis = env_or("ASCYLIB_SERVE_MILLIS", 0);
    if serve_millis == 0 {
        // Serve until killed. The acceptor and workers own their threads;
        // park the main thread forever.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(serve_millis));
    let stats = server.join();
    println!(
        "kv_server: served {} conns / {} frames / {} ops in {serve_millis} ms",
        stats.connections, stats.frames, stats.ops
    );
}
