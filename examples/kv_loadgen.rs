//! Drives a `kv_server` with the load generator — closed-loop (pipelined
//! request/response) or open-loop (scheduled arrivals, coordinated-
//! omission-free latency) — moving real payload bytes.
//!
//! Start the server in one terminal, the load in another:
//!
//! ```text
//! $ cargo run --release --example kv_server
//! $ cargo run --release --example kv_loadgen
//! ```
//!
//! Or let the load generator host its own in-process server on an
//! ephemeral port (the CI smoke-test mode — no second terminal needed):
//!
//! ```text
//! $ cargo run --release --example kv_loadgen -- --self
//! ```
//!
//! Flags: `--mode closed|open:<rate>`, `--conns <n>`, and
//! `--dist uniform|zipf:<theta>|hotspot:<frac>:<prob>` override the
//! corresponding environment knobs per run; `--budget <spec>` and
//! `--ttl <spec>` (only meaningful with `--self`) bound the in-process
//! server's cache tier, overriding `ASCYLIB_BUDGET` / `ASCYLIB_TTL`; `--progress <secs>` prints a
//! live status line to stderr that often while the burst runs (ops so far,
//! current ops/s, errors, and the interval's latency quantiles) — the way
//! to watch a multi-minute run without waiting for the final report.
//!
//! Environment knobs:
//!
//! * `ASCYLIB_ADDR` — server address (default `127.0.0.1:7878`; ignored
//!   with `--self`);
//! * `ASCYLIB_MODE` — driving discipline: `closed` (default) or
//!   `open:<rate>` aggregate ops/s of Poisson arrivals. Latency runs from
//!   each operation's *intended* send time: its batch's send time in closed
//!   loop, its scheduled arrival in open loop, so server stalls surface in
//!   the open loop's tail percentiles;
//! * `ASCYLIB_CONNS` — concurrent connections (default 4; the event-driven
//!   server no longer caps capacity at its worker count);
//! * `ASCYLIB_BENCH_MILLIS` — burst duration (default 300);
//! * `ASCYLIB_DEPTH` — pipeline depth (default 16; 1 = strict
//!   request/response);
//! * `ASCYLIB_MIX` — `a`, `b`, `c`, `e` (YCSB presets) or an update
//!   percentage like `20` (default `b`);
//! * `ASCYLIB_DIST` — key distribution: `uniform`, `zipf:<theta>`, or
//!   `hotspot:<hot_fraction>:<hot_prob>` (default `zipf:0.99`, the YCSB
//!   skew);
//! * `ASCYLIB_VALUES` — value-size spec: `fixed:64` or `bimodal:16,256,10`
//!   (default `bimodal:16,256,10` — mostly-small values with a 256 B
//!   tail);
//! * `ASCYLIB_PREFILL` — keys to MSET before the burst (default 4096;
//!   0 skips);
//! * `ASCYLIB_BUDGET` / `ASCYLIB_TTL` — cache-tier byte budget
//!   (`64mb`, `512kb`, a bare count, `off`) and default TTL (`500ms`,
//!   `30s`, `5m`, `off`) for the `--self` server (default: both off).

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ascylib_harness::{arg_value, bench_millis, env_or, KeyDist, OpMix};
use ascylib_server::client::info_field;
use ascylib_server::loadgen::{self, LoadGenConfig};
use ascylib_server::{
    BlobStore, Client, LoadMode, Server, ServerConfig, ServerHandle, ValueSize,
};
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .unwrap_or_else(|e| panic!("cannot resolve {addr}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("{addr} resolved to nothing"))
}

fn mix_from_env() -> (String, OpMix) {
    let raw = std::env::var("ASCYLIB_MIX").unwrap_or_else(|_| "b".to_string());
    let mix = match raw.as_str() {
        "a" => OpMix::ycsb_a(),
        "b" => OpMix::ycsb_b(),
        "c" => OpMix::ycsb_c(),
        // YCSB-E needs an ordered store (the stock kv_server serves one).
        "e" => OpMix::ycsb_e(),
        pct => OpMix::update(pct.parse().unwrap_or(10)),
    };
    (raw, mix)
}

fn main() {
    let conns = arg_value("--conns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(env_or("ASCYLIB_CONNS", 4) as usize);
    let mode = match arg_value("--mode") {
        Some(spec) => LoadMode::parse(&spec)
            .unwrap_or_else(|| panic!("bad --mode spec {spec:?} (closed | open:<rate>)")),
        None => LoadMode::from_env(),
    };
    let dist = match arg_value("--dist") {
        Some(spec) => KeyDist::parse(&spec).unwrap_or_else(|| {
            panic!("bad --dist spec {spec:?} (uniform | zipf:<theta> | hotspot:<frac>:<prob>)")
        }),
        None => KeyDist::from_env(),
    };
    let progress = arg_value("--progress").map(|secs| {
        let s: f64 = secs
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| panic!("bad --progress interval {secs:?} (positive seconds)"));
        Duration::from_secs_f64(s)
    });
    // `--self`: host an in-process server on an ephemeral port, so one
    // command exercises the whole serving stack (CI smoke test).
    let self_serve: Option<ServerHandle> = if std::env::args().any(|a| a == "--self") {
        let cache =
            CacheConfig::resolve(arg_value("--budget").as_deref(), arg_value("--ttl").as_deref());
        let policy = cache.describe();
        let map = Arc::new(BlobMap::with_config(4, HotKeyConfig::from_env(), cache, |_| {
            ascylib::skiplist::FraserOptSkipList::new()
        }));
        let hotkeys = match map.hotkey_engine() {
            Some(engine) => format!("hot-key engine k={}", engine.k()),
            None => "hot-key engine off".to_string(),
        };
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig::for_connections(conns),
        )
        .expect("bind ephemeral self-serve port");
        println!(
            "kv_loadgen: self-serving a 4-shard blob skip list on {} ({hotkeys}, \
             cache tier: {policy})",
            server.addr()
        );
        Some(server)
    } else {
        None
    };
    let addr = match &self_serve {
        Some(server) => server.addr(),
        None => resolve(&std::env::var("ASCYLIB_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".into())),
    };

    let (mix_name, mix) = mix_from_env();
    let writes = mix.insert + mix.remove > 0;
    let values = ValueSize::from_env();
    let prefill = env_or("ASCYLIB_PREFILL", 4096);
    let key_range = (prefill * 2).max(1024);
    if prefill > 0 {
        let inserted = loadgen::prefill(addr, prefill, key_range, values, 0x10AD)
            .unwrap_or_else(|e| panic!("prefill against {addr} failed (is kv_server up?): {e}"));
        println!("kv_loadgen: prefilled {inserted} new keys (of {prefill} sent, {values} values)");
    }
    let cfg = LoadGenConfig {
        connections: conns,
        duration_ms: bench_millis(),
        mode,
        mix,
        dist,
        key_range,
        value_size: values,
        pipeline_depth: env_or("ASCYLIB_DEPTH", 16) as usize,
        progress,
        ..LoadGenConfig::default()
    };
    println!(
        "kv_loadgen: {} conns ({mode}) x depth {} against {addr}, mix={mix_name}, \
         {dist}, values={values}, {} ms",
        cfg.connections, cfg.pipeline_depth, cfg.duration_ms
    );
    let r = loadgen::run(addr, &cfg)
        .unwrap_or_else(|e| panic!("load run against {addr} failed: {e}"));
    println!(
        "kv_loadgen: {:.2} Mops/s ({} ops: {} get / {} set / {} del / {} scan)",
        r.mops, r.total_ops, r.gets, r.sets, r.dels, r.scans
    );
    println!(
        "kv_loadgen: hit rate {:.0}%, {} scan keys returned, {} error replies",
        100.0 * r.hit_rate(),
        r.scan_keys_returned,
        r.errors
    );
    println!(
        "kv_loadgen: payload read {:.2} MB/s ({} B), wrote {:.2} MB/s ({} B)",
        r.read_mbps(),
        r.payload_bytes_read,
        r.write_mbps(),
        r.payload_bytes_written
    );
    println!(
        "kv_loadgen: scheduled {} ops, answered {}, unanswered {}",
        r.scheduled_ops, r.total_ops, r.unanswered
    );
    let from = match mode {
        LoadMode::Closed => "batch send times",
        LoadMode::Open { .. } => "intended send times, CO-free",
    };
    println!(
        "kv_loadgen: latency p50={} p99={} p999={} max={} us (from {from}; p999 {})",
        r.latency.quantile(0.50) / 1000,
        r.latency.quantile(0.99) / 1000,
        r.latency.quantile(0.999) / 1000,
        r.latency.max() / 1000,
        if r.latency.count() >= 1000 { "resolved" } else { "under-sampled" }
    );
    // Client-side latency above includes the wire and the batching; the
    // server-side view (scraped from INFO latency after the burst) is
    // per-request service time alone.
    match r.server_latency {
        Some(sl) => println!(
            "kv_loadgen: server-side service time p50={} p99={} p999={} max={} ns \
             over {} requests",
            sl.p50_ns, sl.p99_ns, sl.p999_ns, sl.max_ns, sl.count
        ),
        None => println!("kv_loadgen: no server-side latency (scrape failed)"),
    }
    if let Some(server) = self_serve {
        // Scrape the hot-key section while the server is still up; the CI
        // skew smoke (`--self --dist zipf:1.2`) asserts the engine saw the
        // traffic it was built for, and that writes to fronted keys went
        // through their slot words.
        let mut probe = Client::connect(server.addr()).expect("hotkey probe connects");
        let hotkeys = probe.info(Some("hotkeys")).expect("INFO hotkeys");
        let _ = probe.quit();
        println!("kv_loadgen: INFO hotkeys ->");
        for line in hotkeys.lines().take(6) {
            println!("    {line}");
        }
        let field = |name: &str| info_field(&hotkeys, name).unwrap_or(0);
        if hotkeys.contains("hotkey_engine:on") {
            assert!(field("hotkey_sampled") > 0, "engine on but nothing sampled:\n{hotkeys}");
            if matches!(dist, KeyDist::Zipfian { theta } if theta >= 1.0) {
                assert!(
                    field("hotkey_promotions") > 0 && field("hotkey_front_hits") > 0,
                    "zipf({dist}) burst must promote and front-hit hot keys:\n{hotkeys}"
                );
                assert!(
                    !writes || field("hotkey_delegated") > 0,
                    "zipf({dist}) burst must write fronted keys through:\n{hotkeys}"
                );
            }
        }
        let stats = server.join();
        println!(
            "kv_loadgen: self-serve shutdown after {} conns, {} frames, {} errors",
            stats.connections, stats.frames, stats.errors
        );
        // Smoke-test contract: traffic was served, nothing errored, and
        // real payload bytes moved in both directions.
        assert!(r.total_ops > 0, "self-serve burst served nothing");
        assert_eq!(r.errors, 0, "self-serve burst must be error-free");
        assert!(
            r.payload_bytes_written > 0 && r.payload_bytes_read > 0,
            "self-serve burst must move payload bytes"
        );
    }
}
