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
//! Every knob — its `ASCYLIB_*` variable, its flag where it has one, its
//! default and the forms it accepts — is in README's *Knobs* table:
//! `--mode`, `--conns` and `--dist` override their variables per run,
//! `--budget`/`--ttl` bound the `--self` server's cache tier, and
//! `--progress <secs>` prints a live status line to stderr that often while
//! the burst runs (ops so far, current ops/s, errors, and the interval's
//! latency quantiles). Latency runs from each operation's *intended* send
//! time: its batch's send time in closed loop, its scheduled arrival in
//! open loop, so server stalls surface in the open loop's tail percentiles.
//! A malformed value panics naming its flag or variable.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ascylib_harness::{bench_millis, knob, switch, KeyDist, OpMix};
use ascylib_server::client::info_field;
use ascylib_server::loadgen::{self, LoadGenConfig};
use ascylib_server::{
    BlobStore, Client, LoadMode, Server, ServerConfig, ServerHandle, ValueSize,
};
use ascylib_shard::cache::{parse_budget, parse_ttl, BUDGET_FORMS, TTL_FORMS};
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

/// A whole-number knob (see README's *Knobs* table).
fn count(names: &[&str], default: u64) -> u64 {
    knob(names, "a whole number", |s| s.parse().ok()).unwrap_or(default)
}

/// A YCSB preset (`a`, `b`, `c`, `e`) or an update percentage up to 100.
fn parse_mix(spec: &str) -> Option<(String, OpMix)> {
    let mix = match spec {
        "a" => OpMix::ycsb_a(),
        "b" => OpMix::ycsb_b(),
        "c" => OpMix::ycsb_c(),
        // YCSB-E needs an ordered store (the stock kv_server serves one).
        "e" => OpMix::ycsb_e(),
        pct => OpMix::update(pct.parse().ok().filter(|p| *p <= 100)?),
    };
    Some((spec.to_string(), mix))
}

fn main() {
    let conns = count(&["--conns", "ASCYLIB_CONNS"], 4) as usize;
    let mode = knob(&["--mode", "ASCYLIB_MODE"], LoadMode::FORMS, LoadMode::parse)
        .unwrap_or(LoadMode::Closed);
    let dist = knob(&["--dist", "ASCYLIB_DIST"], KeyDist::FORMS, KeyDist::parse)
        .unwrap_or(KeyDist::Zipfian { theta: 0.99 });
    let progress = knob(&["--progress"], "positive seconds", |secs| {
        let s: f64 = secs.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)?;
        Some(Duration::from_secs_f64(s))
    });
    let (mix_name, mix) = knob(&["ASCYLIB_MIX"], "a, b, c, e or an update % (0-100)", parse_mix)
        .unwrap_or_else(|| ("b".to_string(), OpMix::ycsb_b()));
    let values = knob(&["ASCYLIB_VALUES"], ValueSize::FORMS, ValueSize::parse)
        .unwrap_or(ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 });
    let prefill = count(&["ASCYLIB_PREFILL"], 4096);
    let depth = count(&["ASCYLIB_DEPTH"], 16) as usize;
    // `--self`: host an in-process server on an ephemeral port, so one
    // command exercises the whole serving stack (CI smoke test).
    let self_serve: Option<ServerHandle> = if switch("--self") {
        let cache = CacheConfig {
            budget_bytes: knob(&["--budget", "ASCYLIB_BUDGET"], BUDGET_FORMS, parse_budget)
                .flatten(),
            default_ttl_ms: knob(&["--ttl", "ASCYLIB_TTL"], TTL_FORMS, parse_ttl).flatten(),
            ..CacheConfig::unbounded()
        };
        let hot = knob(&["ASCYLIB_HOTKEYS"], "a front size k, 0 for none", |s| {
            s.trim().parse().ok().map(HotKeyConfig::with_k)
        });
        let policy = cache.describe();
        let map = Arc::new(BlobMap::with_config(4, hot.unwrap_or_default(), cache, |_| {
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
        None => {
            let resolve = |s: &str| s.to_socket_addrs().ok()?.next();
            knob(&["ASCYLIB_ADDR"], "a resolvable host:port", resolve)
                .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 7878)))
        }
    };

    let writes = mix.insert + mix.remove > 0;
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
        pipeline_depth: depth,
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
        "kv_loadgen: hit rate {}, {} scan keys returned, {} error replies",
        if r.gets == 0 { "n/a".to_string() } else { format!("{:.0}%", 100.0 * r.hit_rate()) },
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
