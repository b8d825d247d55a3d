//! Figure 14 (extension): connection-count sweep under open-loop load —
//! the event-driven tier's scaling axis.
//!
//! The thread-per-connection design died at `workers` concurrent clients;
//! the event-driven refactor decouples connections from threads. This
//! bench holds the *offered load* fixed (`ASCYLIB_RATE` ops/s aggregate,
//! Poisson arrivals by default) and sweeps how many connections that load
//! is spread across — 10 → 10,000 — against one loopback server. Because
//! the load generator is **open-loop**, every operation's latency is
//! measured from its *intended* send time: if the server (or its event
//! loop) stalls as connections pile up, the stall lands in the reported
//! tail percentiles instead of silently vanishing into a slowed-down
//! client (coordinated omission).
//!
//! What to look for:
//!
//! * throughput pinned at the offered rate across the whole sweep — the
//!   readiness loop really does hold thousands of mostly-idle connections
//!   for free;
//! * p50 flat, tails (p999/p9999) growing only modestly with connection
//!   count — dispatch cost, not head-of-line blocking;
//! * `unanswered` ≈ 0 — nothing scheduled was abandoned.
//!
//! The sweep is capped by `RLIMIT_NOFILE` (each connection costs a client
//! *and* a server descriptor) and by `ASCYLIB_MAX_CONNS`. Short default
//! bursts leave p999 under-resolved (the JSON flags resolution); raise
//! `ASCYLIB_BENCH_MILLIS` and/or `ASCYLIB_RATE` for publication-grade
//! tails. Emits `BENCH_fig14_connections.json` with one row per
//! connection count.

use std::sync::Arc;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_harness::report::{f2, write_json, Table};
use ascylib_harness::{bench_millis, env_or, KeyDist, OpMix};
use ascylib_server::loadgen::{self, Arrival, LoadGenConfig, LoadMode};
use ascylib_server::{BlobStore, Server, ServerConfig, ValueSize};
use ascylib_shard::BlobMap;

const INITIAL_SIZE: u64 = 4096;
const UPDATE_PCT: u32 = 10;
const VALUE_BYTES: usize = 64;

/// The sweep, capped so client + server descriptors fit the fd limit with
/// headroom for listeners, pollers, and the runtime's own files.
fn sweep() -> Vec<usize> {
    let _ = polling::raise_fd_limit();
    let fd_cap = match polling::fd_limit() {
        Ok((soft, _hard)) => ((soft.saturating_sub(256)) / 2) as usize,
        Err(_) => 1024,
    };
    let user_cap = env_or("ASCYLIB_MAX_CONNS", 10_000) as usize;
    let cap = fd_cap.min(user_cap).max(1);
    let mut points: Vec<usize> =
        [10usize, 100, 1_000, 10_000].iter().copied().filter(|&c| c <= cap).collect();
    if points.is_empty() || *points.last().unwrap() < cap.min(10_000) {
        points.push(cap.min(10_000));
    }
    points.dedup();
    points
}

fn run_config(conns: usize, rate: f64) -> loadgen::LoadGenResult {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::ordered(map),
        ServerConfig::for_connections(conns),
    )
    .expect("bind ephemeral port");
    loadgen::prefill(
        server.addr(),
        INITIAL_SIZE,
        INITIAL_SIZE * 2,
        ValueSize::Fixed(VALUE_BYTES),
        0xF1614,
    )
    .expect("prefill over the wire");
    let cfg = LoadGenConfig {
        connections: conns,
        duration_ms: bench_millis(),
        mode: LoadMode::Open { rate, arrival: Arrival::Poisson },
        mix: OpMix::update(UPDATE_PCT),
        dist: KeyDist::Uniform,
        key_range: INITIAL_SIZE * 2,
        value_size: ValueSize::Fixed(VALUE_BYTES),
        ..LoadGenConfig::default()
    };
    let result = loadgen::run(server.addr(), &cfg).expect("open-loop run");
    let stats = server.join();
    assert_eq!(stats.curr_connections, 0, "shutdown drains the gauge");
    assert!(stats.accepted > conns as u64, "every connection (and prefill) accepted");
    result
}

fn json_row(conns: usize, rate: f64, r: &loadgen::LoadGenResult) -> String {
    format!(
        concat!(
            "{{\"connections\":{},\"offered_rate\":{:.1},\"scheduled_ops\":{},",
            "\"answered_ops\":{},\"unanswered\":{},\"errors\":{},\"throughput\":{:.1},",
            "\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"p9999_ns\":{},\"max_ns\":{},",
            "\"p999_resolved\":{},\"p9999_resolved\":{}}}"
        ),
        conns,
        rate,
        r.scheduled_ops,
        r.total_ops,
        r.unanswered,
        r.errors,
        r.throughput,
        r.latency.p50,
        r.latency.p99,
        r.latency.p999,
        r.latency.p9999,
        r.latency.max,
        r.latency.resolves(0.999),
        r.latency.resolves(0.9999),
    )
}

fn main() {
    let rate = env_or("ASCYLIB_RATE", 4_000) as f64;
    let points = sweep();
    let mut table = Table::new(
        &format!(
            "Figure 14 — connection sweep at a fixed open-loop rate ({rate:.0} ops/s \
             poisson, {UPDATE_PCT}% upd, {VALUE_BYTES} B values, N={INITIAL_SIZE}, \
             CO-free latency from intended send times)"
        ),
        &["conns", "sched", "answered", "unans", "ops/s", "p50 us", "p99 us", "p999 us", "max us"],
    );

    let mut json_rows = Vec::new();
    for &conns in &points {
        let r = run_config(conns, rate);
        assert_eq!(r.errors, 0, "well-formed traffic must not error");
        assert!(r.total_ops > 0, "the open-loop burst must serve traffic");
        assert_eq!(
            r.total_ops + r.unanswered,
            r.scheduled_ops,
            "every scheduled op accounted for"
        );
        table.row(vec![
            conns.to_string(),
            r.scheduled_ops.to_string(),
            r.total_ops.to_string(),
            r.unanswered.to_string(),
            format!("{:.0}", r.throughput),
            f2(r.latency.p50 as f64 / 1e3),
            f2(r.latency.p99 as f64 / 1e3),
            f2(r.latency.p999 as f64 / 1e3),
            f2(r.latency.max as f64 / 1e3),
        ]);
        json_rows.push(json_row(conns, rate, &r));
    }

    table.print();
    let _ = table.write_csv("fig14_connections");
    let path = write_json(
        "fig14_connections",
        &format!("{{\"rows\":[{}]}}", json_rows.join(",")),
    )
    .expect("write BENCH_fig14_connections.json");
    println!("\nwrote {}", path.display());

    println!(
        "\nthe offered rate is fixed while connections grow 1000x: a readiness loop over\n\
         a small worker pool holds the throughput line, and open-loop (intended-send-time)\n\
         measurement keeps the latency tails honest while it does so"
    );
}
