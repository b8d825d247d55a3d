//! Figure 12 (extension): what the network boundary costs — and what
//! pipelining buys back.
//!
//! The paper's figures (and `fig10_sharding`) measure structures
//! *in-process*: the caller and the structure share an address space, and an
//! operation costs a traversal. A serving deployment pays two more taxes —
//! the wire codec and the round trip — so this bench replays the paper's
//! 10%-update workload three ways on the same sharded `fraser-opt` skip
//! list (1, 2, and 4 shards):
//!
//! 1. **in-process** — the harness drives the `ShardedMap` directly
//!    (upper bound: zero serving overhead);
//! 2. **loopback, depth 1** — closed-loop clients over TCP, one request in
//!    flight per connection (lower bound: every operation pays a full
//!    round trip);
//! 3. **loopback, depth 16** — the same clients pipelining 16 frames per
//!    round trip, the serving tier's answer to the RTT tax.
//!
//! The headline number is the **pipelining speedup** (depth 16 vs depth 1):
//! it should approach an order of magnitude on loopback, because the
//! round trip — not the structure — dominates the unpipelined config. The
//! in-process panel is also emitted as `BENCH_fig12_server.json`
//! (machine-readable trajectory, `report::to_json`).

use std::sync::Arc;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_harness::report::{f2, to_json, write_json, Table};
use ascylib_harness::{bench_millis, run_benchmark, KeyDist, OpMix, WorkloadBuilder};
use ascylib_server::loadgen::{self, LoadGenConfig};
use ascylib_server::{BlobStore, Server, ServerConfig, ValueSize};
use ascylib_shard::{BlobMap, ShardedMap};

const INITIAL_SIZE: usize = 8192;
const UPDATE_PCT: u32 = 10;

/// Loopback values are 8 bytes — the size of the `u64` the in-process
/// panel moves — so the three panels differ only in the serving path, not
/// in payload volume.
const VALUE_SIZE: ValueSize = ValueSize::Fixed(8);

fn connections() -> usize {
    (ascylib_harness::max_threads()).clamp(1, 4)
}

/// In-process baseline: the harness drives a sharded skip list of raw `u64`
/// values directly (upper bound: zero serving overhead, no blob layer).
fn run_in_process(shards: usize, threads: usize) -> ascylib_harness::BenchmarkResult {
    let map = Arc::new(ShardedMap::new(shards, |_| FraserOptSkipList::new()));
    let w = WorkloadBuilder::new()
        .initial_size(INITIAL_SIZE)
        .update_percent(UPDATE_PCT)
        .threads(threads)
        .duration_ms(bench_millis())
        .build();
    run_benchmark(map, w)
}

/// Over-loopback: start a server over a blob-valued sharded skip list on an
/// ephemeral port, prefill over the wire, drive it with the closed-loop
/// load generator.
fn run_loopback(shards: usize, conns: usize, depth: usize) -> loadgen::LoadGenResult {
    let map = Arc::new(BlobMap::new(shards, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::new(map),
        ServerConfig::for_connections(conns),
    )
    .expect("bind ephemeral port");
    loadgen::prefill(
        server.addr(),
        INITIAL_SIZE as u64,
        INITIAL_SIZE as u64 * 2,
        VALUE_SIZE,
        0xF1612,
    )
    .expect("prefill over the wire");
    let cfg = LoadGenConfig {
        connections: conns,
        duration_ms: bench_millis(),
        mix: OpMix::update(UPDATE_PCT),
        dist: KeyDist::Uniform,
        key_range: INITIAL_SIZE as u64 * 2,
        value_size: VALUE_SIZE,
        pipeline_depth: depth,
        ..LoadGenConfig::default()
    };
    let result = loadgen::run(server.addr(), &cfg).expect("loadgen run");
    server.join();
    result
}

fn main() {
    let conns = connections();
    let mut table = Table::new(
        &format!(
            "Figure 12 — serving tier over loopback vs in-process, {conns} conns/threads, \
             {UPDATE_PCT}% upd, N={INITIAL_SIZE}"
        ),
        &[
            "shards",
            "in-process Mops/s",
            "loopback d=1 Mops/s",
            "loopback d=16 Mops/s",
            "pipelining speedup",
            "net tax (d=16)",
            "d=1 p50 RTT us",
            "d=16 p50 RTT us",
        ],
    );

    let mut json_rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let inproc = run_in_process(shards, conns);
        let unpipelined = run_loopback(shards, conns, 1);
        let pipelined = run_loopback(shards, conns, 16);
        assert_eq!(unpipelined.errors, 0, "well-formed traffic must not error");
        assert_eq!(pipelined.errors, 0, "well-formed traffic must not error");
        table.row(vec![
            shards.to_string(),
            f2(inproc.mops),
            f2(unpipelined.mops),
            f2(pipelined.mops),
            f2(pipelined.mops / unpipelined.mops.max(f64::MIN_POSITIVE)),
            f2(inproc.mops / pipelined.mops.max(f64::MIN_POSITIVE)),
            f2(unpipelined.batch_rtt.p50 as f64 / 1e3),
            f2(pipelined.batch_rtt.p50 as f64 / 1e3),
        ]);
        json_rows.push(format!("\"shards_{shards}\":{}", to_json(&inproc)));
    }

    table.print();
    let _ = table.write_csv("fig12_server");
    // Machine-readable trajectory of the in-process panel (the loopback
    // panels live in the CSV; BenchmarkResult is the stable JSON schema).
    let _ = write_json("fig12_server", &format!("{{{}}}", json_rows.join(",")));

    println!(
        "\npipelining turns {} round trips into one; on loopback the RTT dominates,\n\
         so depth-16 throughput should sit close to the in-process line while\n\
         depth-1 throughput is RTT-bound regardless of shard count",
        16
    );
}
