//! Figure 13 (extension): what moving real payloads costs — value size ×
//! sharding over loopback.
//!
//! The paper's elements are 64-bit `(key, value)` pairs; production KV
//! traffic moves kilobyte-class values, and at some size the bottleneck
//! migrates from synchronization and round trips to **payload movement**
//! (allocator traffic, memcpy, socket bandwidth). This bench sweeps value
//! size from 8 B to 4 KiB over 1 and 4 shards of a blob-valued Fraser skip
//! list served over loopback (closed-loop clients, pipeline depth 16, the
//! paper's 10%-update mix), reporting throughput *and* payload bandwidth:
//!
//! * small values: Mops/s tracks `fig12`'s depth-16 line — the wire and the
//!   structure dominate, bandwidth is noise;
//! * large values: Mops/s falls while MB/s climbs — the run is
//!   bandwidth-bound, and extra shards stop helping because the bottleneck
//!   is no longer the structure.
//!
//! Every row also exercises the blob arena under real churn (10% of ops
//! overwrite/delete, retiring blobs through the ssmem epochs). Emits
//! `BENCH_fig13_values.json` with one machine-readable row per
//! (value size × shards) config.

use std::sync::Arc;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_harness::report::{bandwidth_line, f2, write_json, Table};
use ascylib_harness::{bench_millis, KeyDist, OpMix};
use ascylib_server::loadgen::{self, LoadGenConfig};
use ascylib_server::{BlobStore, Server, ServerConfig, ValueSize};
use ascylib_shard::BlobMap;

const INITIAL_SIZE: u64 = 4096;
const UPDATE_PCT: u32 = 10;
const DEPTH: usize = 16;

fn connections() -> usize {
    (ascylib_harness::max_threads()).clamp(1, 4)
}

fn run_config(shards: usize, conns: usize, size: usize) -> loadgen::LoadGenResult {
    let map = Arc::new(BlobMap::new(shards, |_| FraserOptSkipList::new()));
    let server = Server::start(
        "127.0.0.1:0",
        BlobStore::ordered(Arc::clone(&map)),
        ServerConfig::for_connections(conns),
    )
    .expect("bind ephemeral port");
    let vsize = ValueSize::Fixed(size);
    loadgen::prefill(server.addr(), INITIAL_SIZE, INITIAL_SIZE * 2, vsize, 0xF1613)
        .expect("prefill over the wire");
    let cfg = LoadGenConfig {
        connections: conns,
        duration_ms: bench_millis(),
        mix: OpMix::update(UPDATE_PCT),
        dist: KeyDist::Uniform,
        key_range: INITIAL_SIZE * 2,
        value_size: vsize,
        pipeline_depth: DEPTH,
        ..LoadGenConfig::default()
    };
    let result = loadgen::run(server.addr(), &cfg).expect("loadgen run");
    // Overwrite/delete churn must leave one live blob per key: every
    // displaced blob was retired.
    let arena = map.total_arena_stats();
    assert_eq!(
        arena.live_blobs(),
        map.len() as u64,
        "update traffic must retire displaced blobs ({arena:?})"
    );
    server.join();
    result
}

fn json_row(size: usize, shards: usize, r: &loadgen::LoadGenResult) -> String {
    format!(
        concat!(
            "{{\"value_size\":{},\"shards\":{},\"total_ops\":{},\"mops\":{:.4},",
            "\"read_mbps\":{:.3},\"write_mbps\":{:.3},",
            "\"payload_bytes_read\":{},\"payload_bytes_written\":{},",
            "\"hit_rate\":{:.4},\"errors\":{},\"p50_rtt_ns\":{},\"p99_rtt_ns\":{}}}"
        ),
        size,
        shards,
        r.total_ops,
        r.mops,
        r.read_mbps(),
        r.write_mbps(),
        r.payload_bytes_read,
        r.payload_bytes_written,
        r.hit_rate(),
        r.errors,
        r.batch_rtt.p50,
        r.batch_rtt.p99,
    )
}

fn main() {
    let conns = connections();
    let mut table = Table::new(
        &format!(
            "Figure 13 — value size sweep over loopback, {conns} conns x depth {DEPTH}, \
             {UPDATE_PCT}% upd, N={INITIAL_SIZE}, fraser-opt blob shards"
        ),
        &[
            "value size",
            "shards",
            "Mops/s",
            "read MB/s",
            "write MB/s",
            "p50 RTT us",
            "p99 RTT us",
        ],
    );

    let mut json_rows = Vec::new();
    let mut last_line = String::new();
    for &size in &[8usize, 64, 512, 4096] {
        for &shards in &[1usize, 4] {
            let r = run_config(shards, conns, size);
            assert_eq!(r.errors, 0, "well-formed traffic must not error");
            assert!(r.total_ops > 0, "the burst must serve traffic");
            table.row(vec![
                format!("{size} B"),
                shards.to_string(),
                f2(r.mops),
                f2(r.read_mbps()),
                f2(r.write_mbps()),
                f2(r.batch_rtt.p50 as f64 / 1e3),
                f2(r.batch_rtt.p99 as f64 / 1e3),
            ]);
            json_rows.push(json_row(size, shards, &r));
            last_line = bandwidth_line(
                &format!("{size} B x {shards} shards"),
                r.payload_bytes_read,
                r.payload_bytes_written,
                r.elapsed,
            );
        }
    }

    table.print();
    print!("{last_line}");
    let _ = table.write_csv("fig13_values");
    let path = write_json("fig13_values", &format!("{{\"rows\":[{}]}}", json_rows.join(",")))
        .expect("write BENCH_fig13_values.json");
    println!("\nwrote {}", path.display());

    println!(
        "\nas values grow from 8 B to 4 KiB the op rate falls and payload MB/s climbs:\n\
         the serving bottleneck migrates from round trips and structure traversal to\n\
         payload movement — the regime real KV deployments operate in"
    );
}
