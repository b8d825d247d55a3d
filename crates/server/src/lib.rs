//! # ascylib-server — the wire-protocol serving tier for ASCYLIB-RS
//!
//! Everything below the network boundary already exists in this workspace:
//! linearizable structures (`ascylib`), hash-routed sharding
//! (`ascylib-shard`), ordered range scans, and a workload engine
//! (`ascylib-harness`). This crate adds the layer real deployments are
//! measured at — a TCP server speaking a compact text protocol, driven by
//! real clients over sockets — using nothing but `std::net`:
//!
//! * [`protocol`] — the RESP-like frame codec (protocol **version 2**):
//!   `GET`/`SET`/`DEL` with binary-safe **bulk values** (`SET k <len>` +
//!   payload requests, `$<len>` + payload replies, bounded by
//!   [`protocol::MAX_VALUE`]), batched `MGET`/`MSET`, ordered `SCAN` with
//!   payloads, `PING`/`STATS`/`QUIT`; incremental push parsers that
//!   tolerate arbitrarily split reads and answer malformed frames —
//!   oversized values included — with in-band errors (never a panic,
//!   always resynchronizing). The full grammar lives in `PROTOCOL.md` at
//!   the repository root.
//! * [`store`] — the byte-valued [`KvStore`] keyspace interface and its
//!   adapter over [`ascylib_shard::BlobMap`] (per-shard ssmem value
//!   arenas, epoch-guarded copy-out reads, cross-shard merged scans):
//!   [`BlobStore::new`] over an ordered backing.
//! * `conn` (internal) — a nonblocking per-connection **state machine**
//!   (Reading → Executing → Writing → Closing) with request **pipelining**
//!   and write backpressure: every complete frame that arrived is executed
//!   and answered in order; a partial flush waits for writability and
//!   stops reading, so a peer that won't drain its replies cannot grow
//!   server buffers; `MGET` dispatches through the shard layer's batched
//!   `multi_get_into` (no per-batch result allocation).
//! * `report` (internal) — the scrape surfaces: one table with one row per
//!   metric, from which the `STATS` line, every `INFO` section and the
//!   `METRICS` exposition are rendered.
//! * [`server`] — the **event-driven** TCP tier: an acceptor deals
//!   connections round-robin to a small pool of workers, each with its own
//!   epoll/poll readiness loop (`vendor/polling`, persistent
//!   registrations), connection slab and idle sweep, so a connection is
//!   served from accept to close by one thread and no request takes a
//!   lock; per-worker cache-padded stats, graceful
//!   `QUIT`/shutdown draining, and ephemeral port support for tests.
//!   Thousands of concurrent connections per handful of worker threads.
//! * [`client`] — a blocking client with typed per-verb calls over `&[u8]`
//!   values and a [`Pipeline`] that turns `k` round trips into one.
//! * **Telemetry** (protocol verbs `INFO [section]`, `SLOWLOG
//!   GET|RESET|LEN`, `METRICS`, `MONITOR [sample_n]`; crate
//!   `ascylib-telemetry`) — always-on server-side observability:
//!   per-command-family lock-free latency histograms,
//!   parse/execute/flush phase timings, hit/miss counters, per-worker
//!   slow-op rings (tagged with worker and shard), and a Prometheus text
//!   exposition surface a scraper can point at the wire port directly.
//!   The `INFO concurrency` section puts the paper's structure-level
//!   coherence counters (CAS failures, restarts, nodes traversed) and
//!   the aggregated ssmem allocator totals on the wire, windowed
//!   telemetry turns cumulative counters into live rates (`ops_per_sec`,
//!   windowed p99) via a reader-rotated snapshot ring, and `MONITOR`
//!   subscribes a connection to a bounded, drop-counting stream of
//!   sampled per-request trace events with slow-consumer eviction.
//! * [`loadgen`] — a multi-connection load generator with one engine (up
//!   to four threads polling nonblocking connections) in two modes:
//!   **closed-loop** (a connection sends `pipeline_depth` requests whenever
//!   none is in flight) and **open-loop** ([`LoadMode::Open`]: Poisson
//!   scheduled arrivals, latency measured from the *intended* send time so
//!   queueing delay is charged to the server — no coordinated omission).
//!   Reuses the harness's [`OpMix`](ascylib_harness::OpMix) /
//!   [`KeyDist`](ascylib_harness::KeyDist) vocabulary plus a
//!   [`ValueSize`] payload-size axis (fixed / bimodal), and reports
//!   payload bandwidth (MB/s read and written) alongside a latency
//!   histogram per run.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ascylib::skiplist::FraserOptSkipList;
//! use ascylib_shard::BlobMap;
//! use ascylib_server::{BlobStore, Client, Server, ServerConfig};
//!
//! let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
//! let server =
//!     Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! client.set(7, b"seven hundred")?;
//! assert_eq!(client.get(7)?, Some(b"seven hundred".to_vec()));
//! client.quit()?;
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod loadgen;
mod monitor;
pub mod protocol;
mod report;
pub mod server;
pub mod stats;
pub mod store;

pub use ascylib_telemetry::{Family, Phase, SlowOp, TelemetrySnapshot};
pub use client::{Client, Pipeline};
pub use loadgen::{LoadGenConfig, LoadGenResult, LoadMode, ServerLatency, ValueSize};
pub use monitor::MonitorStats;
pub use protocol::{ParseError, Reply, Request, SlowlogCmd};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::{ConcurrencySnapshot, ServerStatsSnapshot};
pub use store::{BlobOrderedStore, BlobStore, KvStore};
