//! A multi-connection load generator for the wire protocol, with payload
//! generation, in two driving disciplines on one engine.
//!
//! Replays the harness's workload vocabulary — any
//! [`OpMix`] (YCSB A–E presets included) under any
//! [`KeyDist`] (uniform / Zipfian / hotspot) — over real sockets, with a
//! **value-size axis**: every `SET` carries a payload drawn from a
//! [`ValueSize`] distribution (fixed, or bimodal — the classic "mostly
//! small values, a tail of big ones" production shape), generated with
//! `Rng::fill_bytes`, so the measured traffic moves real bytes, not just
//! 64-bit tokens.
//!
//! Both disciplines run on one driver: up to four threads, each polling its
//! share of the nonblocking connections. They differ only in when a
//! connection encodes requests, and so in what a latency is measured from.
//!
//! **Closed loop** ([`LoadMode::Closed`]): a connection encodes
//! `pipeline_depth` requests whenever none of its requests is in flight,
//! so measured throughput is bounded by round trips (depth 1) or by server
//! capacity (deep pipelines). Each operation's latency runs from when its
//! batch was sent, so the largest one is the worst batch round trip. A
//! closed loop self-throttles: when the server slows down, the clients
//! slow down with it — which also means its latency numbers silently
//! *exclude* the queueing delay a real open population would have suffered
//! (coordinated omission).
//!
//! **Open loop** ([`LoadMode::Open`]): requests arrive on a Poisson
//! schedule independent of how fast the server answers, and every
//! operation's latency is measured from its **intended send time**, not
//! from when the socket finally accepted it. If the server stalls for
//! 100 ms, the operations scheduled during the stall each record their full
//! queueing delay, exactly as a real user would have experienced it. This
//! is the discipline that makes tail percentiles (p999/p9999) honest.
//!
//! Every reply lands in its driver's one block: a [`Histogram`] of
//! latencies beside plain op, error and payload counts, all written by that
//! driver alone. The [`LoadGenResult`] merges the blocks after the run, and
//! the [`progress`](LoadGenConfig::progress) printer reads the same blocks
//! while it goes.
//!
//! Alongside operation throughput and latency percentiles, the result
//! reports **payload bandwidth**: bytes of values written (`SET` payloads
//! sent) and read (`GET` hits and `SCAN` pairs received), as MB/s — the
//! number that shows when a workload stops being latency-bound and starts
//! being memory/bandwidth-bound.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use polling::{Events, Interest, Poller};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use ascylib_harness::{KeyDist, KeySampler, OpMix, Operation};
use ascylib_telemetry::{Histogram, HistogramSnapshot};

use crate::client::{info_field, Client};
use crate::protocol::{encode_request, encode_set, Reply, ReplyParser, Request, MAX_SCAN, MAX_VALUE};

/// Distribution of `SET` payload sizes (bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueSize {
    /// Every value is exactly this many bytes.
    Fixed(usize),
    /// `large_pct`% of values are `large` bytes, the rest `small` — the
    /// "metadata plus occasional media" shape of production KV traffic.
    Bimodal {
        /// Size of the common small values.
        small: usize,
        /// Size of the rare large values.
        large: usize,
        /// Percentage (0–100) of values that are large.
        large_pct: u32,
    },
}

impl ValueSize {
    /// Draws one payload size. Sizes are clamped to the protocol's
    /// [`MAX_VALUE`] so generated traffic is always conforming.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let raw = match *self {
            ValueSize::Fixed(n) => n,
            ValueSize::Bimodal { small, large, large_pct } => {
                if rng.random_range(0..100u32) < large_pct.min(100) {
                    large
                } else {
                    small
                }
            }
        };
        raw.min(MAX_VALUE)
    }

    /// Parses a CLI/environment spec: `fixed:<n>` or
    /// `bimodal:<small>,<large>,<large_pct>` (a bare number means `fixed`).
    /// Returns `None` on anything else.
    pub fn parse(spec: &str) -> Option<ValueSize> {
        if let Ok(n) = spec.parse::<usize>() {
            return Some(ValueSize::Fixed(n));
        }
        let (kind, args) = spec.split_once(':')?;
        let parts: Vec<usize> = args
            .split(',')
            .map(|p| p.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .ok()?;
        match (kind, parts.as_slice()) {
            ("fixed", [n]) => Some(ValueSize::Fixed(*n)),
            ("bimodal", [small, large, pct]) if *pct <= 100 => Some(ValueSize::Bimodal {
                small: *small,
                large: *large,
                large_pct: *pct as u32,
            }),
            _ => None,
        }
    }

    /// Reads the `ASCYLIB_VALUES` environment spec (see
    /// [`parse`](Self::parse)); defaults to `bimodal:16,256,10` — the
    /// mostly-small-with-a-large-tail shape of production KV traffic.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec (the examples want a loud failure, not a
    /// silently substituted default).
    pub fn from_env() -> ValueSize {
        match std::env::var("ASCYLIB_VALUES") {
            Ok(spec) => ValueSize::parse(&spec)
                .unwrap_or_else(|| panic!("bad ASCYLIB_VALUES spec {spec:?}")),
            Err(_) => ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 },
        }
    }

    /// Largest size this distribution can produce (for buffer sizing).
    pub fn max_size(&self) -> usize {
        let raw = match *self {
            ValueSize::Fixed(n) => n,
            ValueSize::Bimodal { small, large, .. } => small.max(large),
        };
        raw.min(MAX_VALUE)
    }
}

impl Default for ValueSize {
    /// 64-byte fixed values.
    fn default() -> Self {
        ValueSize::Fixed(64)
    }
}

impl fmt::Display for ValueSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueSize::Fixed(n) => write!(f, "fixed({n}B)"),
            ValueSize::Bimodal { small, large, large_pct } => {
                write!(f, "bimodal({small}B/{large}B@{large_pct}%)")
            }
        }
    }
}

/// How the load generator drives the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Each connection waits for its batch to be answered before sending
    /// the next (self-throttling; subject to coordinated omission).
    Closed,
    /// Requests arrive as a Poisson process at `rate` operations per second
    /// across all connections, regardless of how fast the server answers;
    /// latency is measured from each operation's intended send time.
    Open {
        /// Aggregate offered load, operations per second.
        rate: f64,
    },
}

impl LoadMode {
    /// Parses a CLI/environment spec: `closed` or `open:<rate>`. Returns
    /// `None` on anything else (non-positive rates included).
    pub fn parse(spec: &str) -> Option<LoadMode> {
        if spec.eq_ignore_ascii_case("closed") {
            return Some(LoadMode::Closed);
        }
        let rate: f64 = spec.strip_prefix("open:")?.parse().ok()?;
        (rate.is_finite() && rate > 0.0).then_some(LoadMode::Open { rate })
    }

    /// Reads the `ASCYLIB_MODE` environment spec (see
    /// [`parse`](Self::parse)); defaults to `closed`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec (the examples want a loud failure, not a
    /// silently substituted default).
    pub fn from_env() -> LoadMode {
        match std::env::var("ASCYLIB_MODE") {
            Ok(spec) => LoadMode::parse(&spec)
                .unwrap_or_else(|| panic!("bad ASCYLIB_MODE spec {spec:?}")),
            Err(_) => LoadMode::Closed,
        }
    }
}

impl fmt::Display for LoadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMode::Closed => write!(f, "closed"),
            LoadMode::Open { rate } => write!(f, "open({rate:.0}/s poisson)"),
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Measurement duration in milliseconds.
    pub duration_ms: u64,
    /// Driving discipline (closed loop or scheduled open-loop arrivals).
    pub mode: LoadMode,
    /// Operation mix (read → `GET`, insert → `SET`, remove → `DEL`,
    /// scan → `SCAN`; scans need an ordered store).
    pub mix: OpMix,
    /// Key popularity distribution.
    pub dist: KeyDist,
    /// Keys are drawn from `[1, key_range]`.
    pub key_range: u64,
    /// Payload size distribution for `SET` values.
    pub value_size: ValueSize,
    /// Requests a closed-loop connection sends each time none of its
    /// requests is in flight (1 = strict request/response). Open-loop mode
    /// ignores this: its in-flight depth is whatever the arrival schedule
    /// demands.
    pub pipeline_depth: usize,
    /// Base RNG seed (each connection derives its own stream).
    pub seed: u64,
    /// Emit a one-line status to stderr this often while the run is in
    /// flight (ops so far, current ops/s, errors, and latency quantiles
    /// over the interval just ended). `None` (the default) runs silently;
    /// `kv_loadgen --progress` sets it for long runs.
    pub progress: Option<Duration>,
}

impl Default for LoadGenConfig {
    /// Four connections, closed loop, 300 ms, the paper's 10%-update mix,
    /// uniform keys over `[1, 8192]`, 64-byte values, pipeline depth 16.
    fn default() -> Self {
        Self {
            connections: 4,
            duration_ms: 300,
            mode: LoadMode::Closed,
            mix: OpMix::default(),
            dist: KeyDist::Uniform,
            key_range: 8192,
            value_size: ValueSize::default(),
            pipeline_depth: 16,
            seed: 0x10AD_9E4E,
            progress: None,
        }
    }
}

/// One driver thread's books. The driver is their only writer (see
/// [`add`]); the progress printer reads them while the run goes, and
/// [`LoadGenResult::merge`] sums them after join.
#[derive(Default)]
struct DriverBlock {
    /// Per-operation latency in nanoseconds, from the intended send time.
    latency: Histogram,
    /// Replies received, errors included.
    ops: AtomicU64,
    /// `-ERR` replies.
    errors: AtomicU64,
    /// Requests encoded.
    scheduled: AtomicU64,
    /// Requests still in flight when the drain window closed.
    unanswered: AtomicU64,
    gets: AtomicU64,
    sets: AtomicU64,
    dels: AtomicU64,
    scans: AtomicU64,
    hits: AtomicU64,
    scan_keys: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// Adds `n` to a count that only its driver writes: a plain load and
/// store, no locked instruction.
fn add(count: &AtomicU64, n: u64) {
    count.store(count.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// One count summed over every driver's block.
fn sum(blocks: &[CachePadded<DriverBlock>], count: fn(&DriverBlock) -> &AtomicU64) -> u64 {
    blocks.iter().map(|b| count(b).load(Ordering::Relaxed)).sum()
}

/// Every driver's latency histogram, merged.
fn merged_latency(blocks: &[CachePadded<DriverBlock>]) -> HistogramSnapshot {
    let mut all = HistogramSnapshot::empty();
    for b in blocks {
        all.merge(&b.latency.snapshot());
    }
    all
}

/// The progress printer: wakes a few times per interval (so stop latency
/// stays low), and on each elapsed interval prints answered-op totals, the
/// rate over the interval, and latency quantiles of the samples recorded
/// *during* the interval (cumulative-snapshot subtraction — the same
/// windowing discipline the server's own telemetry uses).
fn print_progress(blocks: &[CachePadded<DriverBlock>], every: Duration, stop: &AtomicBool) {
    let start = Instant::now();
    let mut last_at = start;
    let mut last_ops = 0u64;
    let mut last_hist = HistogramSnapshot::empty();
    let nap = (every / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(nap);
        let now = Instant::now();
        if now.duration_since(last_at) < every {
            continue;
        }
        let ops = sum(blocks, |b| &b.ops);
        let hist = merged_latency(blocks);
        let win = hist.delta_since(&last_hist);
        let rate = (ops - last_ops) as f64 / now.duration_since(last_at).as_secs_f64();
        eprintln!(
            "[loadgen +{:>6.1}s] ops={ops} ({rate:.0}/s) errors={} \
             latency p50={}us p99={}us ({} samples)",
            now.duration_since(start).as_secs_f64(),
            sum(blocks, |b| &b.errors),
            win.quantile(0.50) / 1_000,
            win.quantile(0.99) / 1_000,
            win.count(),
        );
        last_at = now;
        last_ops = ops;
        last_hist = hist;
    }
}

/// Aggregate outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenResult {
    /// Operations answered across all connections (scans count one each).
    pub total_ops: u64,
    /// Operations sent (closed loop) or scheduled (open loop); equals
    /// answered + unanswered.
    pub scheduled_ops: u64,
    /// Operations sent but never answered before the drain window after
    /// the deadline closed.
    pub unanswered: u64,
    /// Operations per second (answered / duration).
    pub throughput: f64,
    /// Mega-operations per second.
    pub mops: f64,
    /// `GET` frames answered.
    pub gets: u64,
    /// `SET` frames answered.
    pub sets: u64,
    /// `DEL` frames answered.
    pub dels: u64,
    /// `SCAN` frames answered.
    pub scans: u64,
    /// `GET` hits (bulk answers).
    pub hits: u64,
    /// Keys returned across all scans.
    pub scan_keys_returned: u64,
    /// Payload bytes written (`SET` values sent).
    pub payload_bytes_written: u64,
    /// Payload bytes read (`GET` hit values + `SCAN` pair values received).
    pub payload_bytes_read: u64,
    /// `-ERR` replies received (the run continues past them).
    pub errors: u64,
    /// Per-operation latency in nanoseconds, from each operation's intended
    /// send time: when its batch was sent in closed loop (so `max()` is the
    /// worst batch round trip, and at depth 1 this is plain request
    /// latency), its scheduled arrival in open loop (free of coordinated
    /// omission, so the p999/p9999 tails are honest).
    pub latency: HistogramSnapshot,
    /// The server's own service-time view of the run, scraped from
    /// `INFO latency` after the load stops (`None` when the scrape fails
    /// or no data request was recorded).
    pub server_latency: Option<ServerLatency>,
    /// Wall-clock measurement duration.
    pub elapsed: Duration,
}

impl LoadGenResult {
    /// `GET` hit rate in `[0, 1]` (0 if no `GET`s ran).
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// Payload write bandwidth in MB/s (`SET` values sent).
    pub fn write_mbps(&self) -> f64 {
        ascylib_harness::report::mbps(self.payload_bytes_written, self.elapsed)
    }

    /// Payload read bandwidth in MB/s (`GET`/`SCAN` values received).
    pub fn read_mbps(&self) -> f64 {
        ascylib_harness::report::mbps(self.payload_bytes_read, self.elapsed)
    }

    /// The drivers' blocks, summed into one result.
    fn merge(blocks: &[CachePadded<DriverBlock>], elapsed: Duration) -> LoadGenResult {
        let total_ops = sum(blocks, |b| &b.ops);
        let throughput = total_ops as f64 / elapsed.as_secs_f64().max(1e-9);
        LoadGenResult {
            total_ops,
            scheduled_ops: sum(blocks, |b| &b.scheduled),
            unanswered: sum(blocks, |b| &b.unanswered),
            throughput,
            mops: throughput / 1e6,
            gets: sum(blocks, |b| &b.gets),
            sets: sum(blocks, |b| &b.sets),
            dels: sum(blocks, |b| &b.dels),
            scans: sum(blocks, |b| &b.scans),
            hits: sum(blocks, |b| &b.hits),
            scan_keys_returned: sum(blocks, |b| &b.scan_keys),
            payload_bytes_written: sum(blocks, |b| &b.bytes_written),
            payload_bytes_read: sum(blocks, |b| &b.bytes_read),
            errors: sum(blocks, |b| &b.errors),
            latency: merged_latency(blocks),
            server_latency: None,
            elapsed,
        }
    }
}

/// Server-side request latency scraped from `INFO latency` at the end of a
/// run: what the *server* measured for the same traffic (parse → reply
/// queued), free of client-side scheduling and socket noise. Comparing this
/// against the client-observed [`LoadGenResult::latency`] separates server
/// service time from everything the network and the load generator added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerLatency {
    /// Data requests the server served (GET/SET/DEL/MGET/MSET/SCAN
    /// frames) — the exact count; percentiles come from the timed sample.
    pub count: u64,
    /// Median service time, nanoseconds (histogram bucket upper bound).
    pub p50_ns: u64,
    /// 99th-percentile service time, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile service time, nanoseconds.
    pub p999_ns: u64,
    /// Largest service time recorded, nanoseconds.
    pub max_ns: u64,
}

impl ServerLatency {
    /// Parses the `request_*` lines of an `INFO latency` body. Returns
    /// `None` when the section carries no samples (no data requests
    /// served).
    fn parse(info: &str) -> Option<ServerLatency> {
        let field = |name| info_field(info, name);
        let count = field("request_count")?;
        if count == 0 {
            return None;
        }
        Some(ServerLatency {
            count,
            p50_ns: field("request_p50_ns")?,
            p99_ns: field("request_p99_ns")?,
            p999_ns: field("request_p999_ns")?,
            max_ns: field("request_max_ns")?,
        })
    }
}

/// Scrapes the server's own latency view over a fresh connection. Any
/// failure (connect refused, nothing recorded) yields
/// `None` — the scrape is best-effort garnish on the client-side numbers.
fn scrape_server_latency(addr: SocketAddr) -> Option<ServerLatency> {
    let mut client = Client::connect(addr).ok()?;
    let info = client.info(Some("latency")).ok()?;
    let _ = client.quit();
    ServerLatency::parse(&info)
}

/// Which verb occupied one in-flight slot (with the payload bytes a `SET`
/// carried), so replies classify without keeping whole `Request`s around.
#[derive(Clone, Copy)]
enum SlotKind {
    Get,
    Set(usize),
    Del,
    Scan,
}

/// Classifies one reply against the slot kind that requested it.
fn tally_reply(kind: SlotKind, reply: &Reply, books: &DriverBlock) {
    add(&books.ops, 1);
    if let Reply::Error(_) = reply {
        add(&books.errors, 1);
        return;
    }
    match kind {
        SlotKind::Get => {
            add(&books.gets, 1);
            if let Reply::Bulk(v) = reply {
                add(&books.hits, 1);
                add(&books.bytes_read, v.len() as u64);
            }
        }
        SlotKind::Set(len) => {
            add(&books.sets, 1);
            add(&books.bytes_written, len as u64);
        }
        SlotKind::Del => add(&books.dels, 1),
        SlotKind::Scan => {
            add(&books.scans, 1);
            if let Reply::Array(elems) = reply {
                add(&books.scan_keys, elems.len() as u64);
                for e in elems {
                    if let Reply::Pair(_, v) = e {
                        add(&books.bytes_read, v.len() as u64);
                    }
                }
            }
        }
    }
}

/// Runs the configured load against `addr` and merges the drivers' blocks.
/// Fails if any connection cannot be established or, in closed loop, dies
/// mid-run (closed by the peer, a transport error, or a reply that does not
/// parse or match a request); an open-loop connection that dies leaves its
/// in-flight operations unanswered. With [`LoadGenConfig::progress`] set, a
/// printer thread narrates the run on stderr once per interval.
pub fn run(addr: SocketAddr, cfg: &LoadGenConfig) -> io::Result<LoadGenResult> {
    let drivers = cfg.connections.clamp(1, 4);
    let blocks: Vec<CachePadded<DriverBlock>> =
        (0..drivers).map(|_| CachePadded::new(DriverBlock::default())).collect();
    let barrier = Barrier::new(drivers);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (blocks, stop, barrier) = (&blocks, &stop, &barrier);
        if let Some(every) = cfg.progress {
            scope.spawn(move || print_progress(blocks, every, stop));
        }
        let handles: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(id, books)| scope.spawn(move || drive(addr, cfg, id, drivers, books, barrier)))
            .collect();
        // Join every driver before stopping the printer, so that a driver
        // panic cannot leave the scope waiting on a printer that never stops.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        joined.into_iter().try_for_each(|r| r.expect("loadgen driver thread panicked"))
    })?;
    let mut result = LoadGenResult::merge(&blocks, Duration::from_millis(cfg.duration_ms.max(1)));
    result.server_latency = scrape_server_latency(addr);
    Ok(result)
}

/// One nonblocking connection inside a driver thread.
struct Conn {
    stream: TcpStream,
    parser: ReplyParser,
    /// Encoded-but-unflushed request bytes; `wpos..` is the unsent tail.
    out: Vec<u8>,
    wpos: usize,
    /// In-flight operations, in send order: (intended send time, kind).
    pending: VecDeque<(Instant, SlotKind)>,
    /// Open loop: the next scheduled arrival. Never pushed back by server
    /// slowness — that is the whole point of the open loop.
    next_send: Instant,
    /// What the poller reports this socket for; `None` once the connection
    /// closed and its socket was deregistered.
    interest: Option<Interest>,
    rng: SmallRng,
    open: bool,
}

/// A driver's workload source: samples operations of the configured mix
/// and encodes them, so both modes send byte-identical streams.
struct OpGen {
    sampler: KeySampler,
    mix: OpMix,
    dice_range: u32,
    value_size: ValueSize,
    value_buf: Vec<u8>,
}

impl OpGen {
    fn new(cfg: &LoadGenConfig) -> OpGen {
        let mix = cfg.mix.validated();
        OpGen {
            sampler: KeySampler::new(cfg.dist, cfg.key_range.max(1)),
            dice_range: mix.total(),
            mix,
            value_size: cfg.value_size,
            value_buf: vec![0u8; cfg.value_size.max_size()],
        }
    }

    /// Samples one operation with `conn`'s RNG, encodes it onto `conn`, and
    /// marks it in flight since `intended`.
    fn encode(&mut self, conn: &mut Conn, intended: Instant, books: &DriverBlock) {
        let key = self.sampler.sample(&mut conn.rng);
        let kind = match self.mix.sample(conn.rng.random_range(0..self.dice_range)) {
            Operation::Read => {
                encode_request(&Request::Get(key), &mut conn.out);
                SlotKind::Get
            }
            Operation::Insert => {
                let len = self.value_size.sample(&mut conn.rng);
                conn.rng.fill_bytes(&mut self.value_buf[..len]);
                encode_set(&mut conn.out, key, &self.value_buf[..len]);
                SlotKind::Set(len)
            }
            Operation::Remove => {
                encode_request(&Request::Del(key), &mut conn.out);
                SlotKind::Del
            }
            Operation::Scan { len } => {
                let want = conn.rng.random_range(1..=len.min(MAX_SCAN) as u64) as usize;
                encode_request(&Request::Scan(key, want), &mut conn.out);
                SlotKind::Scan
            }
        };
        conn.pending.push_back((intended, kind));
        add(&books.scheduled, 1);
    }
}

/// Stop encoding new requests for an open-loop connection while this many
/// bytes are already queued on it; the schedule keeps its intended times,
/// so the deferred operations still measure their full delay once sent.
const OPEN_OUT_SOFT_CAP: usize = 1 << 20;

/// How long after the measurement deadline the drain phase waits for
/// in-flight replies before declaring them unanswered.
const DRAIN_WINDOW: Duration = Duration::from_millis(500);

fn connect_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    // Large sweeps can outrun the accept loop; brief retries absorb
    // transient RST/backlog rejections without failing the run.
    let mut last = None;
    for attempt in 0..20 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5 * (attempt + 1)));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
}

/// One exponential interarrival gap (a Poisson process — the memoryless
/// arrival pattern of independent users).
fn interarrival(mean_ns: f64, rng: &mut SmallRng) -> Duration {
    // u uniform in (0, 1]: the +1 keeps ln away from zero.
    let u = (rng.random_range(0..(1u64 << 53)) as f64 + 1.0) / (1u64 << 53) as f64;
    Duration::from_nanos((-u.ln() * mean_ns).clamp(0.0, 60e9) as u64)
}

/// Writes a connection's queued bytes until done or the socket pushes back.
/// Transport errors close the connection (its in-flight ops end up
/// unanswered).
fn flush(conn: &mut Conn) {
    while conn.wpos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.wpos..]) {
            Ok(0) => {
                conn.open = false;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.open = false;
                return;
            }
        }
    }
    conn.out.clear();
    conn.wpos = 0;
}

/// Reads what is available, pairing replies with pending slots and
/// recording each one's latency from its intended send time.
fn drain_replies(conn: &mut Conn, books: &DriverBlock, chunk: &mut [u8]) {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.open = false;
                return;
            }
            Ok(n) => {
                conn.parser.feed(&chunk[..n]);
                let now = Instant::now();
                loop {
                    match conn.parser.next() {
                        Some(Ok(reply)) => {
                            let Some((intended, kind)) = conn.pending.pop_front() else {
                                // A reply with no matching request: protocol
                                // desync; abandon the connection.
                                conn.open = false;
                                return;
                            };
                            let lat = now.saturating_duration_since(intended).as_nanos() as u64;
                            books.latency.record_unsync(lat);
                            tally_reply(kind, &reply, books);
                        }
                        Some(Err(_)) => {
                            conn.open = false;
                            return;
                        }
                        None => break,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.open = false;
                return;
            }
        }
    }
}

/// Keeps a connection's registration at what it is actually waiting on:
/// always readability, plus writability while queued bytes remain. A
/// connection that closed is deregistered — its socket stays open until the
/// run ends and would report its EOF on every `wait`.
fn sync_interest(poller: &Poller, conn: &mut Conn, token: u64) {
    let fd = conn.stream.as_raw_fd();
    if !conn.open {
        if conn.interest.take().is_some() {
            let _ = poller.deregister(fd);
        }
        return;
    }
    let want =
        if conn.wpos < conn.out.len() { Interest::BOTH } else { Interest::READABLE };
    if conn.interest != Some(want) && poller.modify(fd, token, want).is_ok() {
        conn.interest = Some(want);
    }
}

/// One driver thread: connects every `drivers`-th connection from `id` on,
/// sends on them by the mode's rule until the deadline, then drains what is
/// in flight. All it counts goes into `books`.
fn drive(
    addr: SocketAddr,
    cfg: &LoadGenConfig,
    id: usize,
    drivers: usize,
    books: &DriverBlock,
    barrier: &Barrier,
) -> io::Result<()> {
    let connections = cfg.connections.max(1);
    // Connect this driver's share up front; reach the barrier even on
    // failure so siblings are not deadlocked.
    let setup = (|| -> io::Result<(Poller, Vec<Conn>)> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for global_id in (id..connections).step_by(drivers) {
            let stream = connect_retry(addr)?;
            stream.set_nonblocking(true)?;
            let _ = stream.set_nodelay(true);
            poller.register(stream.as_raw_fd(), conns.len() as u64, Interest::READABLE)?;
            conns.push(Conn {
                stream,
                parser: ReplyParser::new(),
                out: Vec::with_capacity(4096),
                wpos: 0,
                pending: VecDeque::new(),
                next_send: Instant::now(), // re-based after the barrier
                interest: Some(Interest::READABLE),
                rng: SmallRng::seed_from_u64(cfg.seed ^ ((global_id as u64 + 1) * 0x9E37_79B9)),
                open: true,
            });
        }
        Ok((poller, conns))
    })();
    barrier.wait();
    let (poller, mut conns) = setup?;

    let depth = cfg.pipeline_depth.max(1);
    // Open loop: each connection runs an independent arrival process at its
    // share of the aggregate rate; superposed they offer `rate` ops/s.
    let open_mean_ns = match cfg.mode {
        LoadMode::Closed => None,
        LoadMode::Open { rate } => Some(connections as f64 * 1e9 / rate.max(1e-3)),
    };
    let mut gen = OpGen::new(cfg);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut events = Events::new();

    let start = Instant::now();
    let deadline = start + Duration::from_millis(cfg.duration_ms.max(1));
    if let Some(mean_ns) = open_mean_ns {
        for conn in conns.iter_mut() {
            conn.next_send = start + interarrival(mean_ns, &mut conn.rng);
        }
    }

    // Waits up to `timeout` and serves whatever became ready.
    let mut serve_ready = |timeout: Duration, conns: &mut [Conn]| {
        let _ = poller.wait(&mut events, Some(timeout));
        for ev in events.iter() {
            let conn = &mut conns[ev.token as usize];
            if ev.readable {
                drain_replies(conn, books, &mut chunk);
            }
            if ev.writable && conn.open {
                flush(conn);
            }
            sync_interest(&poller, conn, ev.token);
        }
    };

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut wake = deadline.min(now + Duration::from_millis(10));
        for (i, conn) in conns.iter_mut().enumerate() {
            if !conn.open {
                continue;
            }
            match open_mean_ns {
                // Closed loop: the next batch once the last one is answered.
                None => {
                    if conn.pending.is_empty() {
                        for _ in 0..depth {
                            gen.encode(conn, now, books);
                        }
                    }
                }
                // Open loop: every arrival whose time has come. A stalled
                // server defers the *sending*, never the schedule —
                // intended times are kept, so the stall shows up in the
                // measured latency.
                Some(mean_ns) => {
                    while conn.next_send <= now
                        && conn.out.len() - conn.wpos < OPEN_OUT_SOFT_CAP
                    {
                        let intended = conn.next_send;
                        gen.encode(conn, intended, books);
                        conn.next_send += interarrival(mean_ns, &mut conn.rng);
                    }
                    wake = wake.min(conn.next_send);
                }
            }
            flush(conn);
            sync_interest(&poller, conn, i as u64);
        }
        if conns.iter().all(|c| !c.open) {
            break;
        }
        serve_ready(wake.saturating_duration_since(Instant::now()), &mut conns);
    }

    // Drain: no new requests; give in-flight replies a bounded window
    // before declaring them unanswered.
    let drain_deadline = Instant::now() + DRAIN_WINDOW;
    while Instant::now() < drain_deadline
        && conns.iter().any(|c| c.open && !c.pending.is_empty())
    {
        serve_ready(Duration::from_millis(20), &mut conns);
    }
    add(&books.unanswered, conns.iter().map(|c| c.pending.len() as u64).sum());
    // The driver never closes its own connections, so a closed one died.
    if open_mean_ns.is_none() && conns.iter().any(|c| !c.open) {
        return Err(io::Error::other("a closed-loop connection died mid-run"));
    }
    Ok(())
}

/// Prefills the keyspace over the wire: pipelined `MSET` batches upserting
/// `initial_size` distinct keys spread evenly across `[1, key_range]` (the
/// same even-coverage shape the in-process harness starts from), with
/// payloads drawn from `value_size`. Returns the number of newly created
/// keys.
pub fn prefill(
    addr: SocketAddr,
    initial_size: u64,
    key_range: u64,
    value_size: ValueSize,
    seed: u64,
) -> io::Result<u64> {
    let mut client = Client::connect(addr)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let range = key_range.max(initial_size).max(1);
    let step = (range / initial_size.max(1)).max(1);
    let mut created = 0u64;
    let mut entries: Vec<(u64, Vec<u8>)> = Vec::with_capacity(128);
    let mut key = 1u64;
    let mut remaining = initial_size;
    // Batches are bounded by payload bytes as well as entry count: any
    // legal per-value size (up to MAX_VALUE) must yield conforming MSET
    // frames, which cap the *total* payload at MAX_BATCH_PAYLOAD.
    let payload_budget = crate::protocol::MAX_BATCH_PAYLOAD / 2;
    while remaining > 0 {
        entries.clear();
        let mut batch_bytes = 0usize;
        while remaining > 0 && entries.len() < 128 {
            let len = value_size.sample(&mut rng);
            if !entries.is_empty() && batch_bytes + len > payload_budget {
                break;
            }
            batch_bytes += len;
            let mut value = vec![0u8; len];
            rng.fill_bytes(&mut value);
            entries.push((key, value));
            key = key.saturating_add(step).min(u64::MAX - 1);
            remaining -= 1;
        }
        let borrowed: Vec<(u64, &[u8])> =
            entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        for newly in client.mset(&borrowed)? {
            created += newly as u64;
        }
    }
    client.quit()?;
    Ok(created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::store::BlobStore;
    use ascylib::skiplist::FraserOptSkipList;
    use ascylib_shard::BlobMap;
    use std::sync::Arc;

    #[test]
    fn value_size_distributions_sample_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(ValueSize::Fixed(100).sample(&mut rng), 100);
        assert_eq!(ValueSize::Fixed(MAX_VALUE * 4).sample(&mut rng), MAX_VALUE, "clamped");
        let b = ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 };
        let mut larges = 0;
        for _ in 0..2_000 {
            let s = b.sample(&mut rng);
            assert!(s == 16 || s == 256);
            larges += (s == 256) as u32;
        }
        assert!((100..400).contains(&larges), "~10% large values, got {larges}/2000");
        assert_eq!(b.max_size(), 256);
        assert_eq!(b.to_string(), "bimodal(16B/256B@10%)");
    }

    #[test]
    fn value_size_specs_parse() {
        assert_eq!(ValueSize::parse("256"), Some(ValueSize::Fixed(256)));
        assert_eq!(ValueSize::parse("fixed:8"), Some(ValueSize::Fixed(8)));
        assert_eq!(
            ValueSize::parse("bimodal:16,256,10"),
            Some(ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 })
        );
        for bad in [
            "", "fixed", "fixed:x", "uniform:1", "uniform:16,4096", "bimodal:1,2", "huge:9",
            // An impossible percentage is a config error, not a wrap/clamp.
            "bimodal:16,256,101", "bimodal:16,256,4294967306",
        ] {
            assert_eq!(ValueSize::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn load_mode_specs_parse() {
        assert_eq!(LoadMode::parse("closed"), Some(LoadMode::Closed));
        assert_eq!(LoadMode::parse("CLOSED"), Some(LoadMode::Closed));
        assert_eq!(LoadMode::parse("open:5000"), Some(LoadMode::Open { rate: 5000.0 }));
        assert_eq!(LoadMode::parse("open:2500.5"), Some(LoadMode::Open { rate: 2500.5 }));
        for bad in ["", "open", "open:", "open:x", "open:0", "open:-5", "open:inf",
                    "open:100:weird", "open:100:poisson", "open:2500.5:fixed", "closed:1"] {
            assert_eq!(LoadMode::parse(bad), None, "{bad:?} must not parse");
        }
        assert_eq!(LoadMode::Closed.to_string(), "closed");
        assert_eq!(
            LoadMode::Open { rate: 4000.0 }.to_string(),
            "open(4000/s poisson)"
        );
    }

    #[test]
    fn poisson_interarrivals_average_to_the_mean() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mean_ns = 1e6; // 1 ms
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| interarrival(mean_ns, &mut rng).as_nanos() as u64)
            .sum();
        let avg = total as f64 / n as f64;
        assert!(
            (avg - mean_ns).abs() < mean_ns * 0.05,
            "sample mean {avg} vs expected {mean_ns}"
        );
    }

    #[test]
    fn driver_blocks_feed_the_result_and_the_printer() {
        let blocks: Vec<_> = (0..2).map(|_| CachePadded::new(DriverBlock::default())).collect();
        add(&blocks[0].ops, 10);
        add(&blocks[0].errors, 1);
        add(&blocks[1].ops, 5);
        // Each driver accumulates into its own block.
        add(&blocks[0].ops, 10);
        blocks[0].latency.record_unsync(1_000);
        blocks[1].latency.record_unsync(1_000_000);
        let r = LoadGenResult::merge(&blocks, Duration::from_secs(1));
        assert_eq!((r.total_ops, r.errors, r.throughput), (25, 1, 25.0));
        assert_eq!((r.latency.count(), r.latency.max()), (2, 1_000_000));
        // The printer fires at least once and stops promptly when asked.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| print_progress(&blocks, Duration::from_millis(10), &stop));
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn progress_enabled_runs_complete_in_both_modes() {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig::for_connections(3),
        )
        .unwrap();
        prefill(server.addr(), 128, 256, ValueSize::Fixed(32), 7).unwrap();
        let closed = LoadGenConfig {
            connections: 2,
            duration_ms: 80,
            key_range: 256,
            progress: Some(Duration::from_millis(20)),
            ..LoadGenConfig::default()
        };
        let r = run(server.addr(), &closed).unwrap();
        assert!(r.total_ops > 0, "progress narration must not stall the run");
        assert_eq!(r.errors, 0);
        let open = LoadGenConfig {
            mode: LoadMode::Open { rate: 2000.0 },
            ..closed
        };
        let r = run(server.addr(), &open).unwrap();
        assert!(r.scheduled_ops > 0);
        assert!(r.latency.count() > 0);
        server.join();
    }

    #[test]
    fn closed_loop_run_reports_traffic_and_bandwidth() {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(Arc::clone(&map)),
            ServerConfig::for_connections(2),
        )
        .unwrap();
        let created =
            prefill(server.addr(), 256, 512, ValueSize::Fixed(64), 7).unwrap();
        assert_eq!(created, 256);
        assert_eq!(map.len(), 256);
        assert_eq!(map.total_arena_stats().live_bytes(), 256 * 64);

        let cfg = LoadGenConfig {
            connections: 2,
            duration_ms: 80,
            mix: OpMix::update(20),
            key_range: 512,
            value_size: ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 },
            pipeline_depth: 8,
            ..LoadGenConfig::default()
        };
        let r = run(server.addr(), &cfg).unwrap();
        assert!(r.total_ops > 0);
        assert_eq!(r.total_ops, r.gets + r.sets + r.dels + r.scans + r.errors);
        assert_eq!(r.scheduled_ops, r.total_ops, "closed loop schedules what it answers");
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.errors, 0, "well-formed traffic must not error");
        assert!(r.gets > r.sets, "80% reads dominate");
        assert!(r.hits > 0, "prefilled keyspace yields GET hits");
        assert!(r.hit_rate() > 0.0 && r.hit_rate() <= 1.0);
        assert!(r.throughput > 0.0);
        assert!(r.latency.count() > 0);
        assert!(r.latency.quantile(0.5) > 0);
        // Payload movement in both directions, at plausible magnitudes.
        assert!(r.payload_bytes_written > 0, "SETs carried payloads");
        assert!(r.payload_bytes_read > 0, "GET hits returned payloads");
        assert!(r.payload_bytes_written >= r.sets * 16);
        assert!(r.write_mbps() > 0.0 && r.read_mbps() > 0.0);
        // The end-of-run scrape captures the server's own view of the same
        // traffic (prefill MSETs included, INFO itself excluded).
        let sl = r.server_latency.expect("telemetry is on by default");
        assert!(sl.count >= r.total_ops, "server counted at least the answered ops");
        assert!(sl.p50_ns > 0 && sl.p99_ns >= sl.p50_ns && sl.max_ns >= sl.p999_ns);
        server.join();
    }

    #[test]
    fn open_loop_run_measures_from_intended_send_times() {
        // A few connections, and enough that most sit idle between
        // arrivals (256 × 2 descriptors fits the default limit of 1024).
        for connections in [3, 256] {
            open_loop_run_at(connections);
        }
    }

    fn open_loop_run_at(connections: usize) {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(Arc::clone(&map)),
            ServerConfig::for_connections(connections),
        )
        .unwrap();
        prefill(server.addr(), 256, 512, ValueSize::Fixed(64), 7).unwrap();

        let cfg = LoadGenConfig {
            connections,
            duration_ms: 150,
            mode: LoadMode::Open { rate: 3000.0 },
            mix: OpMix::update(10),
            key_range: 512,
            ..LoadGenConfig::default()
        };
        let r = run(server.addr(), &cfg).unwrap();
        assert!(r.scheduled_ops > 0, "the schedule must have fired");
        assert_eq!(
            r.total_ops + r.unanswered,
            r.scheduled_ops,
            "every scheduled op is answered or reported unanswered"
        );
        assert!(r.total_ops > 0, "a loopback server answers most of the offered load");
        assert_eq!(r.errors, 0, "well-formed traffic must not error");
        assert!(r.latency.count() > 0, "open loop records per-op latency");
        assert!(r.latency.quantile(0.5) > 0);
        assert!(r.latency.quantile(0.999) >= r.latency.quantile(0.5), "tail at least the median");
        // ~3000/s for 150 ms ≈ 450 scheduled ops; allow wide slack but
        // catch a schedule that silently stops early or runs away.
        assert!(
            (150..=900).contains(&r.scheduled_ops),
            "offered load off the rate: {} scheduled",
            r.scheduled_ops
        );
        assert!(
            r.unanswered <= r.scheduled_ops / 4,
            "the drain leaves little behind on loopback: {} of {} unanswered",
            r.unanswered,
            r.scheduled_ops
        );
        assert!(r.hits > 0, "prefilled keyspace yields GET hits");
        server.join();
    }

    /// Reads once, waiting up to `wait`, and counts the whole request
    /// frames that completed; `None` once the peer hung up.
    fn read_frames(
        conn: &mut TcpStream,
        parser: &mut crate::protocol::RequestParser,
        wait: Duration,
    ) -> Option<usize> {
        conn.set_read_timeout(Some(wait)).unwrap();
        let mut buf = [0u8; 4096];
        match conn.read(&mut buf) {
            Ok(0) => None,
            Ok(n) => {
                parser.feed(&buf[..n]);
                let mut frames = 0;
                while let Some(req) = parser.next() {
                    req.expect("the load generator sends well-formed requests");
                    frames += 1;
                }
                Some(frames)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Some(0)
            }
            Err(e) => panic!("scripted server read failed: {e}"),
        }
    }

    #[test]
    fn a_closed_loop_connection_sends_its_next_batch_only_after_the_last_reply() {
        const DEPTH: usize = 4;
        const QUIET: Duration = Duration::from_millis(20);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A scripted server: it holds each batch's replies, checks that no
        // further request arrives meanwhile, and answers one by one.
        let script = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut parser = crate::protocol::RequestParser::new();
            let (mut held, mut batches) = (0, 0u64);
            'run: loop {
                while held < DEPTH {
                    match read_frames(&mut conn, &mut parser, Duration::from_secs(5)) {
                        Some(n) => held += n,
                        None => break 'run,
                    }
                }
                assert_eq!(held, DEPTH, "more than pipeline_depth requests in flight");
                assert_eq!(
                    read_frames(&mut conn, &mut parser, QUIET),
                    Some(0),
                    "a request arrived while the whole batch was in flight"
                );
                let mut replies = Vec::new();
                for _ in 1..DEPTH {
                    crate::protocol::wire::null(&mut replies);
                }
                conn.write_all(&replies).unwrap();
                assert_eq!(
                    read_frames(&mut conn, &mut parser, QUIET),
                    Some(0),
                    "the next batch went out before the last reply"
                );
                replies.clear();
                crate::protocol::wire::null(&mut replies);
                conn.write_all(&replies).unwrap();
                held = 0;
                batches += 1;
            }
            assert_eq!(held, 0, "the load generator hung up with requests unanswered");
            // The end-of-run `INFO latency` scrape: close it unanswered.
            drop(listener.accept().unwrap());
            batches
        });
        let cfg = LoadGenConfig {
            connections: 1,
            duration_ms: 150,
            pipeline_depth: DEPTH,
            ..LoadGenConfig::default()
        };
        let r = run(addr, &cfg).unwrap();
        let batches = script.join().expect("the scripted server's checks hold");
        assert!(batches >= 2, "only {batches} batches in 150 ms");
        assert_eq!(r.total_ops, batches * DEPTH as u64, "every held reply is counted");
        assert_eq!((r.scheduled_ops, r.unanswered, r.errors), (r.total_ops, 0, 0));
        // Latency runs from the batch's send time, so it includes the hold.
        assert!(r.latency.quantile(0.01) >= QUIET.as_nanos() as u64, "{:?}", r.latency);
        assert!(r.server_latency.is_none(), "the scrape was closed unanswered");
    }

    #[test]
    fn a_closed_loop_connection_the_server_closes_fails_the_run() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A scripted server: it takes the first batch and hangs up unanswered.
        let script = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut parser = crate::protocol::RequestParser::new();
            while read_frames(&mut conn, &mut parser, Duration::from_secs(5)) == Some(0) {}
        });
        let cfg = LoadGenConfig {
            connections: 1,
            duration_ms: 150,
            pipeline_depth: 4,
            ..LoadGenConfig::default()
        };
        let err = run(addr, &cfg).expect_err("a connection that died mid-run fails the run");
        assert!(err.to_string().contains("died mid-run"), "{err}");
        script.join().unwrap();
    }

    #[test]
    fn prefill_with_large_values_respects_the_batch_payload_cap() {
        // 128 x 16 KiB would be a 2 MiB MSET frame — over the 1 MiB batch
        // cap; prefill must split by payload bytes, not just entry count.
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(Arc::clone(&map)),
            ServerConfig::for_connections(1),
        )
        .unwrap();
        let created =
            prefill(server.addr(), 64, 128, ValueSize::Fixed(16 * 1024), 3).unwrap();
        assert_eq!(created, 64);
        assert_eq!(map.len(), 64);
        assert_eq!(map.total_arena_stats().live_bytes(), 64 * 16 * 1024);
        server.join();
    }

    #[test]
    fn scan_mix_over_the_wire_returns_keys_and_bytes() {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig::for_connections(2),
        )
        .unwrap();
        prefill(server.addr(), 256, 512, ValueSize::Fixed(32), 7).unwrap();
        let cfg = LoadGenConfig {
            connections: 2,
            duration_ms: 60,
            mix: OpMix::ycsb_e(),
            key_range: 512,
            pipeline_depth: 4,
            ..LoadGenConfig::default()
        };
        let r = run(server.addr(), &cfg).unwrap();
        assert!(r.scans > 0, "YCSB-E is 95% scans");
        assert!(r.scan_keys_returned > 0);
        assert!(
            r.payload_bytes_read >= r.scan_keys_returned * 32,
            "every scanned pair carries its 32-byte payload"
        );
        assert_eq!(r.errors, 0);
        server.join();
    }
}
