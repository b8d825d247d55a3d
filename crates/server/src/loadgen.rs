//! Multi-connection load generators for the wire protocol, with payload
//! generation, in two driving disciplines.
//!
//! Replays the harness's workload vocabulary — any
//! [`OpMix`] (YCSB A–E presets included) under any
//! [`KeyDist`] (uniform / Zipfian / hotspot) — over real sockets, with a
//! **value-size axis**: every `SET` carries a payload drawn from a
//! [`ValueSize`] distribution (fixed, uniform, or bimodal — the classic
//! "mostly small values, a tail of big ones" production shape), generated
//! with `Rng::fill_bytes`, so the measured traffic moves real bytes, not
//! just 64-bit tokens.
//!
//! **Closed loop** ([`LoadMode::Closed`]): each connection keeps at most
//! `pipeline_depth` requests in flight and issues the next batch only after
//! the previous one is fully answered, so measured throughput is bounded by
//! round trips (depth 1) or by server capacity (deep pipelines). A closed
//! loop self-throttles: when the server slows down, the clients slow down
//! with it — which also means its latency numbers silently *exclude* the
//! queueing delay a real open population would have suffered (coordinated
//! omission).
//!
//! **Open loop** ([`LoadMode::Open`]): requests arrive on a schedule —
//! fixed-rate or Poisson — independent of how fast the server answers, and
//! every operation's latency is measured from its **intended send time**,
//! not from when the socket finally accepted it. If the server stalls for
//! 100 ms, the operations scheduled during the stall each record their full
//! queueing delay, exactly as a real user would have experienced it. This
//! is the discipline that makes tail percentiles (p999/p9999) honest.
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
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use polling::{Events, Interest, Poller};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use ascylib_harness::{KeyDist, KeySampler, LatencyStats, OpMix, Operation};
use ascylib_telemetry::{Histogram, HistogramSnapshot};

use crate::client::{info_field, Client};
use crate::protocol::{encode_request, encode_set, Reply, ReplyParser, Request, MAX_SCAN, MAX_VALUE};

/// Distribution of `SET` payload sizes (bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueSize {
    /// Every value is exactly this many bytes.
    Fixed(usize),
    /// Uniform in `[min, max]` (inclusive).
    Uniform {
        /// Smallest value size.
        min: usize,
        /// Largest value size.
        max: usize,
    },
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
            ValueSize::Uniform { min, max } => {
                let (lo, hi) = (min.min(max), min.max(max));
                rng.random_range(lo as u64..=hi as u64) as usize
            }
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

    /// Parses a CLI/environment spec: `fixed:<n>`, `uniform:<min>,<max>`,
    /// or `bimodal:<small>,<large>,<large_pct>` (a bare number means
    /// `fixed`). Returns `None` on anything else.
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
            ("uniform", [min, max]) => Some(ValueSize::Uniform { min: *min, max: *max }),
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
            ValueSize::Uniform { min, max } => min.max(max),
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
            ValueSize::Uniform { min, max } => write!(f, "uniform({min}-{max}B)"),
            ValueSize::Bimodal { small, large, large_pct } => {
                write!(f, "bimodal({small}B/{large}B@{large_pct}%)")
            }
        }
    }
}

/// Interarrival-time distribution for [`LoadMode::Open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Exactly `1/rate` between arrivals (a deterministic pacer).
    Fixed,
    /// Exponential interarrivals (a Poisson process — the memoryless
    /// arrival pattern of independent users, and the default).
    Poisson,
}

/// How the load generator drives the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Each connection waits for its batch to be answered before sending
    /// the next (self-throttling; subject to coordinated omission).
    Closed,
    /// Requests are *scheduled* at `rate` operations per second across all
    /// connections, regardless of how fast the server answers; latency is
    /// measured from each operation's intended send time.
    Open {
        /// Aggregate offered load, operations per second.
        rate: f64,
        /// Interarrival shape.
        arrival: Arrival,
    },
}

impl LoadMode {
    /// Parses a CLI/environment spec: `closed`, `open:<rate>`,
    /// `open:<rate>:poisson`, or `open:<rate>:fixed`. Returns `None` on
    /// anything else (non-positive rates included).
    pub fn parse(spec: &str) -> Option<LoadMode> {
        if spec.eq_ignore_ascii_case("closed") {
            return Some(LoadMode::Closed);
        }
        let rest = spec.strip_prefix("open:")?;
        let (rate_str, arrival) = match rest.split_once(':') {
            None => (rest, Arrival::Poisson),
            Some((r, "poisson")) => (r, Arrival::Poisson),
            Some((r, "fixed")) => (r, Arrival::Fixed),
            Some(_) => return None,
        };
        let rate: f64 = rate_str.parse().ok()?;
        (rate.is_finite() && rate > 0.0).then_some(LoadMode::Open { rate, arrival })
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
            LoadMode::Open { rate, arrival: Arrival::Poisson } => {
                write!(f, "open({rate:.0}/s poisson)")
            }
            LoadMode::Open { rate, arrival: Arrival::Fixed } => {
                write!(f, "open({rate:.0}/s fixed)")
            }
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
    /// Frames kept in flight per connection in closed-loop mode
    /// (1 = strict request/response). Open-loop mode ignores this: its
    /// in-flight depth is whatever the arrival schedule demands.
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

/// Shared live-run counters behind [`LoadGenConfig::progress`]: each
/// connection (closed loop) or driver (open loop) publishes its running
/// totals into its own cache-padded slot — plain relaxed stores, no
/// cross-thread contention on the hot path — and records latency samples
/// into a lock-free [`Histogram`]. A detached printer thread sums the
/// slots once per interval and prints one status line.
struct ProgressBoard {
    slots: Vec<CachePadded<ProgressSlot>>,
    /// Latency samples: batch round trips (closed loop) or per-operation
    /// intended-send-time latency (open loop).
    hist: Histogram,
    /// What `hist` holds, for the status line.
    lat_label: &'static str,
}

#[derive(Default)]
struct ProgressSlot {
    ops: AtomicU64,
    errors: AtomicU64,
}

impl ProgressBoard {
    fn new(slots: usize, lat_label: &'static str) -> Arc<Self> {
        Arc::new(ProgressBoard {
            slots: (0..slots.max(1)).map(|_| CachePadded::new(ProgressSlot::default())).collect(),
            hist: Histogram::new(),
            lat_label,
        })
    }

    /// Publishes one worker's running totals (monotone, so relaxed plain
    /// stores are enough — the printer tolerates slightly stale slots).
    fn publish(&self, slot: usize, out: &ConnOutput) {
        let s = &self.slots[slot];
        s.ops.store(out.ops, Ordering::Relaxed);
        s.errors.store(out.errors, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(ops, errs), s| {
            (ops + s.ops.load(Ordering::Relaxed), errs + s.errors.load(Ordering::Relaxed))
        })
    }
}

/// The progress printer: wakes a few times per interval (so stop latency
/// stays low), and on each elapsed interval prints answered-op totals, the
/// rate over the interval, and latency quantiles of the samples recorded
/// *during* the interval (cumulative-snapshot subtraction — the same
/// windowing discipline the server's own telemetry uses).
fn spawn_progress_printer(
    board: Arc<ProgressBoard>,
    every: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
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
            let (ops, errors) = board.totals();
            let hist = board.hist.snapshot();
            let win = hist.delta_since(&last_hist);
            let rate = (ops - last_ops) as f64 / now.duration_since(last_at).as_secs_f64();
            eprintln!(
                "[loadgen +{:>6.1}s] ops={ops} ({rate:.0}/s) errors={errors} \
                 {} p50={}us p99={}us ({} samples)",
                now.duration_since(start).as_secs_f64(),
                board.lat_label,
                win.quantile(0.50) / 1_000,
                win.quantile(0.99) / 1_000,
                win.count(),
            );
            last_at = now;
            last_ops = ops;
            last_hist = hist;
        }
    })
}

/// Aggregate outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenResult {
    /// Operations answered across all connections (scans count one each).
    pub total_ops: u64,
    /// Operations scheduled (open loop; equals answered + unanswered).
    /// Closed-loop runs report it equal to `total_ops`.
    pub scheduled_ops: u64,
    /// Operations scheduled and sent but never answered before the drain
    /// window closed (open loop only; 0 in closed loop).
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
    /// Round-trip latency of one flushed batch (nanoseconds; closed loop
    /// only — at depth 1 this is per-operation latency).
    pub batch_rtt: LatencyStats,
    /// Per-operation latency measured from the *intended* send time
    /// (nanoseconds; open loop only — free of coordinated omission, so the
    /// p999/p9999 tails are honest). Empty in closed-loop runs.
    pub latency: LatencyStats,
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
}

/// Server-side request latency scraped from `INFO latency` at the end of a
/// run: what the *server* measured for the same traffic (parse → reply
/// queued), free of client-side scheduling and socket noise. Comparing this
/// against the client-observed [`LatencyStats`] separates server service
/// time from everything the network and the load generator added.
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

/// One sampled operation, before encoding (shared between the closed and
/// open engines so both drive byte-identical workloads).
enum GenOp {
    Get(u64),
    Set(u64, usize),
    Del(u64),
    Scan(u64, usize),
}

fn sample_op(
    rng: &mut SmallRng,
    sampler: &KeySampler,
    mix: &OpMix,
    dice_range: u32,
    value_size: ValueSize,
) -> GenOp {
    let key = sampler.sample(rng);
    match mix.sample(rng.random_range(0..dice_range)) {
        Operation::Read => GenOp::Get(key),
        Operation::Insert => GenOp::Set(key, value_size.sample(rng)),
        Operation::Remove => GenOp::Del(key),
        Operation::Scan { len } => {
            let want = rng.random_range(1..=len.min(MAX_SCAN) as u64);
            GenOp::Scan(key, want as usize)
        }
    }
}

#[derive(Default)]
struct ConnOutput {
    ops: u64,
    scheduled: u64,
    unanswered: u64,
    gets: u64,
    sets: u64,
    dels: u64,
    scans: u64,
    hits: u64,
    scan_keys: u64,
    bytes_written: u64,
    bytes_read: u64,
    errors: u64,
    rtt_samples: Vec<u64>,
    lat_samples: Vec<u64>,
}

/// Classifies one reply against the slot kind that requested it (shared by
/// both engines so the tallies mean the same thing in either mode).
fn tally_reply(kind: SlotKind, reply: &Reply, out: &mut ConnOutput) {
    out.ops += 1;
    if let Reply::Error(_) = reply {
        out.errors += 1;
        return;
    }
    match kind {
        SlotKind::Get => {
            out.gets += 1;
            if let Reply::Bulk(v) = reply {
                out.hits += 1;
                out.bytes_read += v.len() as u64;
            }
        }
        SlotKind::Set(len) => {
            out.sets += 1;
            out.bytes_written += len as u64;
        }
        SlotKind::Del => out.dels += 1,
        SlotKind::Scan => {
            out.scans += 1;
            if let Reply::Array(elems) = reply {
                out.scan_keys += elems.len() as u64;
                for e in elems {
                    if let Reply::Pair(_, v) = e {
                        out.bytes_read += v.len() as u64;
                    }
                }
            }
        }
    }
}

fn merge_outputs(outputs: Vec<ConnOutput>, elapsed: Duration) -> LoadGenResult {
    let mut result = LoadGenResult {
        total_ops: 0,
        scheduled_ops: 0,
        unanswered: 0,
        throughput: 0.0,
        mops: 0.0,
        gets: 0,
        sets: 0,
        dels: 0,
        scans: 0,
        hits: 0,
        scan_keys_returned: 0,
        payload_bytes_written: 0,
        payload_bytes_read: 0,
        errors: 0,
        batch_rtt: LatencyStats::default(),
        latency: LatencyStats::default(),
        server_latency: None,
        elapsed,
    };
    let mut rtt_samples = Vec::new();
    let mut lat_samples = Vec::new();
    for out in outputs {
        result.total_ops = result.total_ops.saturating_add(out.ops);
        result.scheduled_ops = result.scheduled_ops.saturating_add(out.scheduled);
        result.unanswered = result.unanswered.saturating_add(out.unanswered);
        result.gets = result.gets.saturating_add(out.gets);
        result.sets = result.sets.saturating_add(out.sets);
        result.dels = result.dels.saturating_add(out.dels);
        result.scans = result.scans.saturating_add(out.scans);
        result.hits = result.hits.saturating_add(out.hits);
        result.scan_keys_returned = result.scan_keys_returned.saturating_add(out.scan_keys);
        result.payload_bytes_written =
            result.payload_bytes_written.saturating_add(out.bytes_written);
        result.payload_bytes_read = result.payload_bytes_read.saturating_add(out.bytes_read);
        result.errors = result.errors.saturating_add(out.errors);
        rtt_samples.extend(out.rtt_samples);
        lat_samples.extend(out.lat_samples);
    }
    if result.scheduled_ops == 0 {
        result.scheduled_ops = result.total_ops; // closed loop: 1:1
    }
    result.throughput = result.total_ops as f64 / elapsed.as_secs_f64().max(1e-9);
    result.mops = result.throughput / 1e6;
    result.batch_rtt = LatencyStats::from_samples(rtt_samples);
    result.latency = LatencyStats::from_samples(lat_samples);
    result
}

/// Runs the configured load against `addr` and merges the per-connection
/// tallies. Fails if any connection cannot be established or dies mid-run.
/// With [`LoadGenConfig::progress`] set, a printer thread narrates the run
/// on stderr once per interval.
pub fn run(addr: SocketAddr, cfg: &LoadGenConfig) -> io::Result<LoadGenResult> {
    let board = cfg.progress.map(|_| {
        let label = match cfg.mode {
            LoadMode::Closed => "batch_rtt",
            LoadMode::Open { .. } => "latency",
        };
        ProgressBoard::new(cfg.connections.max(1), label)
    });
    let printer = cfg.progress.map(|every| {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_progress_printer(
            Arc::clone(board.as_ref().expect("board exists with progress")),
            every,
            Arc::clone(&stop),
        );
        (stop, handle)
    });
    let run_result = match cfg.mode {
        LoadMode::Closed => run_closed(addr, cfg, board.as_deref()),
        LoadMode::Open { rate, arrival } => run_open(addr, cfg, rate, arrival, board.as_deref()),
    };
    if let Some((stop, handle)) = printer {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
    let mut result = run_result?;
    result.server_latency = scrape_server_latency(addr);
    Ok(result)
}

/// The closed loop: `connections` threads connect to `addr` and apply the
/// mix in pipelined batches until the duration elapses.
fn run_closed(
    addr: SocketAddr,
    cfg: &LoadGenConfig,
    board: Option<&ProgressBoard>,
) -> io::Result<LoadGenResult> {
    let connections = cfg.connections.max(1);
    let depth = cfg.pipeline_depth.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(connections + 1));

    let outputs = std::thread::scope(|scope| -> io::Result<Vec<ConnOutput>> {
        let mut handles = Vec::with_capacity(connections);
        for conn_id in 0..connections {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || -> io::Result<ConnOutput> {
                // Connect before the start barrier, but reach the barrier
                // even on failure — the controller and every sibling wait at
                // it, and a missing participant would deadlock the run.
                let connected = Client::connect(addr);
                barrier.wait();
                let mut client = connected?;
                let mut rng =
                    SmallRng::seed_from_u64(cfg.seed ^ ((conn_id as u64 + 1) * 0x9E37_79B9));
                let sampler = KeySampler::new(cfg.dist, cfg.key_range.max(1));
                let mix = cfg.mix.validated();
                let dice_range = mix.total();
                let mut out = ConnOutput::default();
                let mut kinds: Vec<SlotKind> = Vec::with_capacity(depth);
                let mut value_buf = vec![0u8; cfg.value_size.max_size()];
                while !stop.load(Ordering::Relaxed) {
                    kinds.clear();
                    let mut p = client.pipeline();
                    for _ in 0..depth {
                        match sample_op(&mut rng, &sampler, &mix, dice_range, cfg.value_size) {
                            GenOp::Get(key) => {
                                p.get(key);
                                kinds.push(SlotKind::Get);
                            }
                            GenOp::Set(key, len) => {
                                rng.fill_bytes(&mut value_buf[..len]);
                                p.set(key, &value_buf[..len]);
                                kinds.push(SlotKind::Set(len));
                            }
                            GenOp::Del(key) => {
                                p.del(key);
                                kinds.push(SlotKind::Del);
                            }
                            GenOp::Scan(key, want) => {
                                p.scan(key, want);
                                kinds.push(SlotKind::Scan);
                            }
                        }
                    }
                    let start = Instant::now();
                    let replies = p.run()?;
                    let rtt = start.elapsed().as_nanos() as u64;
                    out.rtt_samples.push(rtt);
                    for (kind, reply) in kinds.iter().zip(&replies) {
                        tally_reply(*kind, reply, &mut out);
                    }
                    if let Some(b) = board {
                        b.hist.record(rtt);
                        b.publish(conn_id, &out);
                    }
                }
                let _ = client.quit();
                Ok(out)
            }));
        }
        barrier.wait();
        std::thread::sleep(Duration::from_millis(cfg.duration_ms.max(1)));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread panicked"))
            .collect()
    })?;
    Ok(merge_outputs(outputs, Duration::from_millis(cfg.duration_ms.max(1))))
}

/// Per-connection state inside an open-loop driver thread.
struct OpenConn {
    stream: TcpStream,
    parser: ReplyParser,
    /// Encoded-but-unflushed request bytes; `wpos..` is the unsent tail.
    out: Vec<u8>,
    wpos: usize,
    /// In-flight operations, in send order: (intended send time, kind).
    pending: VecDeque<(Instant, SlotKind)>,
    /// The next scheduled arrival. Never pushed back by server slowness —
    /// that is the whole point of the open loop.
    next_send: Instant,
    /// What the poller reports this socket for; `None` once the connection
    /// closed and its socket was deregistered.
    interest: Option<Interest>,
    rng: SmallRng,
    open: bool,
}

/// Stop encoding new requests for a connection while this many bytes are
/// already queued on it; the schedule keeps its intended times, so the
/// deferred operations still measure their full delay once sent.
const OPEN_OUT_SOFT_CAP: usize = 1 << 20;

/// How long after the measurement deadline the drain phase waits for
/// in-flight replies before declaring them unanswered.
const OPEN_DRAIN_WINDOW: Duration = Duration::from_millis(500);

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

fn interarrival(arrival: Arrival, mean_ns: f64, rng: &mut SmallRng) -> Duration {
    let ns = match arrival {
        Arrival::Fixed => mean_ns,
        Arrival::Poisson => {
            // u uniform in (0, 1]: the +1 keeps ln away from zero.
            let u = (rng.random_range(0..(1u64 << 53)) as f64 + 1.0) / (1u64 << 53) as f64;
            -u.ln() * mean_ns
        }
    };
    Duration::from_nanos(ns.clamp(0.0, 60e9) as u64)
}

/// Writes a connection's queued bytes until done or the socket pushes back.
/// Transport errors close the connection (its in-flight ops end up
/// unanswered).
fn open_flush(conn: &mut OpenConn) {
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

/// Reads everything available, pairing replies with pending slots and
/// recording intended-time latency (into the progress histogram too, when
/// a live status line was asked for).
fn open_drain_replies(
    conn: &mut OpenConn,
    out: &mut ConnOutput,
    chunk: &mut [u8],
    hist: Option<&Histogram>,
) {
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
                            out.lat_samples.push(lat);
                            if let Some(h) = hist {
                                h.record(lat);
                            }
                            tally_reply(kind, &reply, out);
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
fn open_sync_interest(poller: &Poller, conn: &mut OpenConn, token: u64) {
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

/// The open loop: a few driver threads, each running a private poller over
/// its share of nonblocking connections, encode requests on a fixed or
/// Poisson schedule and measure every reply against its intended send time.
fn run_open(
    addr: SocketAddr,
    cfg: &LoadGenConfig,
    rate: f64,
    arrival: Arrival,
    board: Option<&ProgressBoard>,
) -> io::Result<LoadGenResult> {
    let connections = cfg.connections.max(1);
    let drivers = connections.min(4);
    // Each connection runs an independent arrival process at its share of
    // the aggregate rate; superposed they offer `rate` ops/s.
    let mean_ns = connections as f64 * 1e9 / rate.max(1e-3);
    let duration = Duration::from_millis(cfg.duration_ms.max(1));
    let barrier = Arc::new(Barrier::new(drivers));

    let outputs = std::thread::scope(|scope| -> io::Result<Vec<ConnOutput>> {
        let mut handles = Vec::with_capacity(drivers);
        for driver in 0..drivers {
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || -> io::Result<ConnOutput> {
                // Connect this driver's share up front; reach the barrier
                // even on failure so siblings are not deadlocked.
                let setup = (|| -> io::Result<(Poller, Vec<OpenConn>)> {
                    let poller = Poller::new()?;
                    let mut conns = Vec::new();
                    for global_id in (driver..connections).step_by(drivers) {
                        let stream = connect_retry(addr)?;
                        stream.set_nonblocking(true)?;
                        let _ = stream.set_nodelay(true);
                        let token = conns.len() as u64;
                        poller.register(stream.as_raw_fd(), token, Interest::READABLE)?;
                        conns.push(OpenConn {
                            stream,
                            parser: ReplyParser::new(),
                            out: Vec::with_capacity(4096),
                            wpos: 0,
                            pending: VecDeque::new(),
                            next_send: Instant::now(), // re-based after the barrier
                            interest: Some(Interest::READABLE),
                            rng: SmallRng::seed_from_u64(
                                cfg.seed ^ ((global_id as u64 + 1) * 0x9E37_79B9),
                            ),
                            open: true,
                        });
                    }
                    Ok((poller, conns))
                })();
                barrier.wait();
                let (poller, mut conns) = setup?;
                let hist = board.map(|b| &b.hist);

                let sampler = KeySampler::new(cfg.dist, cfg.key_range.max(1));
                let mix = cfg.mix.validated();
                let dice_range = mix.total();
                let mut out = ConnOutput::default();
                let mut value_buf = vec![0u8; cfg.value_size.max_size()];
                let mut chunk = vec![0u8; 16 * 1024];
                let mut events = Events::new();

                let start = Instant::now();
                let deadline = start + duration;
                for conn in conns.iter_mut() {
                    conn.next_send = start + interarrival(arrival, mean_ns, &mut conn.rng);
                }

                // Waits up to `timeout` and serves whatever became ready.
                let mut serve_ready =
                    |timeout: Duration, conns: &mut [OpenConn], out: &mut ConnOutput| {
                        let _ = poller.wait(&mut events, Some(timeout));
                        for ev in events.iter() {
                            let conn = &mut conns[ev.token as usize];
                            if ev.readable {
                                open_drain_replies(conn, out, &mut chunk, hist);
                            }
                            if ev.writable && conn.open {
                                open_flush(conn);
                            }
                            open_sync_interest(&poller, conn, ev.token);
                        }
                    };

                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let mut min_next: Option<Instant> = None;
                    for (i, conn) in conns.iter_mut().enumerate() {
                        if !conn.open {
                            continue;
                        }
                        // Encode every arrival whose scheduled time has
                        // come. A stalled server defers the *sending*, never
                        // the schedule — intended times are kept, so the
                        // stall shows up in the measured latency.
                        while conn.next_send <= now
                            && conn.out.len() - conn.wpos < OPEN_OUT_SOFT_CAP
                        {
                            let intended = conn.next_send;
                            let kind = match sample_op(
                                &mut conn.rng,
                                &sampler,
                                &mix,
                                dice_range,
                                cfg.value_size,
                            ) {
                                GenOp::Get(key) => {
                                    encode_request(&Request::Get(key), &mut conn.out);
                                    SlotKind::Get
                                }
                                GenOp::Set(key, len) => {
                                    conn.rng.fill_bytes(&mut value_buf[..len]);
                                    encode_set(&mut conn.out, key, &value_buf[..len]);
                                    SlotKind::Set(len)
                                }
                                GenOp::Del(key) => {
                                    encode_request(&Request::Del(key), &mut conn.out);
                                    SlotKind::Del
                                }
                                GenOp::Scan(key, want) => {
                                    encode_request(&Request::Scan(key, want), &mut conn.out);
                                    SlotKind::Scan
                                }
                            };
                            conn.pending.push_back((intended, kind));
                            out.scheduled += 1;
                            conn.next_send += interarrival(arrival, mean_ns, &mut conn.rng);
                        }
                        open_flush(conn);
                        open_sync_interest(&poller, conn, i as u64);
                        if conn.open {
                            min_next = Some(match min_next {
                                Some(t) => t.min(conn.next_send),
                                None => conn.next_send,
                            });
                        }
                    }
                    if conns.iter().all(|c| !c.open) {
                        break;
                    }
                    let now = Instant::now();
                    let until_send = min_next
                        .map_or(Duration::from_millis(10), |t| t.saturating_duration_since(now));
                    let timeout = until_send
                        .min(deadline.saturating_duration_since(now))
                        .min(Duration::from_millis(10));
                    serve_ready(timeout, &mut conns, &mut out);
                    if let Some(b) = board {
                        b.publish(driver, &out);
                    }
                }

                // Drain: no new arrivals; give in-flight replies a bounded
                // window before declaring them unanswered.
                let drain_deadline = Instant::now() + OPEN_DRAIN_WINDOW;
                loop {
                    let all_done = conns.iter().all(|c| {
                        !c.open || (c.pending.is_empty() && c.wpos >= c.out.len())
                    });
                    if all_done || Instant::now() >= drain_deadline {
                        break;
                    }
                    serve_ready(Duration::from_millis(20), &mut conns, &mut out);
                }
                for conn in &conns {
                    out.unanswered += conn.pending.len() as u64;
                }
                if let Some(b) = board {
                    b.publish(driver, &out);
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen driver thread panicked"))
            .collect()
    })?;
    Ok(merge_outputs(outputs, duration))
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

    #[test]
    fn value_size_distributions_sample_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(ValueSize::Fixed(100).sample(&mut rng), 100);
        assert_eq!(ValueSize::Fixed(MAX_VALUE * 4).sample(&mut rng), MAX_VALUE, "clamped");
        let u = ValueSize::Uniform { min: 10, max: 50 };
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2_000 {
            let s = u.sample(&mut rng);
            assert!((10..=50).contains(&s));
            seen_low |= s < 20;
            seen_high |= s > 40;
        }
        assert!(seen_low && seen_high, "uniform must cover its range");
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
            ValueSize::parse("uniform:16,4096"),
            Some(ValueSize::Uniform { min: 16, max: 4096 })
        );
        assert_eq!(
            ValueSize::parse("bimodal:16,256,10"),
            Some(ValueSize::Bimodal { small: 16, large: 256, large_pct: 10 })
        );
        for bad in [
            "", "fixed", "fixed:x", "uniform:1", "bimodal:1,2", "huge:9",
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
        assert_eq!(
            LoadMode::parse("open:5000"),
            Some(LoadMode::Open { rate: 5000.0, arrival: Arrival::Poisson })
        );
        assert_eq!(
            LoadMode::parse("open:2500.5:fixed"),
            Some(LoadMode::Open { rate: 2500.5, arrival: Arrival::Fixed })
        );
        assert_eq!(
            LoadMode::parse("open:100:poisson"),
            Some(LoadMode::Open { rate: 100.0, arrival: Arrival::Poisson })
        );
        for bad in ["", "open", "open:", "open:x", "open:0", "open:-5", "open:inf",
                    "open:100:weird", "closed:1"] {
            assert_eq!(LoadMode::parse(bad), None, "{bad:?} must not parse");
        }
        assert_eq!(LoadMode::Closed.to_string(), "closed");
        assert_eq!(
            LoadMode::Open { rate: 4000.0, arrival: Arrival::Poisson }.to_string(),
            "open(4000/s poisson)"
        );
    }

    #[test]
    fn poisson_interarrivals_average_to_the_mean() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mean_ns = 1e6; // 1 ms
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| interarrival(Arrival::Poisson, mean_ns, &mut rng).as_nanos() as u64)
            .sum();
        let avg = total as f64 / n as f64;
        assert!(
            (avg - mean_ns).abs() < mean_ns * 0.05,
            "sample mean {avg} vs expected {mean_ns}"
        );
        // Fixed arrivals are exactly the mean.
        assert_eq!(
            interarrival(Arrival::Fixed, mean_ns, &mut rng),
            Duration::from_nanos(mean_ns as u64)
        );
    }

    #[test]
    fn progress_board_totals_and_printer_lifecycle() {
        let board = ProgressBoard::new(2, "batch_rtt");
        let mut a = ConnOutput { ops: 10, errors: 1, ..ConnOutput::default() };
        board.publish(0, &a);
        let b = ConnOutput { ops: 5, ..ConnOutput::default() };
        board.publish(1, &b);
        board.hist.record(1_000_000);
        assert_eq!(board.totals(), (15, 1));
        // Slots are overwritten, not accumulated: each worker owns one and
        // publishes its own running total.
        a.ops = 20;
        board.publish(0, &a);
        assert_eq!(board.totals(), (25, 1));
        // The printer fires at least once and stops promptly when asked.
        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_progress_printer(
            Arc::clone(&board),
            Duration::from_millis(10),
            Arc::clone(&stop),
        );
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Relaxed);
        handle.join().expect("printer thread exits cleanly");
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
            mode: LoadMode::Open { rate: 2000.0, arrival: Arrival::Poisson },
            ..closed
        };
        let r = run(server.addr(), &open).unwrap();
        assert!(r.scheduled_ops > 0);
        assert!(r.latency.samples > 0);
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
        assert!(r.batch_rtt.samples > 0);
        assert!(r.batch_rtt.p50 > 0);
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
            mode: LoadMode::Open { rate: 3000.0, arrival: Arrival::Poisson },
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
        assert!(r.latency.samples > 0, "open loop records per-op latency");
        assert!(r.latency.p50 > 0);
        assert!(r.latency.p999 >= r.latency.p50, "tail at least the median");
        assert_eq!(r.batch_rtt.samples, 0, "batch RTT is a closed-loop metric");
        // ~3000/s for 150 ms ≈ 450 scheduled ops; allow wide slack but
        // catch a schedule that silently stops early.
        assert!(
            r.scheduled_ops >= 150,
            "offered load too low: {} scheduled",
            r.scheduled_ops
        );
        assert!(r.hits > 0, "prefilled keyspace yields GET hits");
        server.join();
    }

    #[test]
    fn open_loop_fixed_arrivals_approximate_the_offered_rate() {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let server = Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig::for_connections(2),
        )
        .unwrap();
        let cfg = LoadGenConfig {
            connections: 2,
            duration_ms: 200,
            mode: LoadMode::Open { rate: 2000.0, arrival: Arrival::Fixed },
            key_range: 256,
            ..LoadGenConfig::default()
        };
        let r = run(server.addr(), &cfg).unwrap();
        // 2000/s over 200 ms = 400 expected arrivals; the pacer should land
        // within a generous factor on a loopback.
        assert!(
            (200..=800).contains(&r.scheduled_ops),
            "fixed pacer scheduled {} ops, expected about 400",
            r.scheduled_ops
        );
        assert!(r.unanswered <= r.scheduled_ops / 4, "loopback drain leaves little behind");
        server.join();
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
