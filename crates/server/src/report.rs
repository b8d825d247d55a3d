//! The scrape surfaces — `STATS`, `INFO [section]`, `METRICS`, `SLOWLOG` —
//! rendered from one table.
//!
//! Every quantity the server reports is one [`Row`] of [`TABLE`]: where it
//! sits in `INFO`, its legacy `STATS` key if it has one, its `METRICS`
//! series if it is a counter or a gauge, and a getter over a [`Scrape`] —
//! the whole-server reading gathered once per request. Three renderers
//! walk the table ([`stats_line`], [`info`], [`metrics`]); which surfaces a
//! row appears on follows from its [`Kind`], and a row whose getter answers
//! `None` (no hot-key engine, no byte budget, window still warming) is
//! skipped on all of them. Only the per-family and per-phase lines and the
//! `hot_key_<rank>` list are written by hand, because their keys are
//! computed from [`Family::name`] / [`Phase::name`] / a rank.
//!
//! Adding a metric is adding a row (plus a field on [`Scrape`] if nothing
//! gathered yet carries the value) and naming it in `PROTOCOL.md`; the
//! tests below hold both.

use std::fmt::Write as _;

use ascylib_shard::{CacheStatsSnapshot, HotKeyStatsSnapshot};
use ascylib_telemetry::expo::Exposition;
use ascylib_telemetry::{
    Family, FamilySnapshot, HistogramSnapshot, Phase, SlowOp, TelemetrySnapshot, WindowDelta,
};

use crate::conn::ConnCtx;
use crate::monitor::MonitorStats;
use crate::protocol::{wire, SlowlogCmd, MAX_VALUE};
use crate::server::Totals;
use crate::stats::{ConcurrencySnapshot, ServerStatsSnapshot, WorkerStats};

/// Indices of the cumulative counters carried in every window sample
/// (`WindowSample::counters`); the sampler (`Shared::window`) and the rate
/// rows of [`TABLE`] must agree on these.
pub(crate) const WIN_OPS: usize = 0;
/// Bytes read from sockets.
pub(crate) const WIN_BYTES_IN: usize = 1;
/// Bytes written to sockets.
pub(crate) const WIN_BYTES_OUT: usize = 2;
/// Error frames sent.
pub(crate) const WIN_ERRORS: usize = 3;
/// Failed CAS attempts inside the structures.
pub(crate) const WIN_CAS_FAILS: usize = 4;
/// Structure-level operation restarts.
pub(crate) const WIN_RESTARTS: usize = 5;
/// How many counters a window sample carries.
pub(crate) const WIN_COUNTERS: usize = 6;

/// One whole-server reading: everything any row's getter can ask for,
/// gathered once per scrape request.
pub(crate) struct Scrape {
    workers: u64,
    uptime_ms: u64,
    slow_ns: u64,
    slow_len: u64,
    totals: ServerStatsSnapshot,
    keys: u64,
    shards: u64,
    value_bytes: u64,
    store_ops: u64,
    store_hits: u64,
    hotkey: Option<HotKeyStatsSnapshot>,
    hot_keys: Vec<(u64, u64)>,
    cache: CacheStatsSnapshot,
    conc: ConcurrencySnapshot,
    /// `ascylib_ssmem::arena_bytes`: process-wide, not summed per worker.
    arena_bytes: u64,
    monitor: MonitorStats,
    window: Option<WindowDelta>,
    tel: TelemetrySnapshot,
    /// Data-path service time: every family except `other`, merged.
    requests: HistogramSnapshot,
}

impl Scrape {
    /// Reads the whole server once, the scraping worker's own structure
    /// counters published first.
    pub(crate) fn gather(ctx: &ConnCtx<'_>) -> Scrape {
        let shared = ctx.shared;
        ctx.conc.publish();
        let totals = shared.totals();
        let window = shared.window(&totals);
        let Totals { server, tel, conc } = totals;
        let (store_ops, store_hits) = ctx.store.ops_and_hits();
        Scrape {
            workers: shared.config.workers as u64,
            uptime_ms: shared.uptime_ms(),
            slow_ns: ctx.slow_ns,
            slow_len: shared.slow_len(),
            totals: server,
            keys: ctx.store.size() as u64,
            shards: ctx.store.shard_count() as u64,
            value_bytes: ctx.store.value_bytes(),
            store_ops,
            store_hits,
            hotkey: ctx.store.hotkey_stats(),
            hot_keys: ctx.store.hot_keys(),
            cache: ctx.store.cache_stats(),
            conc,
            arena_bytes: ascylib_ssmem::arena_bytes(),
            monitor: ctx.monitor.stats(),
            window,
            requests: tel.data_requests(),
            tel,
        }
    }
}

/// The `INFO` sections and their header names, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Server,
    Commands,
    Latency,
    Memory,
    Concurrency,
    Hotkeys,
    Cache,
}

use Section::{Cache, Commands, Concurrency, Hotkeys, Latency, Memory, Server};

const SECTIONS: [(Section, &str); 7] = [
    (Server, "server"),
    (Commands, "commands"),
    (Latency, "latency"),
    (Memory, "memory"),
    (Concurrency, "concurrency"),
    (Hotkeys, "hotkeys"),
    (Cache, "cache"),
];

/// What a row is, which decides the surfaces it appears on: every row is an
/// `INFO` line, counters and gauges are `METRICS` series as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    /// Configuration text and values derived from other rows (ratios,
    /// sums, lifetime quantiles): `INFO` only.
    Info,
}

enum Value {
    Int(u64),
    /// A value and the decimals `INFO` prints it with; `METRICS` truncates
    /// it to an integer.
    Real(f64, usize),
    Text(&'static str),
    /// Whole `key:value` lines with computed keys (the hand-written loops).
    Lines(String),
}

type Getter = fn(&Scrape) -> Option<Value>;

/// A `METRICS` name and its help text.
type Metric = (&'static str, &'static str);

struct Row {
    section: Section,
    /// The `INFO` key.
    key: &'static str,
    /// The key on the positional `STATS` line, for the rows it carries.
    stats: Option<&'static str>,
    kind: Kind,
    /// Empty for [`Kind::Info`].
    metric: Metric,
    labels: &'static [(&'static str, &'static str)],
    get: Getter,
}

impl Row {
    const fn stats(mut self, key: &'static str) -> Row {
        self.stats = Some(key);
        self
    }

    const fn labels(mut self, labels: &'static [(&'static str, &'static str)]) -> Row {
        self.labels = labels;
        self
    }
}

const fn counter(section: Section, key: &'static str, metric: Metric, get: Getter) -> Row {
    Row { section, key, stats: None, kind: Kind::Counter, metric, labels: &[], get }
}

const fn gauge(section: Section, key: &'static str, metric: Metric, get: Getter) -> Row {
    Row { section, key, stats: None, kind: Kind::Gauge, metric, labels: &[], get }
}

const fn info_only(section: Section, key: &'static str, get: Getter) -> Row {
    Row { section, key, stats: None, kind: Kind::Info, metric: ("", ""), labels: &[], get }
}

fn int(v: u64) -> Option<Value> {
    Some(Value::Int(v))
}

fn real(v: f64, decimals: usize) -> Option<Value> {
    Some(Value::Real(v, decimals))
}

fn on_off(on: bool) -> Option<Value> {
    Some(Value::Text(if on { "on" } else { "off" }))
}

fn lines(lines: String) -> Option<Value> {
    Some(Value::Lines(lines))
}

/// A windowed per-second rate, once the window is live.
fn rate(s: &Scrape, counter: usize, decimals: usize) -> Option<Value> {
    real(s.window.as_ref()?.rate(counter), decimals)
}

/// A coherence count per structure operation (the paper's scalability
/// determinants, normalized), once operations were recorded.
fn per_op(s: &Scrape, n: u64) -> Option<Value> {
    let ops = s.conc.ops.operations;
    if ops == 0 {
        return None;
    }
    real(n as f64 / ops as f64, 3)
}

/// Series that differ only by a label share one name and help.
const FRONT_READS: Metric = ("ascy_hotkey_front_reads_total", "Front-cache read probes by outcome.");
const CACHE_EXPIRED: Metric =
    ("ascy_cache_expired_total", "Expired values reclaimed, by discovery mode.");

/// Every metric, declared once, one row a line. Order matters twice:
/// `STATS` is positional and takes the rows carrying a `STATS` key in table
/// order (which is why the store gauges lead and the ssmem block sits
/// between the hot-key and cache blocks; a row that gains a `STATS` key
/// must come after every row that has one); each `INFO` section takes its
/// own rows in table order, so a new row goes after the last row of its
/// section.
#[rustfmt::skip]
static TABLE: &[Row] = &[
    gauge(Memory, "keys", ("ascy_store_keys", "Elements in the served store."), |s| int(s.keys)).stats("size"),
    gauge(Memory, "shards", ("ascy_store_shards", "Shards backing the store."), |s| int(s.shards)).stats("shards"),
    gauge(Memory, "value_bytes", ("ascy_store_value_bytes", "Live payload bytes in the value arena."), |s| int(s.value_bytes)).stats("value_bytes"),
    counter(Memory, "store_ops", ("ascy_store_ops_total", "Structure-level operations."), |s| int(s.store_ops)).stats("store_ops"),
    counter(Memory, "store_hits", ("ascy_store_hits_total", "Structure-level lookup hits."), |s| int(s.store_hits)).stats("store_hits"),
    info_only(Server, "version", |_| Some(Value::Text(env!("CARGO_PKG_VERSION")))),
    info_only(Server, "workers", |s| int(s.workers)),
    info_only(Server, "uptime_ms", |s| int(s.uptime_ms)),
    info_only(Server, "slowlog_threshold_ns", |s| int(s.slow_ns)),
    counter(Server, "connections", ("ascy_connections_total", "Connections fully served."), |s| int(s.totals.connections)).stats("conns"),
    gauge(Server, "curr_connections", ("ascy_curr_connections", "Connections currently open."), |s| int(s.totals.curr_connections)).stats("curr_conns"),
    counter(Server, "accepted", ("ascy_accepted_total", "Connections accepted."), |s| int(s.totals.accepted)).stats("accepted"),
    counter(Server, "timeouts", ("ascy_timeouts_total", "Connections evicted by the idle timeout."), |s| int(s.totals.timeouts)).stats("timeouts"),
    counter(Server, "wakeups", ("ascy_wakeups_total", "Readiness events the workers' pollers delivered for connections."), |s| int(s.totals.wakeups)).stats("wakeups"),
    counter(Server, "partial_writes", ("ascy_partial_writes_total", "Reply flushes that blocked mid-buffer and waited for writability."), |s| int(s.totals.partial_writes)).stats("partial_writes"),
    info_only(Commands, "cmd_<f>_ops", |s| lines(family_count_lines(&s.tel))),
    counter(Commands, "frames", ("ascy_frames_total", "Well-formed request frames executed."), |s| int(s.totals.frames)).stats("frames"),
    counter(Commands, "ops", ("ascy_ops_total", "Keyspace operations performed."), |s| int(s.totals.ops)).stats("ops"),
    counter(Commands, "hits", ("ascy_read_hits_total", "Per-key read lookups that found a value."), |s| int(s.totals.hits)).stats("hits"),
    counter(Commands, "misses", ("ascy_read_misses_total", "Per-key read lookups that missed."), |s| int(s.totals.misses)).stats("misses"),
    counter(Commands, "errors", ("ascy_errors_total", "Error frames sent."), |s| int(s.totals.errors)).stats("errors"),
    counter(Server, "bytes_in", ("ascy_bytes_in_total", "Bytes read from sockets."), |s| int(s.totals.bytes_in)).stats("bytes_in"),
    counter(Server, "bytes_out", ("ascy_bytes_out_total", "Bytes written to sockets."), |s| int(s.totals.bytes_out)).stats("bytes_out"),
    gauge(Server, "slowlog_len", ("ascy_slowlog_len", "Slow-op entries currently held."), |s| int(s.slow_len)),
    info_only(Latency, "request_count", |s| int(s.tel.data_ops())),
    info_only(Latency, "request_samples", |s| int(s.requests.count())),
    info_only(Latency, "request_mean_ns", |s| real(s.requests.mean(), 0)),
    info_only(Latency, "request_p50_ns", |s| int(s.requests.quantile(0.50))),
    info_only(Latency, "request_p99_ns", |s| int(s.requests.quantile(0.99))),
    info_only(Latency, "request_p999_ns", |s| int(s.requests.quantile(0.999))),
    info_only(Latency, "request_max_ns", |s| int(s.requests.max())),
    info_only(Latency, "phase_<p>_count", |s| lines(phase_lines(&s.tel))),
    info_only(Latency, "cmd_<f>_p99_ns", |s| lines(family_tail_lines(&s.tel))),
    gauge(Latency, "request_p99_10s_ns", ("ascy_window_request_p99_ns", "p99 service time over the window in nanoseconds."), |s| int(s.window.as_ref()?.hist.quantile(0.99))),
    info_only(Latency, "request_window_ms", |s| int(s.window.as_ref()?.elapsed_ms())),
    info_only(Hotkeys, "hotkey_engine", |s| on_off(s.hotkey.is_some())),
    gauge(Hotkeys, "hotkey_fronted", ("ascy_hotkey_fronted", "Hot keys currently holding a front-cache slot."), |s| int(s.hotkey?.fronted)).stats("hotkey_fronted"),
    counter(Hotkeys, "hotkey_sampled", ("ascy_hotkey_sampled_total", "Accesses fed to the hot-key sketch."), |s| int(s.hotkey?.sampled)),
    counter(Hotkeys, "hotkey_promotions", ("ascy_hotkey_promotions_total", "Keys admitted to a front-cache slot."), |s| int(s.hotkey?.promotions)),
    counter(Hotkeys, "hotkey_demotions", ("ascy_hotkey_demotions_total", "Keys that lost their front-cache slot."), |s| int(s.hotkey?.demotions)),
    counter(Hotkeys, "hotkey_front_hits", FRONT_READS, |s| int(s.hotkey?.front_hits)).labels(&[("result", "hit")]).stats("hotkey_front_hits"),
    counter(Hotkeys, "hotkey_front_absent", FRONT_READS, |s| int(s.hotkey?.front_absent)).labels(&[("result", "absent")]).stats("hotkey_front_absent"),
    counter(Hotkeys, "hotkey_front_pending", FRONT_READS, |s| int(s.hotkey?.front_pending)).labels(&[("result", "pending")]),
    info_only(Hotkeys, "hotkey_front_hit_rate", |s| real(s.hotkey?.front_hit_rate(), 4)),
    counter(Hotkeys, "hotkey_fills", ("ascy_hotkey_fills_total", "Front-cache slots filled from backing reads."), |s| int(s.hotkey?.fills)),
    counter(Hotkeys, "hotkey_poisons", ("ascy_hotkey_poisons_total", "Front-cache invalidations by bypassing writes."), |s| int(s.hotkey?.poisons)),
    counter(Hotkeys, "hotkey_delegated", ("ascy_hotkey_delegated_total", "Writes to fronted keys applied write-through under the slot word."), |s| int(s.hotkey?.delegated)).stats("hotkey_delegated"),
    info_only(Hotkeys, "hot_key_<rank>", |s| lines(hot_key_lines(&s.hot_keys))),
    counter(Memory, "ssmem_allocations", ("ascy_ssmem_allocations_total", "Epoch-allocator objects handed out."), |s| int(s.conc.ssmem.allocations)).stats("ssmem_allocations"),
    counter(Memory, "ssmem_frees", ("ascy_ssmem_frees_total", "Objects released into the epoch limbo lists."), |s| int(s.conc.ssmem.frees)).stats("ssmem_frees"),
    counter(Memory, "ssmem_reclaimed", ("ascy_ssmem_reclaimed_total", "Limbo objects whose grace period expired."), |s| int(s.conc.ssmem.reclaimed)).stats("ssmem_reclaimed"),
    counter(Memory, "ssmem_reused", ("ascy_ssmem_reused_total", "Allocations served from reclaimed memory."), |s| int(s.conc.ssmem.reused)),
    counter(Memory, "ssmem_gc_passes", ("ascy_ssmem_gc_passes_total", "Epoch-advance collection passes."), |s| int(s.conc.ssmem.gc_passes)),
    gauge(Memory, "ssmem_pending", ("ascy_ssmem_pending", "Objects waiting in limbo lists across workers."), |s| int(s.conc.ssmem.pending)).stats("ssmem_pending"),
    gauge(Memory, "ssmem_pooled", ("ascy_ssmem_pooled", "Reclaimed objects pooled for reuse across workers."), |s| int(s.conc.ssmem.pooled)).stats("ssmem_pooled"),
    gauge(Memory, "ssmem_arena_bytes", ("ascy_ssmem_arena_bytes", "Bytes the epoch allocator carved from its huge-page chunks, process-wide."), |s| int(s.arena_bytes)),
    info_only(Cache, "cache_budget", |s| on_off(s.cache.budget_bytes > 0)),
    gauge(Cache, "cache_budget_bytes", ("ascy_cache_budget_bytes", "Configured payload-byte budget (0 = unbounded)."), |s| int(s.cache.budget_bytes)).stats("cache_budget_bytes"),
    gauge(Cache, "cache_live_bytes", ("ascy_cache_live_bytes", "Payload bytes currently reserved against the budget."), |s| int(s.cache.live_bytes)).stats("cache_live_bytes"),
    info_only(Cache, "cache_fill_ratio", |s| (s.cache.budget_bytes > 0).then(|| Value::Real(s.cache.live_bytes as f64 / s.cache.budget_bytes as f64, 4))),
    counter(Cache, "cache_evictions", ("ascy_cache_evictions_total", "Values evicted by the CLOCK policy to fit the budget."), |s| int(s.cache.evictions)).stats("cache_evictions"),
    counter(Cache, "cache_forced_admissions", ("ascy_cache_forced_admissions_total", "Over-budget stores admitted when nothing was evictable."), |s| int(s.cache.forced)),
    counter(Cache, "cache_expired_lazy", CACHE_EXPIRED, |s| int(s.cache.expired_lazy)).labels(&[("mode", "lazy")]).stats("cache_expired_lazy"),
    counter(Cache, "cache_expired_swept", CACHE_EXPIRED, |s| int(s.cache.expired_swept)).labels(&[("mode", "swept")]).stats("cache_expired_swept"),
    info_only(Cache, "cache_expired_total", |s| int(s.cache.expired())),
    gauge(Cache, "cache_ttl_live", ("ascy_cache_ttl_live", "Live values currently carrying an expiry deadline."), |s| int(s.cache.ttl_live)),
    counter(Concurrency, "coherence_shared_stores", ("ascy_coherence_shared_stores_total", "Stores to shared cache lines inside the structures."), |s| int(s.conc.ops.shared_stores)),
    counter(Concurrency, "coherence_atomic_ops", ("ascy_coherence_atomic_ops_total", "Atomic RMW operations (CAS/TAS/FAI) attempted."), |s| int(s.conc.ops.atomic_ops)),
    counter(Concurrency, "coherence_atomic_failures", ("ascy_coherence_atomic_failures_total", "Atomic RMW operations that failed and retried."), |s| int(s.conc.ops.atomic_failures)),
    counter(Concurrency, "coherence_lock_acquisitions", ("ascy_coherence_lock_acquisitions_total", "Lock acquisitions inside lock-based structures."), |s| int(s.conc.ops.lock_acquisitions)),
    counter(Concurrency, "coherence_restarts", ("ascy_coherence_restarts_total", "Structure operations that restarted from scratch."), |s| int(s.conc.ops.restarts)),
    counter(Concurrency, "coherence_waits", ("ascy_coherence_waits_total", "Spin-wait episodes on in-flight concurrent work."), |s| int(s.conc.ops.waits)),
    counter(Concurrency, "coherence_nodes_traversed", ("ascy_coherence_nodes_traversed_total", "Nodes visited during structure traversals."), |s| int(s.conc.ops.nodes_traversed)),
    counter(Concurrency, "coherence_operations", ("ascy_coherence_operations_total", "Structure-level operations recorded."), |s| int(s.conc.ops.operations)),
    counter(Concurrency, "hint_hits", ("ascy_hint_hits_total", "Point operations that reached their node through a skip-list hint, not a walk."), |s| int(s.conc.ops.hint_hits)),
    info_only(Concurrency, "coherence_stores_per_op", |s| per_op(s, s.conc.ops.shared_stores)),
    info_only(Concurrency, "coherence_atomics_per_op", |s| per_op(s, s.conc.ops.atomic_ops)),
    gauge(Concurrency, "monitor_subscribers", ("ascy_monitor_subscribers", "Connections subscribed to the MONITOR stream."), |s| int(s.monitor.subscribers)),
    counter(Concurrency, "monitor_events", ("ascy_monitor_events_total", "Trace events published to the MONITOR stream."), |s| int(s.monitor.events)),
    counter(Concurrency, "monitor_dropped", ("ascy_monitor_dropped_total", "Trace events dropped on full subscriber sinks."), |s| int(s.monitor.dropped)),
    // `0` until the ring holds two samples; the rows after it appear once
    // the window has a measurable span.
    info_only(Concurrency, "window_samples", |s| int(s.window.as_ref().map_or(0, |w| w.samples as u64))),
    gauge(Concurrency, "window_span_ms", ("ascy_window_span_ms", "Span of the telemetry window backing the rate gauges."), |s| int(s.window.as_ref()?.elapsed_ms())),
    gauge(Concurrency, "ops_per_sec", ("ascy_window_ops_per_sec", "Keyspace operations per second over the window."), |s| rate(s, WIN_OPS, 1)),
    gauge(Concurrency, "net_in_bytes_per_sec", ("ascy_window_bytes_in_per_sec", "Socket bytes read per second over the window."), |s| rate(s, WIN_BYTES_IN, 0)),
    gauge(Concurrency, "net_out_bytes_per_sec", ("ascy_window_bytes_out_per_sec", "Socket bytes written per second over the window."), |s| rate(s, WIN_BYTES_OUT, 0)),
    gauge(Concurrency, "errors_per_sec", ("ascy_window_errors_per_sec", "Error frames per second over the window."), |s| rate(s, WIN_ERRORS, 1)),
    gauge(Concurrency, "cas_fails_per_sec", ("ascy_window_cas_fails_per_sec", "Failed structure CAS attempts per second over the window."), |s| rate(s, WIN_CAS_FAILS, 1)),
    gauge(Concurrency, "restarts_per_sec", ("ascy_window_restarts_per_sec", "Structure restarts per second over the window."), |s| rate(s, WIN_RESTARTS, 1)),
];

/// `# commands`: per-family request and lookup-outcome counts.
fn family_count_lines(tel: &TelemetrySnapshot) -> String {
    let mut s = String::new();
    for f in Family::ALL {
        let fam = tel.family(f);
        let _ = writeln!(s, "cmd_{}_ops:{}", f.name(), fam.ops());
        match f {
            Family::Get | Family::MGet => {
                let _ = writeln!(s, "cmd_{}_hits:{}", f.name(), fam.hits);
                let _ = writeln!(s, "cmd_{}_misses:{}", f.name(), fam.misses);
            }
            Family::Del => {
                let _ = writeln!(s, "cmd_del_found:{}", fam.hits);
                let _ = writeln!(s, "cmd_del_not_found:{}", fam.misses);
            }
            _ => {}
        }
    }
    s
}

/// `# latency`: per-phase sample count and tail.
fn phase_lines(tel: &TelemetrySnapshot) -> String {
    let mut s = String::new();
    for p in Phase::ALL {
        let h = &tel.phases[p.index()];
        let _ = writeln!(s, "phase_{}_count:{}", p.name(), h.count());
        let _ = writeln!(s, "phase_{}_p99_ns:{}", p.name(), h.quantile(0.99));
    }
    s
}

/// `# latency`: per-family service-time tail (data families).
fn family_tail_lines(tel: &TelemetrySnapshot) -> String {
    let mut s = String::new();
    for f in Family::DATA {
        let _ = writeln!(s, "cmd_{}_p99_ns:{}", f.name(), tel.family(f).hist.quantile(0.99));
    }
    s
}

/// Fronted keys `INFO hotkeys` lists; a default front holds ~2 000.
const HOT_KEY_LINES: usize = 16;

/// `# hotkeys`: the [`HOT_KEY_LINES`] hottest fronted keys, hottest first.
fn hot_key_lines(hot_keys: &[(u64, u64)]) -> String {
    let mut s = String::new();
    for (rank, (key, est)) in hot_keys.iter().take(HOT_KEY_LINES).enumerate() {
        let _ = writeln!(s, "hot_key_{rank}:key={key} est={est}");
    }
    s
}

/// The per-family `METRICS` counters (label `family`).
type FamilyCounter = (Metric, fn(&FamilySnapshot) -> u64);
const FAMILY_COUNTERS: [FamilyCounter; 3] = [
    (("ascy_cmd_requests_total", "Requests recorded per command family."), |f| f.ops()),
    (("ascy_cmd_hits_total", "Per-key hits (found keys for del) per command family."), |f| f.hits),
    (
        ("ascy_cmd_misses_total", "Per-key misses (absent keys for del) per command family."),
        |f| f.misses,
    ),
];

/// The latency histograms (labels `family` and `phase`).
const REQUEST_DURATION: Metric = (
    "ascy_request_duration_ns",
    "Request service time (execute phase, sampled) in nanoseconds.",
);
const PHASE_DURATION: Metric =
    ("ascy_phase_duration_ns", "Time per request-processing phase in nanoseconds.");

/// The positional `STATS` line: every row carrying a `STATS` key, in table
/// order.
fn stats_line(s: &Scrape) -> String {
    let mut line = String::new();
    for row in TABLE {
        if let (Some(key), Some(Value::Int(v))) = (row.stats, (row.get)(s)) {
            if !line.is_empty() {
                line.push(' ');
            }
            let _ = write!(line, "{key}={v}");
        }
    }
    line
}

const UNKNOWN_SECTION: &str =
    "unknown INFO section (server|commands|latency|memory|concurrency|hotkeys|cache)";

/// The `INFO` report: all seven sections separated by blank lines, or just
/// the named one. An unknown section name is a semantic error.
fn info(s: &Scrape, only: Option<&str>) -> Result<String, &'static str> {
    if only.is_some_and(|only| SECTIONS.iter().all(|(_, name)| *name != only)) {
        return Err(UNKNOWN_SECTION);
    }
    let mut sections = Vec::new();
    for (section, name) in SECTIONS {
        if only.is_some_and(|only| only != name) {
            continue;
        }
        let mut body = format!("# {name}\n");
        for row in TABLE.iter().filter(|row| row.section == section) {
            let key = row.key;
            let _ = match (row.get)(s) {
                Some(Value::Int(v)) => writeln!(body, "{key}:{v}"),
                Some(Value::Real(v, decimals)) => writeln!(body, "{key}:{v:.decimals$}"),
                Some(Value::Text(v)) => writeln!(body, "{key}:{v}"),
                Some(Value::Lines(lines)) => body.write_str(&lines),
                None => Ok(()),
            };
        }
        sections.push(body);
    }
    Ok(sections.join("\n"))
}

/// The `METRICS` body: Prometheus text exposition of every counter and
/// gauge row, then the per-family counters, and the latency histograms
/// last — if the body has to be cut at the reply cap, only histogram
/// buckets are lost.
fn metrics(s: &Scrape) -> String {
    let mut e = Exposition::new();
    for row in TABLE {
        let value = match (row.get)(s) {
            Some(Value::Int(v)) => v,
            Some(Value::Real(v, _)) => v as u64,
            _ => continue,
        };
        let (name, help) = row.metric;
        match row.kind {
            Kind::Counter => e.counter(name, help, row.labels, value),
            Kind::Gauge => e.gauge(name, help, row.labels, value),
            Kind::Info => {}
        }
    }
    for ((name, help), get) in FAMILY_COUNTERS {
        for f in Family::ALL {
            e.counter(name, help, &[("family", f.name())], get(s.tel.family(f)));
        }
    }
    for f in Family::ALL {
        let (name, help) = REQUEST_DURATION;
        e.histogram(name, help, &[("family", f.name())], &s.tel.family(f).hist);
    }
    for p in Phase::ALL {
        let (name, help) = PHASE_DURATION;
        e.histogram(name, help, &[("phase", p.name())], &s.tel.phases[p.index()]);
    }
    e.finish()
}

/// The `SLOWLOG GET` body: one line per entry, newest first.
fn render_slowlog(ops: &[SlowOp]) -> String {
    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i} family={} key={} bytes={} duration_ns={} unix_ms={} worker={} shard={}",
            op.family.name(),
            op.key,
            op.bytes,
            op.duration_ns,
            op.unix_ms,
            op.worker,
            op.shard,
        );
    }
    out
}

/// Writes `body` as one bulk frame, truncating at the last full line under
/// the reply value cap (with a marker line) — the client-side parser
/// rejects bulk frames over [`MAX_VALUE`], so a report body must never
/// exceed it.
fn bulk_capped(out: &mut Vec<u8>, body: &str) {
    const MARKER: &str = "# truncated\n";
    if body.len() <= MAX_VALUE {
        wire::bulk(out, body.as_bytes());
        return;
    }
    let budget = MAX_VALUE - MARKER.len();
    let cut = body.as_bytes()[..budget]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut truncated = String::with_capacity(cut + MARKER.len());
    truncated.push_str(&body[..cut]);
    truncated.push_str(MARKER);
    wire::bulk(out, truncated.as_bytes());
}

/// Answers a `STATS` frame.
pub(crate) fn answer_stats(ctx: &ConnCtx<'_>, out: &mut Vec<u8>) {
    wire::simple(out, &stats_line(&Scrape::gather(ctx)));
}

/// Answers an `INFO [section]` frame; an unknown section is answered (and
/// counted) as an error in-band.
pub(crate) fn answer_info(ctx: &ConnCtx<'_>, section: Option<&str>, out: &mut Vec<u8>) {
    match info(&Scrape::gather(ctx), section) {
        Ok(body) => bulk_capped(out, &body),
        Err(msg) => {
            WorkerStats::bump(&ctx.stats.errors, 1);
            wire::error(out, msg);
        }
    }
}

/// Answers a `METRICS` frame.
pub(crate) fn answer_metrics(ctx: &ConnCtx<'_>, out: &mut Vec<u8>) {
    bulk_capped(out, &metrics(&Scrape::gather(ctx)));
}

/// Answers a `SLOWLOG GET|RESET|LEN` frame.
pub(crate) fn answer_slowlog(ctx: &ConnCtx<'_>, cmd: &SlowlogCmd, out: &mut Vec<u8>) {
    match cmd {
        SlowlogCmd::Get => bulk_capped(out, &render_slowlog(&ctx.shared.slow_ops())),
        SlowlogCmd::Reset => {
            ctx.shared.slow_reset();
            wire::simple(out, "OK");
        }
        SlowlogCmd::Len => wire::int(out, ctx.shared.slow_len()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::conn::{execute, ConnBufs};
    use crate::protocol::Request;
    use crate::server::Shared;
    use crate::store::{BlobStore, KvStore};
    use ascylib::skiplist::FraserOptSkipList;
    use ascylib_shard::BlobMap;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Runs `test` as the one worker of a server over `store`.
    pub(crate) fn with_store(store: impl KvStore, test: impl FnOnce(&ConnCtx<'_>)) {
        test(&Shared::for_tests(Arc::new(store)).ctx(0));
    }

    pub(crate) fn run_ctx(test: impl FnOnce(&ConnCtx<'_>)) {
        let map = Arc::new(BlobMap::new(1, |_| FraserOptSkipList::new()));
        with_store(BlobStore::new(map), test);
    }

    fn render_info(ctx: &ConnCtx<'_>, section: Option<&str>) -> Result<String, &'static str> {
        info(&Scrape::gather(ctx), section)
    }

    fn render_metrics(ctx: &ConnCtx<'_>) -> String {
        metrics(&Scrape::gather(ctx))
    }

    #[test]
    fn info_and_metrics_render_from_served_traffic() {
        run_ctx(|ctx| {
            let mut bufs = ConnBufs::default();
            let mut out = Vec::new();
            execute(&Request::Set(5, b"abc".to_vec()), ctx, &mut bufs, &mut out);
            execute(&Request::Get(5), ctx, &mut bufs, &mut out);
            execute(&Request::Get(6), ctx, &mut bufs, &mut out);
            execute(&Request::Del(5), ctx, &mut bufs, &mut out);
            execute(&Request::Del(5), ctx, &mut bufs, &mut out);
            let server = ctx.shared.totals().server;
            assert_eq!(server.hits, 1);
            assert_eq!(server.misses, 1);

            let info = render_info(ctx, None).unwrap();
            for header in ["# server", "# commands", "# latency", "# memory", "# concurrency"] {
                assert!(info.contains(header), "INFO is missing {header}:\n{info}");
            }
            assert!(info.contains("cmd_get_hits:1"));
            assert!(info.contains("cmd_get_misses:1"));
            assert!(info.contains("cmd_del_found:1"));
            assert!(info.contains("cmd_del_not_found:1"));
            let only = render_info(ctx, Some("memory")).unwrap();
            assert!(only.starts_with("# memory") && !only.contains("# server"));
            assert!(render_info(ctx, Some("bogus")).is_err());

            let metrics = render_metrics(ctx);
            ascylib_telemetry::expo::validate(&metrics).expect("METRICS body validates");
            assert!(metrics.contains("ascy_cmd_requests_total{family=\"get\"}"));
            assert!(metrics.contains("ascy_request_duration_ns_bucket"));
        });
    }

    #[test]
    fn hotkey_surfaces_render_and_validate() {
        use ascylib_shard::HotKeyConfig;
        let map = Arc::new(BlobMap::with_hotkeys(1, HotKeyConfig::eager(8), |_| {
            FraserOptSkipList::new()
        }));
        let store = Arc::new(BlobStore::new(Arc::clone(&map)));
        let shared = Shared::for_tests(store.clone());
        let ctx = shared.ctx(0);
        let mut bufs = ConnBufs::default();
        let mut out = Vec::new();
        execute(&Request::Set(7, b"hot".to_vec()), &ctx, &mut bufs, &mut out);
        for _ in 0..64 {
            execute(&Request::Get(7), &ctx, &mut bufs, &mut out);
        }
        execute(&Request::Set(7, b"hotter".to_vec()), &ctx, &mut bufs, &mut out);
        execute(&Request::Get(7), &ctx, &mut bufs, &mut out);
        let h = store.hotkey_stats().expect("engine is attached");
        assert!(h.front_hits > 0, "64 gets on one key must hit the front cache: {h:?}");

        out.clear();
        execute(&Request::Stats, &ctx, &mut bufs, &mut out);
        let stats_line = String::from_utf8_lossy(&out).into_owned();
        for field in ["hotkey_fronted=", "hotkey_front_hits=", "hotkey_delegated="] {
            assert!(stats_line.contains(field), "STATS is missing {field}: {stats_line}");
        }

        let info = render_info(&ctx, Some("hotkeys")).unwrap();
        assert!(info.starts_with("# hotkeys"));
        assert!(info.contains("hotkey_engine:on"));
        assert!(info.contains("hotkey_front_hits:"));
        assert!(info.contains("hotkey_front_hit_rate:"));
        assert!(info.contains("hot_key_0:key=7 est="), "top-k line missing:\n{info}");
        assert!(render_info(&ctx, None).unwrap().contains("# hotkeys"));

        let metrics = render_metrics(&ctx);
        ascylib_telemetry::expo::validate(&metrics).expect("METRICS body validates");
        for family in [
            "ascy_hotkey_fronted ",
            "ascy_hotkey_sampled_total ",
            "ascy_hotkey_front_reads_total{result=\"hit\"}",
            "ascy_hotkey_front_reads_total{result=\"absent\"}",
            "ascy_hotkey_front_reads_total{result=\"pending\"}",
            "ascy_hotkey_fills_total ",
            "ascy_hotkey_delegated_total ",
        ] {
            assert!(metrics.contains(family), "METRICS is missing {family}");
        }

        // Engine-less stores keep the section but mark the engine off and
        // export no hotkey metric families.
        run_ctx(|ctx| {
            let info = render_info(ctx, Some("hotkeys")).unwrap();
            assert!(info.contains("hotkey_engine:off"));
            assert!(!render_metrics(ctx).contains("ascy_hotkey"));
            out.clear();
            let mut bufs = ConnBufs::default();
            execute(&Request::Stats, ctx, &mut bufs, &mut out);
            assert!(!String::from_utf8_lossy(&out).contains("hotkey_"));
        });
    }

    #[test]
    fn cache_surfaces_and_expiry_verbs_render_and_validate() {
        use ascylib_shard::{CacheConfig, FakeClock, HotKeyConfig};
        let clock = Arc::new(FakeClock::new());
        clock.set(1_000);
        let cfg = CacheConfig::unbounded()
            .with_budget(16 * 1024)
            .with_clock(clock.clone());
        let map = Arc::new(BlobMap::with_config(1, HotKeyConfig::default(), cfg, |_| {
            FraserOptSkipList::new()
        }));
        let store = Arc::new(BlobStore::new(Arc::clone(&map)));
        let shared = Shared::for_tests(store.clone());
        let ctx = shared.ctx(0);
        let mut bufs = ConnBufs::default();
        let mut out = Vec::new();

        // The expiry verbs run end to end: lease a key, inspect the lease,
        // strip it, re-arm it, and probe a key that was never set.
        execute(&Request::SetEx(7, b"lease".to_vec(), 60), &ctx, &mut bufs, &mut out);
        execute(&Request::Ttl(7), &ctx, &mut bufs, &mut out);
        execute(&Request::Persist(7), &ctx, &mut bufs, &mut out);
        execute(&Request::Ttl(7), &ctx, &mut bufs, &mut out);
        execute(&Request::Expire(7, 5), &ctx, &mut bufs, &mut out);
        execute(&Request::Ttl(9), &ctx, &mut bufs, &mut out);
        assert_eq!(
            String::from_utf8_lossy(&out),
            ":1\r\n:60\r\n:1\r\n+none\r\n:1\r\n_\r\n",
            "SETEX/TTL/PERSIST/EXPIRE reply stream"
        );
        // Past the deadline the lease reads back as a miss (lazy expiry).
        clock.advance(6_000);
        out.clear();
        execute(&Request::Get(7), &ctx, &mut bufs, &mut out);
        assert_eq!(out, b"_\r\n", "an expired lease must read as a miss");

        // Churn well past the 16 KiB budget so CLOCK eviction engages.
        let payload = vec![0xAB; 256];
        for k in 1..=256u64 {
            execute(&Request::Set(k, payload.clone()), &ctx, &mut bufs, &mut out);
        }
        let c = store.cache_stats();
        assert!(c.evictions > 0, "256 x 256 B against 16 KiB must evict: {c:?}");
        assert_eq!(c.forced, 0, "values fit the budget, nothing should be forced: {c:?}");
        assert!(c.live_bytes <= c.budget_bytes, "budget overrun: {c:?}");
        assert!(c.expired_lazy >= 1, "the lapsed lease was collected lazily: {c:?}");

        out.clear();
        execute(&Request::Stats, &ctx, &mut bufs, &mut out);
        let stats_line = String::from_utf8_lossy(&out).into_owned();
        for field in [
            "cache_budget_bytes=",
            "cache_live_bytes=",
            "cache_evictions=",
            "cache_expired_lazy=",
            "cache_expired_swept=",
        ] {
            assert!(stats_line.contains(field), "STATS is missing {field}: {stats_line}");
        }

        let info = render_info(&ctx, Some("cache")).unwrap();
        assert!(info.starts_with("# cache"));
        assert!(info.contains("cache_budget:on"));
        assert!(info.contains("cache_budget_bytes:16384"));
        assert!(info.contains("cache_fill_ratio:"), "bounded tiers report fill:\n{info}");
        assert!(info.contains("cache_ttl_live:"));
        assert!(render_info(&ctx, None).unwrap().contains("# cache"));

        let metrics = render_metrics(&ctx);
        ascylib_telemetry::expo::validate(&metrics).expect("METRICS body validates");
        for family in [
            "ascy_cache_budget_bytes ",
            "ascy_cache_live_bytes ",
            "ascy_cache_ttl_live ",
            "ascy_cache_evictions_total ",
            "ascy_cache_forced_admissions_total ",
            "ascy_cache_expired_total{mode=\"lazy\"}",
            "ascy_cache_expired_total{mode=\"swept\"}",
        ] {
            assert!(metrics.contains(family), "METRICS is missing {family}");
        }

    }

    /// The plainest store served — no engine, no budget — is
    /// still a cache tier: the expiry verbs run and `INFO cache` reports
    /// live bytes against a budget that is off.
    #[test]
    fn expiry_verbs_and_info_cache_work_without_an_engine_or_a_budget() {
        run_ctx(|ctx| {
            let mut bufs = ConnBufs::default();
            let mut out = Vec::new();
            execute(&Request::SetEx(3, b"lease".to_vec(), 60), ctx, &mut bufs, &mut out);
            execute(&Request::Ttl(3), ctx, &mut bufs, &mut out);
            execute(&Request::Persist(3), ctx, &mut bufs, &mut out);
            execute(&Request::Ttl(3), ctx, &mut bufs, &mut out);
            execute(&Request::Expire(3, 5), ctx, &mut bufs, &mut out);
            execute(&Request::Ttl(3), ctx, &mut bufs, &mut out);
            assert_eq!(
                String::from_utf8_lossy(&out),
                ":1\r\n:60\r\n:1\r\n+none\r\n:1\r\n:5\r\n",
                "SETEX/TTL/PERSIST/EXPIRE reply stream"
            );
            let errors = ctx.stats.errors.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(errors, 0, "no expiry verb was rejected");
            let info = render_info(ctx, Some("cache")).unwrap();
            assert!(info.contains("cache_budget:off"), "{info}");
            assert!(info.contains("cache_budget_bytes:0"), "{info}");
            assert!(info.contains("cache_live_bytes:5"), "{info}");
            assert!(info.contains("cache_ttl_live:1"), "{info}");
            assert!(!info.contains("cache_fill_ratio"), "no budget, no fill ratio:\n{info}");
            assert!(!info.contains("cache_tier"), "{info}");
        });
    }

    #[test]
    fn oversized_report_bodies_truncate_at_a_line_boundary() {
        let line = "x".repeat(99);
        let mut body = String::new();
        while body.len() <= MAX_VALUE + 1000 {
            body.push_str(&line);
            body.push('\n');
        }
        let mut out = Vec::new();
        bulk_capped(&mut out, &body);
        let header_end = out.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&out[1..header_end - 1]).unwrap();
        let len: usize = header.parse().unwrap();
        assert!(len <= MAX_VALUE, "bulk of {len} bytes would be rejected client-side");
        let payload = &out[header_end + 1..header_end + 1 + len];
        assert!(payload.ends_with(b"# truncated\n"));
        // Whole lines only: every chunk before the marker is a full line.
        let text = std::str::from_utf8(payload).unwrap();
        for l in text.lines() {
            assert!(l == "# truncated" || l.len() == 99);
        }
        // Small bodies pass through untouched.
        let mut small = Vec::new();
        bulk_capped(&mut small, "hello\n");
        assert_eq!(small, b"$6\r\nhello\n\r\n");
    }

    #[test]
    fn info_concurrency_and_windowed_rates_render_from_served_traffic() {
        run_ctx(|ctx| {
            let mut bufs = ConnBufs::default();
            let mut out = Vec::new();
            for k in 1..=32u64 {
                execute(&Request::Set(k, b"v".to_vec()), ctx, &mut bufs, &mut out);
                execute(&Request::Get(k), ctx, &mut bufs, &mut out);
            }
            let first = render_info(ctx, Some("concurrency")).unwrap();
            assert!(first.starts_with("# concurrency"), "{first}");
            assert!(first.contains("coherence_atomic_ops:"), "{first}");
            assert!(first.contains("monitor_subscribers:0"), "{first}");
            // The structures really moved the coherence counters.
            let conc = ctx.shared.totals().conc;
            assert!(
                conc.ops.operations > 0,
                "served sets/gets must fold into the concurrency block: {conc:?}"
            );
            // The second scrape has two window samples and renders rates.
            let second = render_info(ctx, Some("concurrency")).unwrap();
            assert!(second.contains("ops_per_sec:"), "{second}");
            assert!(second.contains("window_span_ms:"), "{second}");
            assert!(second.contains("cas_fails_per_sec:"), "{second}");
            // Memory section carries the allocator aggregates.
            let mem = render_info(ctx, Some("memory")).unwrap();
            assert!(mem.contains("ssmem_allocations:"), "{mem}");
            assert!(mem.contains("ssmem_pending:"), "{mem}");
            // The windowed tail-latency fields land in the latency section.
            let lat = render_info(ctx, Some("latency")).unwrap();
            assert!(lat.contains("request_p99_10s_ns:"), "{lat}");
            // STATS rides the allocator aggregates at the end of the line.
            out.clear();
            execute(&Request::Stats, ctx, &mut bufs, &mut out);
            let line = String::from_utf8_lossy(&out).into_owned();
            assert!(line.contains("ssmem_allocations="), "{line}");
            // METRICS exports the new families and still validates.
            let metrics = render_metrics(ctx);
            ascylib_telemetry::expo::validate(&metrics).expect("METRICS body validates");
            for family in [
                "ascy_coherence_atomic_ops_total ",
                "ascy_coherence_operations_total ",
                "ascy_ssmem_allocations_total ",
                "ascy_ssmem_pending ",
                "ascy_monitor_subscribers ",
                "ascy_window_ops_per_sec ",
                "ascy_window_request_p99_ns ",
            ] {
                assert!(metrics.contains(family), "METRICS is missing {family}:\n{metrics}");
            }
        });
    }

    /// A fully equipped server: hot-key engine on, byte budget on, traffic
    /// served, and one scrape already taken so the window is live. Every
    /// row's getter answers `Some` here.
    fn equipped(test: impl FnOnce(&ConnCtx<'_>)) {
        use ascylib_shard::{CacheConfig, HotKeyConfig};
        let cfg = CacheConfig::unbounded().with_budget(16 * 1024);
        let map = Arc::new(BlobMap::with_config(1, HotKeyConfig::eager(8), cfg, |_| {
            FraserOptSkipList::new()
        }));
        with_store(BlobStore::new(map), |ctx| {
            let mut bufs = ConnBufs::default();
            let mut out = Vec::new();
            execute(&Request::Set(7, b"hot".to_vec()), ctx, &mut bufs, &mut out);
            for _ in 0..64 {
                execute(&Request::Get(7), ctx, &mut bufs, &mut out);
            }
            Scrape::gather(ctx);
            test(ctx);
        });
    }

    fn words(list: &str) -> Vec<&str> {
        list.split_whitespace().collect()
    }

    /// The keys of an `INFO` body's `key:value` lines, in order.
    fn info_keys(body: &str) -> Vec<&str> {
        body.lines().filter_map(|l| l.split_once(':')).map(|(key, _)| key).collect()
    }

    /// The keys of a `STATS` line's `key=value` fields, in order.
    fn stats_keys(line: &str) -> Vec<&str> {
        line.split(' ').filter_map(|f| f.split_once('=')).map(|(key, _)| key).collect()
    }

    /// `name=kind` for every `# TYPE` line of a `METRICS` body.
    fn metric_types(body: &str) -> BTreeSet<String> {
        body.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|t| t.replace(' ', "="))
            .collect()
    }

    /// Every series identity of a `METRICS` body: name and labels, the
    /// histogram `le` label left out.
    fn metric_series(body: &str) -> BTreeSet<String> {
        body.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(series, _)| match series.find("le=\"") {
                Some(at) => match series[..at].trim_end_matches(',') {
                    bare if bare.ends_with('{') => bare.trim_end_matches('{').to_string(),
                    labelled => format!("{labelled}}}"),
                },
                None => series.to_string(),
            })
            .collect()
    }

    /// The payload of a bulk reply frame.
    fn bulk_body(frame: &[u8]) -> &str {
        let header_end = frame.iter().position(|&b| b == b'\n').unwrap();
        let len: usize = std::str::from_utf8(&frame[1..header_end - 1]).unwrap().parse().unwrap();
        std::str::from_utf8(&frame[header_end + 1..header_end + 1 + len]).unwrap()
    }

    /// The names the parent commit's hand-written renderers produced for a
    /// fully equipped server (hot-key engine on, byte budget on, window
    /// live): captured by printing them from a probe test in a checkout of
    /// that commit, before those renderers were deleted. Names and order
    /// only; no values.
    const GOLDEN_STATS: &str = "\
        size shards value_bytes store_ops store_hits conns curr_conns accepted timeouts wakeups
        partial_writes frames ops hits misses errors bytes_in bytes_out hotkey_fronted
        hotkey_front_hits hotkey_front_absent hotkey_delegated hotkey_batches ssmem_allocations
        ssmem_frees ssmem_reclaimed ssmem_pending ssmem_pooled cache_budget_bytes
        cache_live_bytes cache_evictions cache_expired_lazy cache_expired_swept";

    const GOLDEN_INFO: [(&str, &str); 7] = [
        (
            "server",
            "\
             version workers uptime_ms telemetry slowlog_threshold_ns curr_connections
             connections accepted",
        ),
        (
            "commands",
            "\
             cmd_get_ops cmd_get_hits cmd_get_misses cmd_set_ops cmd_del_ops cmd_del_found
             cmd_del_not_found cmd_mget_ops cmd_mget_hits cmd_mget_misses cmd_mset_ops
             cmd_scan_ops cmd_other_ops frames ops hits misses errors",
        ),
        (
            "latency",
            "\
             request_count request_samples request_mean_ns request_p50_ns request_p99_ns
             request_p999_ns request_max_ns phase_parse_count phase_parse_p99_ns
             phase_execute_count phase_execute_p99_ns phase_flush_count phase_flush_p99_ns
             cmd_get_p99_ns cmd_set_p99_ns cmd_del_p99_ns cmd_mget_p99_ns cmd_mset_p99_ns
             cmd_scan_p99_ns request_p99_10s_ns request_window_ms",
        ),
        (
            "memory",
            "\
             keys shards value_bytes store_ops store_hits ssmem_allocations ssmem_frees
             ssmem_reclaimed ssmem_reused ssmem_gc_passes ssmem_pending ssmem_pooled",
        ),
        (
            "concurrency",
            "\
             coherence_shared_stores coherence_atomic_ops coherence_atomic_failures
             coherence_lock_acquisitions coherence_restarts coherence_waits
             coherence_nodes_traversed coherence_operations coherence_stores_per_op
             coherence_atomics_per_op monitor_subscribers monitor_events monitor_dropped
             window_samples window_span_ms ops_per_sec net_in_bytes_per_sec
             net_out_bytes_per_sec errors_per_sec cas_fails_per_sec restarts_per_sec",
        ),
        (
            "hotkeys",
            "\
             hotkey_engine hotkey_fronted hotkey_sampled hotkey_promotions hotkey_demotions
             hotkey_front_hits hotkey_front_absent hotkey_front_pending hotkey_front_hit_rate
             hotkey_fills hotkey_poisons hotkey_delegated hotkey_combined_batches
             hotkey_avg_batch hot_key_0",
        ),
        (
            "cache",
            "\
             cache_tier cache_budget cache_budget_bytes cache_live_bytes cache_fill_ratio
             cache_evictions cache_forced_admissions cache_expired_lazy cache_expired_swept
             cache_expired_total cache_ttl_live",
        ),
    ];

    /// `name kind` per family, in the parent's emission order.
    const GOLDEN_TYPES: &str = "\
        ascy_curr_connections=gauge ascy_connections_total=counter ascy_accepted_total=counter
        ascy_timeouts_total=counter ascy_frames_total=counter ascy_ops_total=counter
        ascy_read_hits_total=counter ascy_read_misses_total=counter ascy_errors_total=counter
        ascy_bytes_in_total=counter ascy_bytes_out_total=counter ascy_store_keys=gauge
        ascy_store_shards=gauge ascy_store_value_bytes=gauge ascy_store_ops_total=counter
        ascy_store_hits_total=counter ascy_slowlog_len=gauge ascy_hotkey_fronted=gauge
        ascy_hotkey_sampled_total=counter ascy_hotkey_promotions_total=counter
        ascy_hotkey_demotions_total=counter ascy_hotkey_front_reads_total=counter
        ascy_hotkey_fills_total=counter ascy_hotkey_poisons_total=counter
        ascy_hotkey_delegated_total=counter ascy_hotkey_combined_batches_total=counter
        ascy_cache_budget_bytes=gauge ascy_cache_live_bytes=gauge ascy_cache_ttl_live=gauge
        ascy_cache_evictions_total=counter ascy_cache_forced_admissions_total=counter
        ascy_cache_expired_total=counter ascy_cmd_requests_total=counter
        ascy_cmd_hits_total=counter ascy_cmd_misses_total=counter
        ascy_request_duration_ns=histogram ascy_phase_duration_ns=histogram
        ascy_coherence_shared_stores_total=counter ascy_coherence_atomic_ops_total=counter
        ascy_coherence_atomic_failures_total=counter
        ascy_coherence_lock_acquisitions_total=counter ascy_coherence_restarts_total=counter
        ascy_coherence_waits_total=counter ascy_coherence_nodes_traversed_total=counter
        ascy_coherence_operations_total=counter ascy_ssmem_allocations_total=counter
        ascy_ssmem_frees_total=counter ascy_ssmem_reclaimed_total=counter
        ascy_ssmem_reused_total=counter ascy_ssmem_gc_passes_total=counter
        ascy_ssmem_pending=gauge ascy_ssmem_pooled=gauge ascy_monitor_subscribers=gauge
        ascy_monitor_events_total=counter ascy_monitor_dropped_total=counter
        ascy_window_span_ms=gauge ascy_window_ops_per_sec=gauge
        ascy_window_bytes_in_per_sec=gauge ascy_window_bytes_out_per_sec=gauge
        ascy_window_errors_per_sec=gauge ascy_window_cas_fails_per_sec=gauge
        ascy_window_restarts_per_sec=gauge ascy_window_request_p99_ns=gauge";

    /// Every series identity (name and labels, `le` left out).
    const GOLDEN_SERIES: &str = r#"
        ascy_accepted_total ascy_bytes_in_total ascy_bytes_out_total ascy_cache_budget_bytes
        ascy_cache_evictions_total ascy_cache_expired_total{mode="lazy"}
        ascy_cache_expired_total{mode="swept"} ascy_cache_forced_admissions_total
        ascy_cache_live_bytes ascy_cache_ttl_live ascy_cmd_hits_total{family="del"}
        ascy_cmd_hits_total{family="get"} ascy_cmd_hits_total{family="mget"}
        ascy_cmd_hits_total{family="mset"} ascy_cmd_hits_total{family="other"}
        ascy_cmd_hits_total{family="scan"} ascy_cmd_hits_total{family="set"}
        ascy_cmd_misses_total{family="del"} ascy_cmd_misses_total{family="get"}
        ascy_cmd_misses_total{family="mget"} ascy_cmd_misses_total{family="mset"}
        ascy_cmd_misses_total{family="other"} ascy_cmd_misses_total{family="scan"}
        ascy_cmd_misses_total{family="set"} ascy_cmd_requests_total{family="del"}
        ascy_cmd_requests_total{family="get"} ascy_cmd_requests_total{family="mget"}
        ascy_cmd_requests_total{family="mset"} ascy_cmd_requests_total{family="other"}
        ascy_cmd_requests_total{family="scan"} ascy_cmd_requests_total{family="set"}
        ascy_coherence_atomic_failures_total ascy_coherence_atomic_ops_total
        ascy_coherence_lock_acquisitions_total ascy_coherence_nodes_traversed_total
        ascy_coherence_operations_total ascy_coherence_restarts_total
        ascy_coherence_shared_stores_total ascy_coherence_waits_total ascy_connections_total
        ascy_curr_connections ascy_errors_total ascy_frames_total
        ascy_hotkey_combined_batches_total ascy_hotkey_delegated_total
        ascy_hotkey_demotions_total ascy_hotkey_fills_total
        ascy_hotkey_front_reads_total{result="absent"}
        ascy_hotkey_front_reads_total{result="hit"}
        ascy_hotkey_front_reads_total{result="pending"} ascy_hotkey_fronted
        ascy_hotkey_poisons_total ascy_hotkey_promotions_total ascy_hotkey_sampled_total
        ascy_monitor_dropped_total ascy_monitor_events_total ascy_monitor_subscribers
        ascy_ops_total ascy_phase_duration_ns_bucket{phase="execute"}
        ascy_phase_duration_ns_bucket{phase="flush"}
        ascy_phase_duration_ns_bucket{phase="parse"}
        ascy_phase_duration_ns_count{phase="execute"}
        ascy_phase_duration_ns_count{phase="flush"} ascy_phase_duration_ns_count{phase="parse"}
        ascy_phase_duration_ns_sum{phase="execute"} ascy_phase_duration_ns_sum{phase="flush"}
        ascy_phase_duration_ns_sum{phase="parse"} ascy_read_hits_total ascy_read_misses_total
        ascy_request_duration_ns_bucket{family="del"}
        ascy_request_duration_ns_bucket{family="get"}
        ascy_request_duration_ns_bucket{family="mget"}
        ascy_request_duration_ns_bucket{family="mset"}
        ascy_request_duration_ns_bucket{family="other"}
        ascy_request_duration_ns_bucket{family="scan"}
        ascy_request_duration_ns_bucket{family="set"}
        ascy_request_duration_ns_count{family="del"}
        ascy_request_duration_ns_count{family="get"}
        ascy_request_duration_ns_count{family="mget"}
        ascy_request_duration_ns_count{family="mset"}
        ascy_request_duration_ns_count{family="other"}
        ascy_request_duration_ns_count{family="scan"}
        ascy_request_duration_ns_count{family="set"} ascy_request_duration_ns_sum{family="del"}
        ascy_request_duration_ns_sum{family="get"} ascy_request_duration_ns_sum{family="mget"}
        ascy_request_duration_ns_sum{family="mset"}
        ascy_request_duration_ns_sum{family="other"}
        ascy_request_duration_ns_sum{family="scan"} ascy_request_duration_ns_sum{family="set"}
        ascy_slowlog_len ascy_ssmem_allocations_total ascy_ssmem_frees_total
        ascy_ssmem_gc_passes_total ascy_ssmem_pending ascy_ssmem_pooled
        ascy_ssmem_reclaimed_total ascy_ssmem_reused_total ascy_store_hits_total
        ascy_store_keys ascy_store_ops_total ascy_store_shards ascy_store_value_bytes
        ascy_timeouts_total ascy_window_bytes_in_per_sec ascy_window_bytes_out_per_sec
        ascy_window_cas_fails_per_sec ascy_window_errors_per_sec ascy_window_ops_per_sec
        ascy_window_request_p99_ns ascy_window_restarts_per_sec ascy_window_span_ms"#;

    #[test]
    fn names_and_order_match_the_hand_written_renderers() {
        equipped(|ctx| {
            let s = Scrape::gather(ctx);
            // STATS gains nothing and loses one field: the flat
            // combiner's pass count (writes to hot keys no longer batch).
            let mut expected = words(GOLDEN_STATS);
            expected.retain(|key| *key != "hotkey_batches");
            assert_eq!(stats_keys(&stats_line(&s)), expected);
            for (section, golden) in GOLDEN_INFO {
                let mut expected = words(golden);
                // The removals: two switches that can no longer be off,
                // and the flat combiner's pass count and mean batch.
                expected.retain(|key| {
                    !["telemetry", "cache_tier", "hotkey_combined_batches", "hotkey_avg_batch"]
                        .contains(key)
                });
                if section == "memory" {
                    // The ssmem arena's gauge, added after the golden
                    // capture.
                    expected.push("ssmem_arena_bytes");
                }
                if section == "concurrency" {
                    // Point operations served through a skip-list hint,
                    // added after the golden capture beside the count
                    // they are a share of.
                    let at = expected.iter().position(|key| *key == "coherence_operations").unwrap();
                    expected.insert(at + 1, "hint_hits");
                }
                if section == "server" {
                    // The one reorder: `connections` now precedes
                    // `curr_connections`, as `conns`/`curr_conns` do on
                    // the STATS line. Then the six keys the table exposed
                    // as missing from INFO, appended.
                    expected.swap(4, 5);
                    expected.extend([
                        "timeouts",
                        "wakeups",
                        "partial_writes",
                        "bytes_in",
                        "bytes_out",
                        "slowlog_len",
                    ]);
                }
                let body = info(&s, Some(section)).unwrap();
                assert_eq!(body.lines().next(), Some(format!("# {section}").as_str()));
                assert_eq!(info_keys(&body), expected, "INFO {section}");
            }
            // METRICS keeps every series and type but the combiner's pass
            // counter, and gains the two counters that were on STATS only,
            // the ssmem arena's gauge and the skip-list hint counter.
            let body = metrics(&s);
            let mut series: BTreeSet<String> =
                words(GOLDEN_SERIES).into_iter().map(String::from).collect();
            let mut types: BTreeSet<String> =
                words(GOLDEN_TYPES).into_iter().map(String::from).collect();
            series.remove("ascy_hotkey_combined_batches_total");
            types.remove("ascy_hotkey_combined_batches_total=counter");
            for added in ["ascy_wakeups_total", "ascy_partial_writes_total", "ascy_hint_hits_total"] {
                series.insert(added.to_string());
                types.insert(format!("{added}=counter"));
            }
            series.insert("ascy_ssmem_arena_bytes".to_string());
            types.insert("ascy_ssmem_arena_bytes=gauge".to_string());
            assert_eq!(metric_series(&body), series);
            assert_eq!(metric_types(&body), types);
        });
    }

    #[test]
    fn every_row_is_on_the_surfaces_its_kind_names_and_nothing_else_is_rendered() {
        equipped(|ctx| {
            let s = Scrape::gather(ctx);
            let line = stats_line(&s);
            let on_stats = stats_keys(&line);
            let types = metric_types(&metrics(&s));
            for row in TABLE {
                let key = row.key;
                let value = (row.get)(&s).unwrap_or_else(|| panic!("{key}: empty when equipped"));
                if !matches!(value, Value::Lines(_)) {
                    let (_, name) = SECTIONS.iter().find(|(section, _)| *section == row.section).unwrap();
                    let section = info(&s, Some(name)).unwrap();
                    assert!(info_keys(&section).contains(&key), "{key} is missing from INFO");
                }
                if let Some(field) = row.stats {
                    assert!(on_stats.contains(&field), "{field} is missing from STATS");
                }
                match row.kind {
                    Kind::Counter => assert!(types.contains(&format!("{}=counter", row.metric.0))),
                    Kind::Gauge => assert!(types.contains(&format!("{}=gauge", row.metric.0))),
                    Kind::Info => assert!(
                        row.metric == ("", "") && row.labels.is_empty() && row.stats.is_none(),
                        "{key} is INFO-only by kind"
                    ),
                }
            }
            // And back: whatever a scrape shows is a row, or one of the
            // lines whose key is computed from a family, a phase or a rank.
            let computed = |key: &str| {
                let tail = |prefix: String, tails: &[&str]| {
                    key.strip_prefix(prefix.as_str()).is_some_and(|rest| tails.contains(&rest))
                };
                let family_tails = ["ops", "hits", "misses", "found", "not_found", "p99_ns"];
                Family::ALL.iter().any(|f| tail(format!("cmd_{}_", f.name()), &family_tails))
                    || Phase::ALL
                        .iter()
                        .any(|p| tail(format!("phase_{}_", p.name()), &["count", "p99_ns"]))
                    || key.strip_prefix("hot_key_").is_some_and(|rank| rank.parse::<u32>().is_ok())
            };
            for (section, name) in SECTIONS {
                for key in info_keys(&info(&s, Some(name)).unwrap()) {
                    assert!(
                        computed(key) || TABLE.iter().any(|r| r.section == section && r.key == key),
                        "INFO {name} renders {key} outside the table"
                    );
                }
            }
            for field in on_stats {
                assert!(TABLE.iter().any(|r| r.stats == Some(field)), "STATS renders {field}");
            }
            for declared in types {
                let name = declared.split('=').next().unwrap();
                assert!(
                    TABLE.iter().any(|r| r.metric.0 == name)
                        || FAMILY_COUNTERS.iter().any(|c| c.0 .0 == name)
                        || [REQUEST_DURATION.0, PHASE_DURATION.0].contains(&name),
                    "METRICS renders {name} outside the table"
                );
            }
        });
    }

    #[test]
    fn every_name_is_documented_in_protocol_md() {
        const DOC: &str = include_str!("../../../PROTOCOL.md");
        let between = |from: &str, to: &str| {
            let start = DOC.find(from).unwrap_or_else(|| panic!("PROTOCOL.md lost {from:?}"));
            &DOC[start..start + DOC[start..].find(to).expect("section end")]
        };
        let stats_doc = between("| `STATS` |", "\n");
        let info_doc = between("### `INFO [section]`", "### `SLOWLOG");
        let metrics_doc = between("### `METRICS`", "### `MONITOR");
        // A name counts when it opens a code span and ends there, at a
        // label set or at its `:value` — `hits` must not be satisfied by
        // `hits_total`.
        let names = |doc: &str, name: &str| {
            doc.match_indices(&format!("`{name}"))
                .any(|(at, hit)| doc[at + hit.len()..].starts_with(['`', '{', ':']))
        };
        for row in TABLE {
            assert!(names(info_doc, row.key), "INFO key {} is undocumented", row.key);
            if let Some(field) = row.stats {
                assert!(names(stats_doc, field), "STATS field {field} is undocumented");
            }
            if row.kind != Kind::Info {
                assert!(names(metrics_doc, row.metric.0), "{} is undocumented", row.metric.0);
            }
        }
        let hand_written =
            FAMILY_COUNTERS.iter().map(|c| c.0 .0).chain([REQUEST_DURATION.0, PHASE_DURATION.0]);
        for name in hand_written {
            assert!(names(metrics_doc, name), "{name} is undocumented");
        }
    }

    #[test]
    fn a_truncated_metrics_body_loses_only_histogram_buckets() {
        equipped(|ctx| {
            // A sample in every sub-bucket of 36 octaves, in every family
            // and phase histogram: ten histograms of ~580 bucket lines.
            for octave in 0..36 {
                for step in 16..32u64 {
                    for f in Family::ALL {
                        ctx.tel.record_request(f, step << octave);
                    }
                    for p in Phase::ALL {
                        ctx.tel.record_phase(p, step << octave);
                    }
                }
            }
            assert!(render_metrics(ctx).len() > MAX_VALUE, "the body must need the cut");
            let mut frame = Vec::new();
            answer_metrics(ctx, &mut frame);
            let body = bulk_body(&frame);
            assert!(body.len() <= MAX_VALUE);
            assert!(body.ends_with("# truncated\n"));
            ascylib_telemetry::expo::validate(body).expect("a truncated body still validates");
            let series = metric_series(body);
            for row in TABLE.iter().filter(|row| row.kind != Kind::Info) {
                let name = row.metric.0;
                assert!(
                    series.iter().any(|id| id.split('{').next() == Some(name)),
                    "{name} was cut"
                );
            }
            for ((name, _), _) in FAMILY_COUNTERS {
                for f in Family::ALL {
                    assert!(series.contains(&format!("{name}{{family=\"{}\"}}", f.name())));
                }
            }
        });
    }
}
