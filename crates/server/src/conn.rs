//! Per-connection serving state machine: nonblocking reads, pipelined
//! dispatch, in-order buffered replies, write backpressure.
//!
//! A connection is a small explicit state machine driven by
//! [`Connection::advance`], which the worker that owns the connection calls
//! whenever its poller reports the socket ready (or the connection yielded
//! with work still buffered). One call makes as much progress as the socket allows and then
//! says how to continue:
//!
//! * **Reading** — drain the socket into the incremental [`RequestParser`]
//!   until it would block;
//! * **Executing** — run every complete frame that arrived (in
//!   pipeline-sized batches), appending replies to one write buffer in
//!   request order;
//! * **Writing** — flush the write buffer; a partial write narrows the
//!   connection's registration to *writability* and, crucially, stops
//!   reading — a peer
//!   that won't drain its replies cannot make the server buffer unboundedly
//!   (this is what defeats slow-loris-style clients);
//! * **Closing** — EOF, `QUIT` (answered `+BYE` and flushed first), or an
//!   I/O error.
//!
//! The worker never blocks in here: every socket op is nonblocking, and a
//! single `advance` bounds its own work so one firehose connection cannot
//! starve the worker's other connections ([`Advance::Yield`]).
//!
//! `MGET` dispatches through the store's batched lookup into a per-
//! connection result buffer (the shard layer visits each shard once per
//! frame and no per-batch result vector is allocated); `GET` copies the
//! value out into a reused buffer. Malformed frames — oversized values
//! included — consume exactly one error reply and the connection keeps
//! serving (the parser resynchronizes past the offending input).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use polling::Interest;

use ascylib_telemetry::expo::Exposition;
use ascylib_telemetry::{
    clock, Family, HistogramSnapshot, Phase, SlowOp, TelemetrySnapshot, WindowDelta,
    WorkerTelemetry,
};

use crate::monitor::{MonitorEvent, MonitorHub, MonitorSink, MONITOR_DRAIN_BACKLOG};
use crate::protocol::{wire, Request, RequestParser, SlowlogCmd, MAX_VALUE};
use crate::stats::{ConcurrencySnapshot, ServerStatsSnapshot, WorkerStats};
use crate::store::{KvStore, KEY_RANGE};

/// Cross-worker telemetry aggregation, implemented by the server's shared
/// state (and by test fixtures). The hot path records into this worker's
/// own [`WorkerTelemetry`]; the observability verbs (`INFO`, `SLOWLOG`,
/// `METRICS`) read the whole server through this trait.
pub(crate) trait TelemetryHub {
    /// Merged telemetry across every worker block.
    fn telemetry_totals(&self) -> TelemetrySnapshot;
    /// Slow-op entries across every worker, newest first.
    fn slow_ops(&self) -> Vec<SlowOp>;
    /// Clears every worker's slow-op ring.
    fn slow_reset(&self);
    /// Total entries currently held across every ring.
    fn slow_len(&self) -> u64;
    /// Worker thread count.
    fn workers(&self) -> usize;
    /// Milliseconds since the server started.
    fn uptime_ms(&self) -> u64;
    /// Summed structure-level concurrency counters across every worker
    /// block: coherence events (stores, CAS, restarts) plus ssmem
    /// allocator state.
    fn concurrency_totals(&self) -> ConcurrencySnapshot;
    /// Rotates the telemetry sample ring if an interval elapsed and
    /// returns the delta over the default window. `None` until at least
    /// two samples exist (the window is still warming up).
    fn window(&self) -> Option<WindowDelta>;
}

/// Indices of the cumulative counters carried in every window sample
/// (`WindowSample::counters`); the hub's sampler and the scrape renderers
/// must agree on these.
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

/// Everything a worker needs to serve one connection.
pub(crate) struct ConnCtx<'a> {
    /// The keyspace being served.
    pub store: &'a dyn KvStore,
    /// Most frames executed per batch (backpressure: a client that floods
    /// frames faster than they execute is drained in chunks this large).
    pub max_pipeline: usize,
    /// This worker's padded counters.
    pub stats: &'a WorkerStats,
    /// Aggregated counters across all workers (for `STATS` frames).
    pub totals: &'a dyn Fn() -> ServerStatsSnapshot,
    /// This worker's telemetry block (hot-path recording).
    pub tel: &'a WorkerTelemetry,
    /// Whole-server telemetry (`INFO` / `SLOWLOG` / `METRICS`).
    pub hub: &'a dyn TelemetryHub,
    /// Latency recording switch. When off, the serving loop takes no clock
    /// readings at all — the fig15 overhead comparison flips exactly this.
    pub recording: bool,
    /// Requests at or above this service time (execute phase, ns) are
    /// captured in the slow-op ring.
    pub slow_ns: u64,
    /// This worker's index (slow-op and monitor-event attribution).
    pub worker: u32,
    /// The `MONITOR` broadcast hub: published on the sampled hot path,
    /// subscribed at dispatch, counted at scrape time.
    pub monitor: &'a MonitorHub,
}

/// Reusable per-connection buffers for value copy-out, so the serving hot
/// path allocates per payload copy, not per frame.
#[derive(Default)]
struct ConnBufs {
    /// `GET` value destination.
    value: Vec<u8>,
    /// `MGET` result destination.
    batch: Vec<Option<Vec<u8>>>,
}

/// Why a connection closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnExit {
    /// Peer closed the stream.
    Eof,
    /// Peer sent `QUIT` and was answered `+BYE`.
    Quit,
    /// An I/O error ended the connection.
    Error,
}

/// What the serving loop should do with the connection next.
pub(crate) enum Advance {
    /// No more progress without the socket: this is the readiness to wait
    /// for. The worker tells the poller only if it differs from what the
    /// connection is already registered for.
    Arm(Interest),
    /// Work remains buffered but this call's fairness budget ran out: put
    /// the connection on the worker's run queue, behind the connections
    /// already waiting there, without touching the poller.
    Yield,
    /// Done: deregister, drop, free the slot.
    Close(ConnExit),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Reading,
    Executing,
    Writing,
    Closing,
}

enum Flush {
    Done,
    Blocked,
    Failed,
}

/// Loop iterations (reads or execute batches) one `advance` performs before
/// yielding. Bounds a single wakeup's work so ready connections round-robin
/// within a worker.
const ADVANCE_BUDGET: usize = 32;

/// Service-time sampling stride inside a pipelined batch: point ops on
/// slots `0, N, 2N, …` of each batch are timed, the rest only counted.
/// Multi-key/scan/admin requests and one-frame batches are always timed
/// (see [`Connection::execute_batch`]).
const SAMPLE_EVERY: usize = 8;

/// One nonblocking connection, owned from accept to close by the worker it
/// was dealt to: no other thread reads or writes any of this.
pub(crate) struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending reply bytes; `wpos..` is the unflushed tail.
    wbuf: Vec<u8>,
    wpos: usize,
    bufs: ConnBufs,
    state: State,
    /// Peer sent EOF; close once buffered frames are answered.
    eof: bool,
    /// Peer sent `QUIT`; close once `+BYE` is flushed.
    quit: bool,
    /// Last time the connection made progress (idle-timeout input; the
    /// timer wheel re-checks this lazily at each scheduled deadline).
    pub(crate) last_active: Instant,
    /// Set when a `MONITOR` frame executed: the worker (which knows this
    /// connection's address, its own index and the slab slot) must
    /// subscribe it to the hub. Carries
    /// the optional sampling stride.
    pending_monitor: Option<Option<u64>>,
    /// The monitor mailbox once subscribed; drained into `wbuf` at the
    /// top of every `advance`.
    monitor: Option<Arc<MonitorSink>>,
}

impl Connection {
    /// Takes ownership of an accepted socket, switching it nonblocking.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_nonblocking(true)?;
        // NODELAY: un-pipelined request/response traffic must not sit out
        // Nagle/delayed-ACK timers.
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            parser: RequestParser::new(),
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            bufs: ConnBufs::default(),
            state: State::Reading,
            eof: false,
            quit: false,
            last_active: Instant::now(),
            pending_monitor: None,
            monitor: None,
        })
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Takes the sampling argument of a just-executed `MONITOR` frame, if
    /// any. The worker calls this after `advance` and performs the actual
    /// hub subscription — only it knows the address a wake must come back to.
    pub(crate) fn take_pending_monitor(&mut self) -> Option<Option<u64>> {
        self.pending_monitor.take()
    }

    /// Attaches the subscribed mailbox; queued trace frames reach this
    /// connection's write buffer on its next `advance`.
    pub(crate) fn attach_monitor(&mut self, sink: Arc<MonitorSink>) {
        self.monitor = Some(sink);
    }

    /// Drives the state machine as far as the socket allows. Never panics on
    /// malformed input; all protocol errors are answered in-band with `-ERR`
    /// frames.
    pub(crate) fn advance(&mut self, ctx: &ConnCtx<'_>, chunk: &mut [u8]) -> Advance {
        self.last_active = Instant::now();
        let mut budget = ADVANCE_BUDGET;
        loop {
            // Monitor subscribers: move queued trace frames into the write
            // buffer so they flush with everything else below. A large
            // unflushed backlog skips the drain — ordinary replies keep
            // flowing and the sink absorbs (or drops) the burst. An
            // evicted sink ends the stream loudly, in-band, reusing the
            // QUIT flush-then-close path.
            if let Some(sink) = &self.monitor {
                if sink.evicted() {
                    let dropped = sink.dropped();
                    sink.mark_gone();
                    self.monitor = None;
                    wire::error(
                        &mut self.wbuf,
                        &format!("monitor stream lagged too far behind ({dropped} events dropped); closing"),
                    );
                    self.quit = true;
                } else if self.wbuf.len() - self.wpos < MONITOR_DRAIN_BACKLOG {
                    sink.drain_into(&mut self.wbuf);
                }
            }
            // Writing: pending replies leave first. While a flush is
            // blocked the machine never reads — that is the backpressure
            // that stops a non-draining peer from growing `wbuf` forever.
            if self.wpos < self.wbuf.len() {
                self.state = State::Writing;
                let flush_start = if ctx.recording { Some(clock::now()) } else { None };
                let flushed = self.flush_pending(ctx);
                if let Some(start) = flush_start {
                    ctx.tel.record_phase(Phase::Flush, clock::delta_ns(start, clock::now()));
                }
                match flushed {
                    Flush::Done => {
                        self.wbuf.clear();
                        self.wpos = 0;
                    }
                    Flush::Blocked => {
                        WorkerStats::bump(&ctx.stats.partial_writes, 1);
                        return Advance::Arm(Interest::WRITABLE);
                    }
                    Flush::Failed => return self.close(ConnExit::Error),
                }
            }
            if self.quit {
                return self.close(ConnExit::Quit);
            }
            if budget == 0 {
                return Advance::Yield;
            }
            budget -= 1;
            // Executing: frames already parsed, one pipeline batch at a
            // time; replies accumulate in `wbuf` and flush next iteration.
            self.state = State::Executing;
            if self.execute_batch(ctx) > 0 {
                continue;
            }
            // Parser dry. A recorded EOF only closes here, after every
            // buffered frame was answered and flushed.
            if self.eof {
                return self.close(ConnExit::Eof);
            }
            // Reading: pull whatever the socket has.
            self.state = State::Reading;
            match self.stream.read(chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    WorkerStats::bump(&ctx.stats.bytes_in, n as u64);
                    self.parser.feed(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Advance::Arm(Interest::READABLE);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.close(ConnExit::Error),
            }
        }
    }

    /// Best-effort flush of buffered replies at server shutdown: responses
    /// already computed should reach peers, but a blocked or broken socket
    /// must not stall the sweep.
    pub(crate) fn final_flush(&mut self, stats: &WorkerStats) {
        if self.wpos < self.wbuf.len() {
            if let Ok(n) = self.stream.write(&self.wbuf[self.wpos..]) {
                WorkerStats::bump(&stats.bytes_out, n as u64);
            }
        }
        self.state = State::Closing;
    }

    fn close(&mut self, exit: ConnExit) -> Advance {
        self.state = State::Closing;
        Advance::Close(exit)
    }

    fn flush_pending(&mut self, ctx: &ConnCtx<'_>) -> Flush {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Flush::Failed,
                Ok(n) => {
                    self.wpos += n;
                    // Only bytes actually written count; a failed write must
                    // not inflate the STATS view of traffic served.
                    WorkerStats::bump(&ctx.stats.bytes_out, n as u64);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Flush::Blocked;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Flush::Failed,
            }
        }
        Flush::Done
    }

    /// Executes up to one pipeline batch of parsed frames, appending replies
    /// to `wbuf`. Returns how many frames (including malformed ones) were
    /// consumed.
    fn execute_batch(&mut self, ctx: &ConnCtx<'_>) -> usize {
        let mut consumed = 0;
        // Recording strategy: clock reads are the dominant telemetry cost
        // (~25 ns each even via TSC on virtualized hosts), so service time
        // is *sampled*. Timed with a start/done reading pair: the first
        // slot of every batch, every `SAMPLE_EVERY`-th slot after it, and
        // every multi-key/scan/admin request. Point ops (GET/SET/DEL) in
        // the remaining slots only bump the exact per-family counters.
        // Unpipelined traffic (one-frame batches) is therefore always
        // fully timed, and slow-op detection is exact for the heavyweight
        // verbs that can plausibly be slow. The parse phase rides on the
        // first slot (batch start -> its start reading); its service time
        // doubles as the execute-phase sample. With recording off, no
        // clock is read at all.
        let batch_start = if ctx.recording { Some(clock::now()) } else { None };
        let mut slot = 0usize;
        while consumed < ctx.max_pipeline {
            match self.parser.next() {
                Some(Ok(req)) => {
                    consumed += 1;
                    let flow = if ctx.recording {
                        let family = family_of(&req);
                        let heavy =
                            !matches!(family, Family::Get | Family::Set | Family::Del);
                        if heavy || slot % SAMPLE_EVERY == 0 {
                            let start = clock::now();
                            if slot == 0 {
                                if let Some(t0) = batch_start {
                                    ctx.tel.record_phase(
                                        Phase::Parse,
                                        clock::delta_ns(t0, start),
                                    );
                                }
                            }
                            let flow = execute(&req, ctx, &mut self.bufs, &mut self.wbuf);
                            let done = clock::now();
                            let total = clock::delta_ns(start, done);
                            ctx.tel.record_request(family, total);
                            if slot == 0 {
                                ctx.tel.record_phase(Phase::Execute, total);
                            }
                            if total >= ctx.slow_ns {
                                let (key, bytes) = slow_fields(&req);
                                ctx.tel.record_slow(SlowOp {
                                    family,
                                    key,
                                    bytes,
                                    duration_ns: total,
                                    unix_ms: unix_ms_now(),
                                    worker: ctx.worker,
                                    shard: ctx.store.shard_of(key).unwrap_or(0) as u32,
                                });
                            }
                            // The MONITOR stream rides the sampled timing
                            // path (it needs the service clock); with no
                            // subscribers this is one relaxed load.
                            if ctx.monitor.active() {
                                let (key, bytes) = slow_fields(&req);
                                ctx.monitor.publish(&MonitorEvent {
                                    unix_ms: unix_ms_now(),
                                    family,
                                    key,
                                    bytes,
                                    service_ns: total,
                                    worker: ctx.worker,
                                });
                            }
                            flow
                        } else {
                            ctx.tel.count_request(family);
                            execute(&req, ctx, &mut self.bufs, &mut self.wbuf)
                        }
                    } else {
                        execute(&req, ctx, &mut self.bufs, &mut self.wbuf)
                    };
                    slot += 1;
                    match flow {
                        Flow::Quit => {
                            self.quit = true;
                            break;
                        }
                        Flow::Monitor(sample) => self.pending_monitor = Some(sample),
                        Flow::Continue => {}
                    }
                }
                Some(Err(e)) => {
                    consumed += 1;
                    // Malformed frames consume a slot but are not timed or
                    // counted (no store work was done).
                    slot += 1;
                    WorkerStats::bump(&ctx.stats.errors, 1);
                    wire::error(&mut self.wbuf, &e.to_string());
                }
                None => break,
            }
        }
        consumed
    }
}

pub(crate) fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// The telemetry family of a request.
fn family_of(req: &Request) -> Family {
    match req {
        Request::Get(_) => Family::Get,
        Request::Set(..) | Request::SetEx(..) => Family::Set,
        Request::Del(_) => Family::Del,
        Request::MGet(_) => Family::MGet,
        Request::MSet(_) => Family::MSet,
        Request::Scan(..) => Family::Scan,
        _ => Family::Other,
    }
}

/// The (key, payload bytes) a slow-op entry records for a request: the
/// primary key (first key for batched verbs, the cursor for `SCAN`) and the
/// total payload carried.
fn slow_fields(req: &Request) -> (u64, u64) {
    match req {
        Request::Get(k) | Request::Del(k) => (*k, 0),
        Request::Set(k, v) | Request::SetEx(k, v, _) => (*k, v.len() as u64),
        Request::Expire(k, _) | Request::Ttl(k) | Request::Persist(k) => (*k, 0),
        Request::MGet(keys) => (keys.first().copied().unwrap_or(0), 0),
        Request::MSet(entries) => (
            entries.first().map(|(k, _)| *k).unwrap_or(0),
            entries.iter().map(|(_, v)| v.len() as u64).sum(),
        ),
        Request::Scan(from, _) => (*from, 0),
        _ => (0, 0),
    }
}

#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Quit,
    /// A `MONITOR` frame executed: the worker must subscribe this
    /// connection to the hub (the sampling stride rides along).
    Monitor(Option<u64>),
}

fn key_ok(key: u64) -> bool {
    (KEY_RANGE.0..=KEY_RANGE.1).contains(&key)
}

const KEY_RANGE_MSG: &str = "key out of usable range [1, 2^64-2]";

const EXPIRY_UNSUPPORTED_MSG: &str = "expiry unsupported by this store (no cache tier)";

/// Executes one well-formed frame against the store, appending its reply.
fn execute(req: &Request, ctx: &ConnCtx<'_>, bufs: &mut ConnBufs, out: &mut Vec<u8>) -> Flow {
    let stats = ctx.stats;
    WorkerStats::bump(&stats.frames, 1);
    match req {
        Request::Get(k) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            if ctx.store.get(*k, &mut bufs.value) {
                WorkerStats::bump(&stats.hits, 1);
                if ctx.recording {
                    ctx.tel.record_lookups(Family::Get, 1, 0);
                }
                wire::bulk(out, &bufs.value);
            } else {
                WorkerStats::bump(&stats.misses, 1);
                if ctx.recording {
                    ctx.tel.record_lookups(Family::Get, 0, 1);
                }
                wire::null(out);
            }
        }
        Request::Set(k, v) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.set(*k, v) as u64);
        }
        Request::SetEx(k, v, secs) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            if ctx.store.cache_stats().is_none() {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, EXPIRY_UNSUPPORTED_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.set_ex(*k, v, secs.saturating_mul(1000)) as u64);
        }
        Request::Expire(k, secs) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            if ctx.store.cache_stats().is_none() {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, EXPIRY_UNSUPPORTED_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.expire(*k, secs.saturating_mul(1000)) as u64);
        }
        Request::Ttl(k) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            if ctx.store.cache_stats().is_none() {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, EXPIRY_UNSUPPORTED_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            match ctx.store.ttl_ms(*k) {
                // Whole seconds on the wire, rounded up so a value with
                // 1 ms left still reports 1, not an already-dead 0.
                Some(Some(ms)) => wire::int(out, ms.div_ceil(1000)),
                Some(None) => wire::simple(out, "none"),
                None => wire::null(out),
            }
        }
        Request::Persist(k) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            if ctx.store.cache_stats().is_none() {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, EXPIRY_UNSUPPORTED_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.persist(*k) as u64);
        }
        Request::Del(k) => {
            if !key_ok(*k) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, 1);
            let removed = ctx.store.del(*k);
            // DEL reuses the lookup cells as found / not-found (it is not a
            // read, so the server-wide read hit counters stay untouched).
            if ctx.recording {
                ctx.tel.record_lookups(Family::Del, removed as u64, !removed as u64);
            }
            wire::int(out, removed as u64);
        }
        Request::MGet(keys) => {
            // Validate the whole frame before executing any of it: a batch
            // either runs entirely or answers one error.
            if !keys.iter().all(|&k| key_ok(k)) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, keys.len() as u64);
            ctx.store.multi_get(keys, &mut bufs.batch);
            let found = bufs.batch.iter().filter(|v| v.is_some()).count() as u64;
            let missed = bufs.batch.len() as u64 - found;
            WorkerStats::bump(&stats.hits, found);
            WorkerStats::bump(&stats.misses, missed);
            if ctx.recording {
                ctx.tel.record_lookups(Family::MGet, found, missed);
            }
            wire::array_header(out, bufs.batch.len());
            for item in &bufs.batch {
                match item {
                    Some(v) => wire::bulk(out, v),
                    None => wire::null(out),
                }
            }
        }
        Request::MSet(entries) => {
            if !entries.iter().all(|&(k, _)| key_ok(k)) {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, KEY_RANGE_MSG);
                return Flow::Continue;
            }
            WorkerStats::bump(&stats.ops, entries.len() as u64);
            let outcomes = ctx.store.multi_set(entries);
            wire::array_header(out, outcomes.len());
            for created in outcomes {
                wire::int(out, created as u64);
            }
        }
        Request::Scan(from, n) => match ctx.store.scan(*from, *n) {
            Some(pairs) => {
                WorkerStats::bump(&stats.ops, 1);
                wire::array_header(out, pairs.len());
                for (k, v) in pairs {
                    wire::pair(out, k, &v);
                }
            }
            None => {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, "scans unsupported by this store (unordered backing)");
            }
        },
        Request::Ping => wire::simple(out, "PONG"),
        Request::Stats => {
            let totals = (ctx.totals)();
            let (store_ops, store_hits) = ctx.store.ops_and_hits();
            let mut info = format!(
                "size={} shards={} value_bytes={} store_ops={store_ops} store_hits={store_hits} conns={} curr_conns={} accepted={} timeouts={} wakeups={} partial_writes={} frames={} ops={} hits={} misses={} errors={} bytes_in={} bytes_out={}",
                ctx.store.size(),
                ctx.store.shard_count(),
                ctx.store.value_bytes(),
                totals.connections,
                totals.curr_connections,
                totals.accepted,
                totals.timeouts,
                totals.wakeups,
                totals.partial_writes,
                totals.frames,
                totals.ops,
                totals.hits,
                totals.misses,
                totals.errors,
                totals.bytes_in,
                totals.bytes_out,
            );
            // Hot-key engine counters ride at the end of the line (new
            // fields append, existing parsers keep their positions).
            if let Some(h) = ctx.store.hotkey_stats() {
                use std::fmt::Write as _;
                let _ = write!(
                    info,
                    " hotkey_fronted={} hotkey_front_hits={} hotkey_front_absent={} hotkey_delegated={} hotkey_batches={}",
                    h.fronted, h.front_hits, h.front_absent, h.delegated, h.combined_batches,
                );
            }
            // Epoch-allocator aggregates, summed over every worker's
            // thread-local allocator.
            {
                use std::fmt::Write as _;
                let m = ctx.hub.concurrency_totals().ssmem;
                let _ = write!(
                    info,
                    " ssmem_allocations={} ssmem_frees={} ssmem_reclaimed={} ssmem_pending={} ssmem_pooled={}",
                    m.allocations, m.frees, m.reclaimed, m.pending, m.pooled,
                );
            }
            // Cache-tier gauges and counters (stores with a cache tier
            // only — same append-at-end discipline as the hotkey block).
            if let Some(c) = ctx.store.cache_stats() {
                use std::fmt::Write as _;
                let _ = write!(
                    info,
                    " cache_budget_bytes={} cache_live_bytes={} cache_evictions={} cache_expired_lazy={} cache_expired_swept={}",
                    c.budget_bytes, c.live_bytes, c.evictions, c.expired_lazy, c.expired_swept,
                );
            }
            wire::simple(out, &info);
        }
        Request::Info(section) => match render_info(ctx, section.as_deref()) {
            Ok(body) => bulk_capped(out, &body),
            Err(msg) => {
                WorkerStats::bump(&stats.errors, 1);
                wire::error(out, msg);
            }
        },
        Request::Slowlog(cmd) => match cmd {
            SlowlogCmd::Get => bulk_capped(out, &render_slowlog(&ctx.hub.slow_ops())),
            SlowlogCmd::Reset => {
                ctx.hub.slow_reset();
                wire::simple(out, "OK");
            }
            SlowlogCmd::Len => wire::int(out, ctx.hub.slow_len()),
        },
        Request::Metrics => bulk_capped(out, &render_metrics(ctx)),
        Request::Monitor(sample) => {
            // The hub subscription happens back in the worker loop, which
            // knows this connection's address; from the peer's
            // view the `+OK` marks the start of the stream.
            wire::simple(out, "OK");
            return Flow::Monitor(*sample);
        }
        Request::Quit => {
            wire::simple(out, "BYE");
            return Flow::Quit;
        }
    }
    Flow::Continue
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

/// Renders the `INFO` report: all seven sections, or just the named one.
/// Unknown section names are a semantic error answered in-band.
fn render_info(ctx: &ConnCtx<'_>, section: Option<&str>) -> Result<String, &'static str> {
    use std::fmt::Write as _;
    const KNOWN: [&str; 7] =
        ["server", "commands", "latency", "memory", "concurrency", "hotkeys", "cache"];
    if let Some(s) = section {
        if !KNOWN.contains(&s) {
            return Err(
                "unknown INFO section (server|commands|latency|memory|concurrency|hotkeys|cache)",
            );
        }
    }
    let want = |name: &str| section.is_none() || section == Some(name);
    let totals = (ctx.totals)();
    let mut sections: Vec<String> = Vec::new();
    if want("server") {
        let mut s = String::new();
        let _ = writeln!(s, "# server");
        let _ = writeln!(s, "version:{}", env!("CARGO_PKG_VERSION"));
        let _ = writeln!(s, "workers:{}", ctx.hub.workers());
        let _ = writeln!(s, "uptime_ms:{}", ctx.hub.uptime_ms());
        let _ = writeln!(s, "telemetry:{}", if ctx.recording { "on" } else { "off" });
        let _ = writeln!(s, "slowlog_threshold_ns:{}", ctx.slow_ns);
        let _ = writeln!(s, "curr_connections:{}", totals.curr_connections);
        let _ = writeln!(s, "connections:{}", totals.connections);
        let _ = writeln!(s, "accepted:{}", totals.accepted);
        sections.push(s);
    }
    if want("commands") || want("latency") {
        let tel = ctx.hub.telemetry_totals();
        if want("commands") {
            let mut s = String::new();
            let _ = writeln!(s, "# commands");
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
            let _ = writeln!(s, "frames:{}", totals.frames);
            let _ = writeln!(s, "ops:{}", totals.ops);
            let _ = writeln!(s, "hits:{}", totals.hits);
            let _ = writeln!(s, "misses:{}", totals.misses);
            let _ = writeln!(s, "errors:{}", totals.errors);
            sections.push(s);
        }
        if want("latency") {
            let mut s = String::new();
            let _ = writeln!(s, "# latency");
            let req = tel.data_requests();
            let _ = writeln!(s, "request_count:{}", tel.data_ops());
            let _ = writeln!(s, "request_samples:{}", req.count());
            let _ = writeln!(s, "request_mean_ns:{:.0}", req.mean());
            let _ = writeln!(s, "request_p50_ns:{}", req.quantile(0.50));
            let _ = writeln!(s, "request_p99_ns:{}", req.quantile(0.99));
            let _ = writeln!(s, "request_p999_ns:{}", req.quantile(0.999));
            let _ = writeln!(s, "request_max_ns:{}", req.max());
            for p in Phase::ALL {
                let h: &HistogramSnapshot = &tel.phases[p.index()];
                let _ = writeln!(s, "phase_{}_count:{}", p.name(), h.count());
                let _ = writeln!(s, "phase_{}_p99_ns:{}", p.name(), h.quantile(0.99));
            }
            for f in Family::DATA {
                let _ =
                    writeln!(s, "cmd_{}_p99_ns:{}", f.name(), tel.family(f).hist.quantile(0.99));
            }
            // Windowed tail latency: the same service-time histogram, but
            // only what landed in the last sampling window.
            if let Some(w) = ctx.hub.window() {
                let _ = writeln!(s, "request_p99_10s_ns:{}", w.hist.quantile(0.99));
                let _ = writeln!(s, "request_window_ms:{}", w.elapsed_ms());
            }
            sections.push(s);
        }
    }
    if want("memory") {
        let (store_ops, store_hits) = ctx.store.ops_and_hits();
        let mut s = String::new();
        let _ = writeln!(s, "# memory");
        let _ = writeln!(s, "keys:{}", ctx.store.size());
        let _ = writeln!(s, "shards:{}", ctx.store.shard_count());
        let _ = writeln!(s, "value_bytes:{}", ctx.store.value_bytes());
        let _ = writeln!(s, "store_ops:{store_ops}");
        let _ = writeln!(s, "store_hits:{store_hits}");
        let m = ctx.hub.concurrency_totals().ssmem;
        let _ = writeln!(s, "ssmem_allocations:{}", m.allocations);
        let _ = writeln!(s, "ssmem_frees:{}", m.frees);
        let _ = writeln!(s, "ssmem_reclaimed:{}", m.reclaimed);
        let _ = writeln!(s, "ssmem_reused:{}", m.reused);
        let _ = writeln!(s, "ssmem_gc_passes:{}", m.gc_passes);
        let _ = writeln!(s, "ssmem_pending:{}", m.pending);
        let _ = writeln!(s, "ssmem_pooled:{}", m.pooled);
        sections.push(s);
    }
    if want("concurrency") {
        let conc = ctx.hub.concurrency_totals();
        let mut s = String::new();
        let _ = writeln!(s, "# concurrency");
        let _ = writeln!(s, "coherence_shared_stores:{}", conc.ops.shared_stores);
        let _ = writeln!(s, "coherence_atomic_ops:{}", conc.ops.atomic_ops);
        let _ = writeln!(s, "coherence_atomic_failures:{}", conc.ops.atomic_failures);
        let _ = writeln!(s, "coherence_lock_acquisitions:{}", conc.ops.lock_acquisitions);
        let _ = writeln!(s, "coherence_restarts:{}", conc.ops.restarts);
        let _ = writeln!(s, "coherence_waits:{}", conc.ops.waits);
        let _ = writeln!(s, "coherence_nodes_traversed:{}", conc.ops.nodes_traversed);
        let _ = writeln!(s, "coherence_operations:{}", conc.ops.operations);
        if conc.ops.operations > 0 {
            // The paper's scalability determinants, normalized per
            // structure operation: stores to shared lines and atomics.
            let per = |n: u64| n as f64 / conc.ops.operations as f64;
            let _ = writeln!(s, "coherence_stores_per_op:{:.3}", per(conc.ops.shared_stores));
            let _ = writeln!(s, "coherence_atomics_per_op:{:.3}", per(conc.ops.atomic_ops));
        }
        let mon = ctx.monitor.stats();
        let _ = writeln!(s, "monitor_subscribers:{}", mon.subscribers);
        let _ = writeln!(s, "monitor_events:{}", mon.events);
        let _ = writeln!(s, "monitor_dropped:{}", mon.dropped);
        match ctx.hub.window() {
            Some(w) => {
                let _ = writeln!(s, "window_samples:{}", w.samples);
                let _ = writeln!(s, "window_span_ms:{}", w.elapsed_ms());
                let _ = writeln!(s, "ops_per_sec:{:.1}", w.rate(WIN_OPS));
                let _ = writeln!(s, "net_in_bytes_per_sec:{:.0}", w.rate(WIN_BYTES_IN));
                let _ = writeln!(s, "net_out_bytes_per_sec:{:.0}", w.rate(WIN_BYTES_OUT));
                let _ = writeln!(s, "errors_per_sec:{:.1}", w.rate(WIN_ERRORS));
                let _ = writeln!(s, "cas_fails_per_sec:{:.1}", w.rate(WIN_CAS_FAILS));
                let _ = writeln!(s, "restarts_per_sec:{:.1}", w.rate(WIN_RESTARTS));
            }
            None => {
                // Fewer than two samples so far; rates appear once the
                // ring has a measurable span.
                let _ = writeln!(s, "window_samples:0");
            }
        }
        sections.push(s);
    }
    if want("hotkeys") {
        let mut s = String::new();
        let _ = writeln!(s, "# hotkeys");
        match ctx.store.hotkey_stats() {
            Some(h) => {
                let _ = writeln!(s, "hotkey_engine:on");
                let _ = writeln!(s, "hotkey_fronted:{}", h.fronted);
                let _ = writeln!(s, "hotkey_sampled:{}", h.sampled);
                let _ = writeln!(s, "hotkey_promotions:{}", h.promotions);
                let _ = writeln!(s, "hotkey_demotions:{}", h.demotions);
                let _ = writeln!(s, "hotkey_front_hits:{}", h.front_hits);
                let _ = writeln!(s, "hotkey_front_absent:{}", h.front_absent);
                let _ = writeln!(s, "hotkey_front_pending:{}", h.front_pending);
                let _ = writeln!(s, "hotkey_front_hit_rate:{:.4}", h.front_hit_rate());
                let _ = writeln!(s, "hotkey_fills:{}", h.fills);
                let _ = writeln!(s, "hotkey_poisons:{}", h.poisons);
                let _ = writeln!(s, "hotkey_delegated:{}", h.delegated);
                let _ = writeln!(s, "hotkey_combined_batches:{}", h.combined_batches);
                let _ = writeln!(s, "hotkey_avg_batch:{:.2}", h.avg_batch());
                for (rank, (key, est)) in ctx.store.hot_keys().into_iter().enumerate() {
                    let _ = writeln!(s, "hot_key_{rank}:key={key} est={est}");
                }
            }
            None => {
                let _ = writeln!(s, "hotkey_engine:off");
            }
        }
        sections.push(s);
    }
    if want("cache") {
        let mut s = String::new();
        let _ = writeln!(s, "# cache");
        match ctx.store.cache_stats() {
            Some(c) => {
                let bounded = c.budget_bytes > 0;
                let _ = writeln!(s, "cache_tier:on");
                let _ = writeln!(s, "cache_budget:{}", if bounded { "on" } else { "off" });
                let _ = writeln!(s, "cache_budget_bytes:{}", c.budget_bytes);
                let _ = writeln!(s, "cache_live_bytes:{}", c.live_bytes);
                if bounded {
                    let _ = writeln!(
                        s,
                        "cache_fill_ratio:{:.4}",
                        c.live_bytes as f64 / c.budget_bytes as f64
                    );
                }
                let _ = writeln!(s, "cache_evictions:{}", c.evictions);
                let _ = writeln!(s, "cache_forced_admissions:{}", c.forced);
                let _ = writeln!(s, "cache_expired_lazy:{}", c.expired_lazy);
                let _ = writeln!(s, "cache_expired_swept:{}", c.expired_swept);
                let _ = writeln!(s, "cache_expired_total:{}", c.expired());
                let _ = writeln!(s, "cache_ttl_live:{}", c.ttl_live);
            }
            None => {
                let _ = writeln!(s, "cache_tier:off");
            }
        }
        sections.push(s);
    }
    Ok(sections.join("\n"))
}

/// Renders the `SLOWLOG GET` body: one line per entry, newest first.
fn render_slowlog(ops: &[SlowOp]) -> String {
    use std::fmt::Write as _;
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

/// Renders the `METRICS` body: Prometheus text exposition over the server
/// counters, store gauges, and per-family / per-phase latency histograms.
fn render_metrics(ctx: &ConnCtx<'_>) -> String {
    let totals = (ctx.totals)();
    let tel = ctx.hub.telemetry_totals();
    let (store_ops, store_hits) = ctx.store.ops_and_hits();
    let mut e = Exposition::new();
    e.gauge("ascy_curr_connections", "Connections currently open.", &[], totals.curr_connections);
    e.counter("ascy_connections_total", "Connections fully served.", &[], totals.connections);
    e.counter("ascy_accepted_total", "Connections accepted.", &[], totals.accepted);
    e.counter("ascy_timeouts_total", "Connections evicted by the idle timeout.", &[], totals.timeouts);
    e.counter("ascy_frames_total", "Well-formed request frames executed.", &[], totals.frames);
    e.counter("ascy_ops_total", "Keyspace operations performed.", &[], totals.ops);
    e.counter("ascy_read_hits_total", "Per-key read lookups that found a value.", &[], totals.hits);
    e.counter("ascy_read_misses_total", "Per-key read lookups that missed.", &[], totals.misses);
    e.counter("ascy_errors_total", "Error frames sent.", &[], totals.errors);
    e.counter("ascy_bytes_in_total", "Bytes read from sockets.", &[], totals.bytes_in);
    e.counter("ascy_bytes_out_total", "Bytes written to sockets.", &[], totals.bytes_out);
    e.gauge("ascy_store_keys", "Elements in the served store.", &[], ctx.store.size() as u64);
    e.gauge("ascy_store_shards", "Shards backing the store.", &[], ctx.store.shard_count() as u64);
    e.gauge("ascy_store_value_bytes", "Live payload bytes in the value arena.", &[], ctx.store.value_bytes());
    e.counter("ascy_store_ops_total", "Structure-level operations.", &[], store_ops);
    e.counter("ascy_store_hits_total", "Structure-level lookup hits.", &[], store_hits);
    e.gauge("ascy_slowlog_len", "Slow-op entries currently held.", &[], ctx.hub.slow_len());
    if let Some(h) = ctx.store.hotkey_stats() {
        e.gauge("ascy_hotkey_fronted", "Hot keys currently holding a front-cache slot.", &[], h.fronted);
        e.counter("ascy_hotkey_sampled_total", "Accesses fed to the hot-key sketch.", &[], h.sampled);
        e.counter("ascy_hotkey_promotions_total", "Keys promoted into the top-k set.", &[], h.promotions);
        e.counter("ascy_hotkey_demotions_total", "Keys demoted out of the top-k set.", &[], h.demotions);
        e.counter(
            "ascy_hotkey_front_reads_total",
            "Front-cache read probes by outcome.",
            &[("result", "hit")],
            h.front_hits,
        );
        e.counter(
            "ascy_hotkey_front_reads_total",
            "Front-cache read probes by outcome.",
            &[("result", "absent")],
            h.front_absent,
        );
        e.counter(
            "ascy_hotkey_front_reads_total",
            "Front-cache read probes by outcome.",
            &[("result", "pending")],
            h.front_pending,
        );
        e.counter("ascy_hotkey_fills_total", "Front-cache slots filled from backing reads.", &[], h.fills);
        e.counter("ascy_hotkey_poisons_total", "Front-cache invalidations by bypassing writes.", &[], h.poisons);
        e.counter("ascy_hotkey_delegated_total", "Hot writes routed through flat combining.", &[], h.delegated);
        e.counter(
            "ascy_hotkey_combined_batches_total",
            "Flat-combining drain passes that applied at least one op.",
            &[],
            h.combined_batches,
        );
    }
    if let Some(c) = ctx.store.cache_stats() {
        e.gauge("ascy_cache_budget_bytes", "Configured payload-byte budget (0 = unbounded).", &[], c.budget_bytes);
        e.gauge("ascy_cache_live_bytes", "Payload bytes currently reserved against the budget.", &[], c.live_bytes);
        e.gauge("ascy_cache_ttl_live", "Live values currently carrying an expiry deadline.", &[], c.ttl_live);
        e.counter("ascy_cache_evictions_total", "Values evicted by the CLOCK policy to fit the budget.", &[], c.evictions);
        e.counter("ascy_cache_forced_admissions_total", "Over-budget stores admitted when nothing was evictable.", &[], c.forced);
        e.counter(
            "ascy_cache_expired_total",
            "Expired values reclaimed, by discovery mode.",
            &[("mode", "lazy")],
            c.expired_lazy,
        );
        e.counter(
            "ascy_cache_expired_total",
            "Expired values reclaimed, by discovery mode.",
            &[("mode", "swept")],
            c.expired_swept,
        );
    }
    for f in Family::ALL {
        let fam = tel.family(f);
        e.counter(
            "ascy_cmd_requests_total",
            "Requests recorded per command family.",
            &[("family", f.name())],
            fam.ops(),
        );
        e.counter(
            "ascy_cmd_hits_total",
            "Per-key hits (found keys for del) per command family.",
            &[("family", f.name())],
            fam.hits,
        );
        e.counter(
            "ascy_cmd_misses_total",
            "Per-key misses (absent keys for del) per command family.",
            &[("family", f.name())],
            fam.misses,
        );
        e.histogram(
            "ascy_request_duration_ns",
            "Request service time (execute phase, sampled) in nanoseconds.",
            &[("family", f.name())],
            &fam.hist,
        );
    }
    for p in Phase::ALL {
        e.histogram(
            "ascy_phase_duration_ns",
            "Time per request-processing phase in nanoseconds.",
            &[("phase", p.name())],
            &tel.phases[p.index()],
        );
    }
    let conc = ctx.hub.concurrency_totals();
    e.counter("ascy_coherence_shared_stores_total", "Stores to shared cache lines inside the structures.", &[], conc.ops.shared_stores);
    e.counter("ascy_coherence_atomic_ops_total", "Atomic RMW operations (CAS/TAS/FAI) attempted.", &[], conc.ops.atomic_ops);
    e.counter("ascy_coherence_atomic_failures_total", "Atomic RMW operations that failed and retried.", &[], conc.ops.atomic_failures);
    e.counter("ascy_coherence_lock_acquisitions_total", "Lock acquisitions inside lock-based structures.", &[], conc.ops.lock_acquisitions);
    e.counter("ascy_coherence_restarts_total", "Structure operations that restarted from scratch.", &[], conc.ops.restarts);
    e.counter("ascy_coherence_waits_total", "Spin-wait episodes on in-flight concurrent work.", &[], conc.ops.waits);
    e.counter("ascy_coherence_nodes_traversed_total", "Nodes visited during structure traversals.", &[], conc.ops.nodes_traversed);
    e.counter("ascy_coherence_operations_total", "Structure-level operations recorded.", &[], conc.ops.operations);
    e.counter("ascy_ssmem_allocations_total", "Epoch-allocator objects handed out.", &[], conc.ssmem.allocations);
    e.counter("ascy_ssmem_frees_total", "Objects released into the epoch limbo lists.", &[], conc.ssmem.frees);
    e.counter("ascy_ssmem_reclaimed_total", "Limbo objects whose grace period expired.", &[], conc.ssmem.reclaimed);
    e.counter("ascy_ssmem_reused_total", "Allocations served from reclaimed memory.", &[], conc.ssmem.reused);
    e.counter("ascy_ssmem_gc_passes_total", "Epoch-advance collection passes.", &[], conc.ssmem.gc_passes);
    e.gauge("ascy_ssmem_pending", "Objects waiting in limbo lists across workers.", &[], conc.ssmem.pending);
    e.gauge("ascy_ssmem_pooled", "Reclaimed objects pooled for reuse across workers.", &[], conc.ssmem.pooled);
    let mon = ctx.monitor.stats();
    e.gauge("ascy_monitor_subscribers", "Connections subscribed to the MONITOR stream.", &[], mon.subscribers);
    e.counter("ascy_monitor_events_total", "Trace events published to the MONITOR stream.", &[], mon.events);
    e.counter("ascy_monitor_dropped_total", "Trace events dropped on full subscriber sinks.", &[], mon.dropped);
    if let Some(w) = ctx.hub.window() {
        e.gauge("ascy_window_span_ms", "Span of the telemetry window backing the rate gauges.", &[], w.elapsed_ms());
        e.gauge("ascy_window_ops_per_sec", "Keyspace operations per second over the window.", &[], w.rate(WIN_OPS) as u64);
        e.gauge("ascy_window_bytes_in_per_sec", "Socket bytes read per second over the window.", &[], w.rate(WIN_BYTES_IN) as u64);
        e.gauge("ascy_window_bytes_out_per_sec", "Socket bytes written per second over the window.", &[], w.rate(WIN_BYTES_OUT) as u64);
        e.gauge("ascy_window_errors_per_sec", "Error frames per second over the window.", &[], w.rate(WIN_ERRORS) as u64);
        e.gauge("ascy_window_cas_fails_per_sec", "Failed structure CAS attempts per second over the window.", &[], w.rate(WIN_CAS_FAILS) as u64);
        e.gauge("ascy_window_restarts_per_sec", "Structure restarts per second over the window.", &[], w.rate(WIN_RESTARTS) as u64);
        e.gauge("ascy_window_request_p99_ns", "p99 service time over the window in nanoseconds.", &[], w.hist.quantile(0.99));
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlobStore;
    use ascylib::hashtable::ClhtLb;
    use ascylib_shard::BlobMap;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Connection::new(accepted).unwrap(), peer)
    }

    /// Single-worker hub over one telemetry block, standing in for the
    /// server's `Shared`. The test thread doubles as the worker: the
    /// concurrency fold that a real worker performs after each connection
    /// pass happens here at query time, and the window clock is a fake
    /// that advances one millisecond per call so two consecutive scrapes
    /// always produce a measurable window.
    struct TestHub<'a> {
        tel: &'a WorkerTelemetry,
        stats: &'a WorkerStats,
        conc: crate::stats::ConcurrencyStats,
        ring: ascylib_telemetry::WindowRing,
        ticks: std::sync::atomic::AtomicU64,
        started: Instant,
    }

    impl<'a> TestHub<'a> {
        fn new(tel: &'a WorkerTelemetry, stats: &'a WorkerStats) -> TestHub<'a> {
            TestHub {
                tel,
                stats,
                conc: crate::stats::ConcurrencyStats::default(),
                ring: ascylib_telemetry::WindowRing::new(1, 8),
                ticks: std::sync::atomic::AtomicU64::new(0),
                started: Instant::now(),
            }
        }
    }

    impl TelemetryHub for TestHub<'_> {
        fn telemetry_totals(&self) -> TelemetrySnapshot {
            self.tel.snapshot()
        }
        fn slow_ops(&self) -> Vec<SlowOp> {
            let mut ops = self.tel.slow_ops();
            ops.reverse();
            ops
        }
        fn slow_reset(&self) {
            self.tel.slow_reset();
        }
        fn slow_len(&self) -> u64 {
            self.tel.slow_len() as u64
        }
        fn workers(&self) -> usize {
            1
        }
        fn uptime_ms(&self) -> u64 {
            self.started.elapsed().as_millis() as u64
        }
        fn concurrency_totals(&self) -> ConcurrencySnapshot {
            self.conc.fold_ops(&ascylib::stats::drain_delta());
            self.conc.set_ssmem(&ascylib_ssmem::thread_stats());
            self.conc.snapshot()
        }
        fn window(&self) -> Option<WindowDelta> {
            use std::sync::atomic::Ordering;
            let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
            let t = self.stats.snapshot();
            let c = self.conc.snapshot();
            self.ring.rotate(ascylib_telemetry::WindowSample {
                unix_ms: tick,
                mono_ns: tick * 1_000_000,
                counters: vec![
                    t.ops,
                    t.bytes_in,
                    t.bytes_out,
                    t.errors,
                    c.ops.atomic_failures,
                    c.ops.restarts,
                ],
                hist: self.tel.snapshot().data_requests(),
            });
            self.ring.delta(ascylib_telemetry::window::DEFAULT_WINDOW_NS)
        }
    }

    fn run_ctx(test: impl FnOnce(&ConnCtx<'_>)) {
        let map = Arc::new(BlobMap::new(1, |_| ClhtLb::with_capacity(64)));
        let store = BlobStore::new(map);
        let stats = WorkerStats::default();
        let tel = WorkerTelemetry::new();
        let hub = TestHub::new(&tel, &stats);
        let monitor = MonitorHub::default();
        let totals = || ServerStatsSnapshot::default();
        let ctx = ConnCtx {
            store: &store,
            max_pipeline: 4,
            stats: &stats,
            totals: &totals,
            tel: &tel,
            hub: &hub,
            recording: true,
            slow_ns: u64::MAX,
            worker: 0,
            monitor: &monitor,
        };
        test(&ctx);
    }

    #[test]
    fn idle_socket_arms_for_readability_then_serves_a_frame() {
        run_ctx(|ctx| {
            let (mut conn, mut peer) = pair();
            let mut chunk = [0u8; 4096];
            assert!(matches!(conn.advance(ctx, &mut chunk), Advance::Arm(i) if i.is_readable()));
            assert_eq!(conn.state, State::Reading);
            peer.write_all(b"PING\r\n").unwrap();
            // Loopback delivery is asynchronous; retry the advance until the
            // frame has been executed (visible in this worker's counters).
            let deadline = Instant::now() + Duration::from_secs(5);
            while ctx.stats.frames.load(std::sync::atomic::Ordering::Relaxed) == 0 {
                match conn.advance(ctx, &mut chunk) {
                    Advance::Arm(i) => assert!(i.is_readable()),
                    Advance::Yield => {}
                    Advance::Close(exit) => panic!("unexpected close: {exit:?}"),
                }
                assert!(Instant::now() < deadline, "frame not served before deadline");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut reply = [0u8; 16];
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let n = peer.read(&mut reply).unwrap();
            assert_eq!(&reply[..n], b"+PONG\r\n");
        });
    }

    #[test]
    fn quit_flushes_bye_then_closes() {
        run_ctx(|ctx| {
            let (mut conn, mut peer) = pair();
            peer.write_all(b"QUIT\r\n").unwrap();
            let mut chunk = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match conn.advance(ctx, &mut chunk) {
                    Advance::Close(exit) => {
                        assert_eq!(exit, ConnExit::Quit);
                        break;
                    }
                    _ => {
                        assert!(Instant::now() < deadline);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            assert_eq!(conn.state, State::Closing);
            drop(conn);
            let mut reply = Vec::new();
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            peer.read_to_end(&mut reply).unwrap();
            assert_eq!(reply, b"+BYE\r\n");
        });
    }

    #[test]
    fn peer_eof_closes_after_buffered_frames_are_answered() {
        run_ctx(|ctx| {
            let (mut conn, mut peer) = pair();
            peer.write_all(b"SET 1 3\r\nabc\r\n").unwrap();
            peer.shutdown(std::net::Shutdown::Write).unwrap();
            let mut chunk = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match conn.advance(ctx, &mut chunk) {
                    Advance::Close(exit) => {
                        assert_eq!(exit, ConnExit::Eof);
                        break;
                    }
                    _ => {
                        assert!(Instant::now() < deadline);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            // The SET was executed and its reply flushed before the close.
            assert_eq!(ctx.store.size(), 1);
            drop(conn);
            let mut reply = Vec::new();
            peer.read_to_end(&mut reply).unwrap();
            assert_eq!(reply, b":1\r\n");
        });
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
            let load = |c: &std::sync::atomic::AtomicU64| {
                c.load(std::sync::atomic::Ordering::Relaxed)
            };
            assert_eq!(load(&ctx.stats.hits), 1);
            assert_eq!(load(&ctx.stats.misses), 1);

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
            ClhtLb::with_capacity(64)
        }));
        let store = BlobStore::new(Arc::clone(&map));
        let stats = WorkerStats::default();
        let tel = WorkerTelemetry::new();
        let hub = TestHub::new(&tel, &stats);
        let monitor = MonitorHub::default();
        let totals = || ServerStatsSnapshot::default();
        let ctx = ConnCtx {
            store: &store,
            max_pipeline: 4,
            stats: &stats,
            totals: &totals,
            tel: &tel,
            hub: &hub,
            recording: true,
            slow_ns: u64::MAX,
            worker: 0,
            monitor: &monitor,
        };
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
            "ascy_hotkey_combined_batches_total ",
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

    /// A [`KvStore`] without a cache tier: delegates the byte-value surface
    /// to a blob store but keeps the trait's expiry defaults, so the
    /// connection layer's in-band rejection path is reachable in tests.
    struct NoCacheStore(BlobStore<ClhtLb>);

    impl KvStore for NoCacheStore {
        fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
            self.0.get(key, out)
        }
        fn set(&self, key: u64, value: &[u8]) -> bool {
            self.0.set(key, value)
        }
        fn del(&self, key: u64) -> bool {
            self.0.del(key)
        }
        fn multi_get(&self, keys: &[u64], out: &mut Vec<Option<Vec<u8>>>) {
            self.0.multi_get(keys, out)
        }
        fn multi_set(&self, entries: &[(u64, Vec<u8>)]) -> Vec<bool> {
            self.0.multi_set(entries)
        }
        fn scan(&self, from: u64, n: usize) -> Option<Vec<(u64, Vec<u8>)>> {
            self.0.scan(from, n)
        }
        fn size(&self) -> usize {
            self.0.size()
        }
        fn shard_count(&self) -> usize {
            self.0.shard_count()
        }
        fn ops_and_hits(&self) -> (u64, u64) {
            self.0.ops_and_hits()
        }
        fn value_bytes(&self) -> u64 {
            self.0.value_bytes()
        }
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
            ClhtLb::with_capacity(1024)
        }));
        let store = BlobStore::new(Arc::clone(&map));
        let stats = WorkerStats::default();
        let tel = WorkerTelemetry::new();
        let hub = TestHub::new(&tel, &stats);
        let monitor = MonitorHub::default();
        let totals = || ServerStatsSnapshot::default();
        let ctx = ConnCtx {
            store: &store,
            max_pipeline: 4,
            stats: &stats,
            totals: &totals,
            tel: &tel,
            hub: &hub,
            recording: true,
            slow_ns: u64::MAX,
            worker: 0,
            monitor: &monitor,
        };
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
        let c = store.cache_stats().expect("blob stores always report a cache tier");
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
        assert!(info.contains("cache_tier:on"));
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

        // A store without a cache tier rejects the expiry verbs in-band
        // and exports none of the cache surfaces.
        let plain = NoCacheStore(BlobStore::new(Arc::new(BlobMap::new(1, |_| {
            ClhtLb::with_capacity(64)
        }))));
        let ctx = ConnCtx { store: &plain, ..ctx };
        out.clear();
        execute(&Request::Set(3, b"v".to_vec()), &ctx, &mut bufs, &mut out);
        for req in [
            Request::SetEx(3, b"v".to_vec(), 5),
            Request::Expire(3, 5),
            Request::Ttl(3),
            Request::Persist(3),
        ] {
            out.clear();
            execute(&req, &ctx, &mut bufs, &mut out);
            let reply = String::from_utf8_lossy(&out).into_owned();
            assert!(
                reply.starts_with('-') && reply.contains(EXPIRY_UNSUPPORTED_MSG),
                "{req:?} must be rejected in-band: {reply}"
            );
        }
        let info = render_info(&ctx, Some("cache")).unwrap();
        assert!(info.contains("cache_tier:off"));
        assert!(!render_metrics(&ctx).contains("ascy_cache"));
        out.clear();
        execute(&Request::Stats, &ctx, &mut bufs, &mut out);
        assert!(!String::from_utf8_lossy(&out).contains("cache_"));
    }

    #[test]
    fn slowlog_threshold_zero_captures_everything() {
        run_ctx(|ctx| {
            let ctx = ConnCtx { slow_ns: 0, ..*ctx };
            let (mut conn, mut peer) = pair();
            peer.write_all(b"SET 9 3\r\nxyz\r\n").unwrap();
            let mut chunk = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(5);
            while ctx.hub.slow_len() == 0 {
                if let Advance::Close(exit) = conn.advance(&ctx, &mut chunk) {
                    panic!("unexpected close: {exit:?}");
                }
                assert!(Instant::now() < deadline, "slow op not captured before deadline");
                std::thread::sleep(Duration::from_millis(1));
            }
            let ops = ctx.hub.slow_ops();
            assert_eq!(ops[0].family, Family::Set);
            assert_eq!(ops[0].key, 9);
            assert_eq!(ops[0].bytes, 3);
            assert!(ops[0].unix_ms > 0);
            assert_eq!(ops[0].worker, 0);
            assert_eq!(ops[0].shard, 0, "single-shard store attributes shard 0");
            let body = render_slowlog(&ops);
            assert!(body.contains("family=set key=9 bytes=3"));
            assert!(body.contains("worker=0 shard=0"), "{body}");
            ctx.hub.slow_reset();
            assert_eq!(ctx.hub.slow_len(), 0);
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
            let conc = ctx.hub.concurrency_totals();
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

    #[test]
    fn monitor_subscription_streams_trace_events_over_loopback() {
        run_ctx(|ctx| {
            // Subscribe one connection: MONITOR answers +OK and surfaces
            // the subscribe intent for the "worker" (this test) to act on.
            let (mut sub, mut sub_peer) = pair();
            sub_peer.write_all(b"MONITOR\r\n").unwrap();
            let mut chunk = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(5);
            let sample = loop {
                if let Advance::Close(exit) = sub.advance(ctx, &mut chunk) {
                    panic!("unexpected close: {exit:?}");
                }
                if let Some(sample) = sub.take_pending_monitor() {
                    break sample;
                }
                assert!(Instant::now() < deadline, "MONITOR frame not served");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(sample, None, "bare MONITOR keeps every sampled event");
            sub.attach_monitor(ctx.monitor.subscribe(1, sample));
            assert!(ctx.monitor.active());

            // Traffic on a second connection publishes into the hub (the
            // first slot of every batch is always timed, hence eligible).
            let (mut data, mut data_peer) = pair();
            data_peer.write_all(b"SET 5 3\r\nabc\r\n").unwrap();
            while ctx.monitor.stats().events == 0 {
                if let Advance::Close(exit) = data.advance(ctx, &mut chunk) {
                    panic!("unexpected close: {exit:?}");
                }
                assert!(Instant::now() < deadline, "no event published");
                std::thread::sleep(Duration::from_millis(1));
            }
            // The publishing pass noted the subscriber's token for wake-up.
            assert!(ctx.monitor.take_wakes().contains(&1), "publish queues a wake");

            // The subscriber's own advance drains the sink into its write
            // buffer; the peer sees +OK then the trace frame.
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            sub_peer.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            while !String::from_utf8_lossy(&got).contains("+monitor ") {
                if let Advance::Close(exit) = sub.advance(ctx, &mut chunk) {
                    panic!("unexpected close: {exit:?}");
                }
                if let Ok(n) = sub_peer.read(&mut buf) {
                    got.extend_from_slice(&buf[..n]);
                }
                assert!(Instant::now() < deadline, "trace frame never arrived: {got:?}");
            }
            let text = String::from_utf8_lossy(&got);
            assert!(text.starts_with("+OK\r\n"), "{text}");
            assert!(text.contains("family=set"), "{text}");
            assert!(text.contains("key=5"), "{text}");
            assert!(text.contains("worker=0"), "{text}");
        });
    }

    #[test]
    fn evicted_monitor_subscriber_is_closed_in_band() {
        run_ctx(|ctx| {
            // A hub no frame fits into: the first publish drops, and one
            // drop is already the eviction threshold.
            let tiny = MonitorHub::with_limits(8, 1);
            let ctx = ConnCtx { monitor: &tiny, ..*ctx };
            let (mut conn, mut peer) = pair();
            conn.attach_monitor(tiny.subscribe(1, None));
            tiny.publish(&MonitorEvent {
                unix_ms: 1,
                family: Family::Get,
                key: 1,
                bytes: 0,
                service_ns: 100,
                worker: 0,
            });
            assert!(tiny.take_wakes().contains(&1), "eviction crossing wakes the victim");
            let mut chunk = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match conn.advance(&ctx, &mut chunk) {
                    Advance::Close(exit) => {
                        assert_eq!(exit, ConnExit::Quit);
                        break;
                    }
                    _ => {
                        assert!(Instant::now() < deadline);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            drop(conn);
            let mut reply = Vec::new();
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            peer.read_to_end(&mut reply).unwrap();
            let text = String::from_utf8_lossy(&reply);
            assert!(text.contains("-ERR monitor stream lagged"), "{text}");
            assert_eq!(tiny.stats().subscribers, 0, "the sink marked itself gone");
        });
    }
}
