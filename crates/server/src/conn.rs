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
//!   until a read comes back shorter than the chunk (the socket is empty:
//!   the connection re-arms for readability without a read that would only
//!   say `EAGAIN`) or would block;
//! * **Executing** — run every complete frame that arrived (in
//!   pipeline-sized batches), appending replies to one write buffer in
//!   request order; consecutive `GET`s of a batch run as one batched lookup;
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
//! connection result buffer (no per-batch result vector is allocated), and
//! so does every *run* of two or more consecutive in-range `GET` frames in
//! a pipelined batch: the shard layer interleaves the run's skip-list
//! searches across shards and prefetches its blobs, so their cache misses
//! overlap. Any other frame ends a run and executes after it, so replies
//! keep request order and a `GET` reads every write pipelined before it. A
//! lone `GET` copies the value out into a reused buffer through the store's
//! point lookup. Malformed frames — oversized values
//! included — consume exactly one error reply and the connection keeps
//! serving (the parser resynchronizes past the offending input). The scrape
//! verbs (`STATS`, `INFO`, `SLOWLOG`, `METRICS`) are one call each into
//! [`crate::report`], which owns every line of their rendering.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use polling::Interest;

use ascylib_shard::BatchValues;
use ascylib_telemetry::{clock, Family, Phase, SlowOp, WorkerTelemetry};

use crate::monitor::{MonitorEvent, MonitorHub, MonitorSink, MONITOR_DRAIN_BACKLOG};
use crate::protocol::{wire, Request, RequestParser};
use crate::report::{self, TelemetryHub};
use crate::stats::{ServerStatsSnapshot, WorkerStats};
use crate::store::{KvStore, KEY_RANGE};

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
pub(crate) struct ConnBufs {
    /// `GET` value destination.
    value: Vec<u8>,
    /// `MGET` and `GET`-run result destination.
    batch: BatchValues,
    /// Keys of the `GET` run being collected.
    run: Vec<u64>,
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
        // A read shorter than the chunk emptied the socket: once its frames
        // are answered, go back to the poller rather than pay one more
        // `read` to hear `EAGAIN`. Registrations are level-triggered, so
        // bytes that arrive meanwhile (or an EOF) report readable at once.
        let mut drained = false;
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
                let flush_start = clock::now();
                let flushed = self.flush_pending(ctx);
                ctx.tel.record_phase(Phase::Flush, clock::delta_ns(flush_start, clock::now()));
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
            self.state = State::Reading;
            if drained {
                return Advance::Arm(Interest::READABLE);
            }
            // Reading: pull whatever the socket has.
            match self.stream.read(chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    WorkerStats::bump(&ctx.stats.bytes_in, n as u64);
                    self.parser.feed(&chunk[..n]);
                    drained = n < chunk.len();
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
    ///
    /// Consecutive in-range `GET`s are collected into a *run* and looked up
    /// together ([`Self::execute_run`]). Any other frame — a write, a
    /// malformed frame, an out-of-range key, `QUIT` — ends the run, which
    /// executes first: replies stay in request order and a `GET` after a
    /// `SET` of its key reads that write.
    fn execute_batch(&mut self, ctx: &ConnCtx<'_>) -> usize {
        // Recording strategy: clock reads are the dominant telemetry cost
        // (~25 ns each even via TSC on virtualized hosts), so service time
        // is *sampled*. Timed: the first slot of every batch, every
        // `SAMPLE_EVERY`-th slot after it, and every multi-key/scan/admin
        // request. Point ops (GET/SET/DEL) in the remaining slots only bump
        // the exact per-family counters. Unpipelined traffic (one-frame
        // batches) is therefore always fully timed, and slow-op detection
        // is exact for the heavyweight verbs that can plausibly be slow. A
        // frame is timed with its own start/done reading pair, a GET run
        // with one pair for the whole run. The parse phase rides on the
        // first slot (batch start -> its start reading); its service time
        // doubles as the execute-phase sample.
        let batch_start = clock::now();
        let mut consumed = 0;
        let mut slot = 0usize;
        while consumed < ctx.max_pipeline {
            let Some(parsed) = self.parser.next() else { break };
            consumed += 1;
            match parsed {
                Ok(Request::Get(key)) if key_ok(key) => self.bufs.run.push(key),
                Ok(req) => {
                    slot = self.execute_run(ctx, batch_start, slot);
                    let flow = self.execute_frame(&req, ctx, batch_start, slot);
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
                Err(e) => {
                    slot = self.execute_run(ctx, batch_start, slot);
                    // Malformed frames consume a slot but are not timed or
                    // counted (no store work was done).
                    slot += 1;
                    WorkerStats::bump(&ctx.stats.errors, 1);
                    wire::error(&mut self.wbuf, &e.to_string());
                }
            }
        }
        self.execute_run(ctx, batch_start, slot);
        consumed
    }

    /// Executes one frame at batch position `slot`: timed when the slot is
    /// sampled or the verb is heavy, otherwise only counted.
    fn execute_frame(
        &mut self,
        req: &Request,
        ctx: &ConnCtx<'_>,
        batch_start: u64,
        slot: usize,
    ) -> Flow {
        let family = family_of(req);
        let heavy = !matches!(family, Family::Get | Family::Set | Family::Del);
        if !heavy && slot % SAMPLE_EVERY != 0 {
            ctx.tel.count_request(family);
            return execute(req, ctx, &mut self.bufs, &mut self.wbuf);
        }
        let start = clock::now();
        if slot == 0 {
            ctx.tel
                .record_phase(Phase::Parse, clock::delta_ns(batch_start, start));
        }
        let flow = execute(req, ctx, &mut self.bufs, &mut self.wbuf);
        let total = clock::delta_ns(start, clock::now());
        if slot == 0 {
            ctx.tel.record_phase(Phase::Execute, total);
        }
        record_timed(ctx, family, || slow_fields(req), total);
        flow
    }

    /// Answers the collected `GET` run, which starts at batch position
    /// `slot`, and returns the position after it. A run of one is an
    /// ordinary frame. A longer run is one batched lookup
    /// ([`KvStore::multi_get`]) under one clock pair: replies go out in
    /// order, every counter moves as the run's frames would have moved it
    /// one by one, and each sampled position records the run's time per
    /// key.
    fn execute_run(&mut self, ctx: &ConnCtx<'_>, batch_start: u64, slot: usize) -> usize {
        let n = self.bufs.run.len();
        if n <= 1 {
            if let Some(key) = self.bufs.run.pop() {
                self.execute_frame(&Request::Get(key), ctx, batch_start, slot);
            }
            return slot + n;
        }
        let start = clock::now();
        if slot == 0 {
            ctx.tel
                .record_phase(Phase::Parse, clock::delta_ns(batch_start, start));
        }
        ctx.store.multi_get(&self.bufs.run, &mut self.bufs.batch);
        WorkerStats::bump(&ctx.stats.frames, n as u64);
        reply_batch(ctx, Family::Get, &self.bufs.batch, &mut self.wbuf);
        let per_key = clock::delta_ns(start, clock::now()) / n as u64;
        if slot == 0 {
            ctx.tel.record_phase(Phase::Execute, per_key);
        }
        for (i, &key) in self.bufs.run.iter().enumerate() {
            if (slot + i) % SAMPLE_EVERY == 0 {
                record_timed(ctx, Family::Get, || (key, 0), per_key);
            } else {
                ctx.tel.count_request(Family::Get);
            }
        }
        self.bufs.run.clear();
        slot + n
    }
}

/// Records one timed request: its service-time sample, a slow-log entry
/// once it reaches the threshold, and a `MONITOR` event while anyone
/// subscribes. `fields` gives the entry's (key, payload bytes), computed
/// only when an entry or event is made.
fn record_timed(ctx: &ConnCtx<'_>, family: Family, fields: impl Fn() -> (u64, u64), ns: u64) {
    ctx.tel.record_request(family, ns);
    if ns >= ctx.slow_ns {
        let (key, bytes) = fields();
        ctx.tel.record_slow(SlowOp {
            family,
            key,
            bytes,
            duration_ns: ns,
            unix_ms: unix_ms_now(),
            worker: ctx.worker,
            shard: ctx.store.shard_of(key) as u32,
        });
    }
    // The MONITOR stream rides the sampled timing path (it needs the
    // service clock); with no subscribers this is one relaxed load.
    if ctx.monitor.active() {
        let (key, bytes) = fields();
        ctx.monitor.publish(&MonitorEvent {
            unix_ms: unix_ms_now(),
            family,
            key,
            bytes,
            service_ns: ns,
            worker: ctx.worker,
        });
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
pub(crate) enum Flow {
    Continue,
    Quit,
    /// A `MONITOR` frame executed: the worker must subscribe this
    /// connection to the hub (the sampling stride rides along).
    Monitor(Option<u64>),
}

fn key_ok(key: u64) -> bool {
    (KEY_RANGE.0..=KEY_RANGE.1).contains(&key)
}

/// `false` if a key the request names is out of range: the frame is then
/// answered with one error and nothing of it executes (a batch verb runs
/// entirely or not at all).
fn keys_ok(req: &Request) -> bool {
    match req {
        Request::Get(k)
        | Request::Del(k)
        | Request::Set(k, _)
        | Request::SetEx(k, ..)
        | Request::Expire(k, _)
        | Request::Ttl(k)
        | Request::Persist(k) => key_ok(*k),
        Request::MGet(keys) => keys.iter().all(|&k| key_ok(k)),
        Request::MSet(entries) => entries.iter().all(|&(k, _)| key_ok(k)),
        _ => true,
    }
}

/// Writes a batched read's replies in key order — a bulk value per hit, a
/// null per miss — and counts its ops, hits and misses under `family`.
fn reply_batch(ctx: &ConnCtx<'_>, family: Family, batch: &BatchValues, out: &mut Vec<u8>) {
    let mut found = 0u64;
    for value in batch.iter() {
        match value {
            Some(v) => {
                found += 1;
                wire::bulk(out, v);
            }
            None => wire::null(out),
        }
    }
    let missed = batch.len() as u64 - found;
    let stats = ctx.stats;
    WorkerStats::bump(&stats.ops, batch.len() as u64);
    if found > 0 {
        WorkerStats::bump(&stats.hits, found);
    }
    if missed > 0 {
        WorkerStats::bump(&stats.misses, missed);
    }
    ctx.tel.record_lookups(family, found, missed);
}

const KEY_RANGE_MSG: &str = "key out of usable range [1, 2^64-2]";

/// Executes one well-formed frame against the store, appending its reply.
pub(crate) fn execute(
    req: &Request,
    ctx: &ConnCtx<'_>,
    bufs: &mut ConnBufs,
    out: &mut Vec<u8>,
) -> Flow {
    let stats = ctx.stats;
    WorkerStats::bump(&stats.frames, 1);
    if !keys_ok(req) {
        WorkerStats::bump(&stats.errors, 1);
        wire::error(out, KEY_RANGE_MSG);
        return Flow::Continue;
    }
    match req {
        Request::Get(k) => {
            WorkerStats::bump(&stats.ops, 1);
            if ctx.store.get(*k, &mut bufs.value) {
                WorkerStats::bump(&stats.hits, 1);
                ctx.tel.record_lookups(Family::Get, 1, 0);
                wire::bulk(out, &bufs.value);
            } else {
                WorkerStats::bump(&stats.misses, 1);
                ctx.tel.record_lookups(Family::Get, 0, 1);
                wire::null(out);
            }
        }
        Request::Set(k, v) => {
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.set(*k, v) as u64);
        }
        Request::SetEx(k, v, secs) => {
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.set_ex(*k, v, secs.saturating_mul(1000)) as u64);
        }
        Request::Expire(k, secs) => {
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.expire(*k, secs.saturating_mul(1000)) as u64);
        }
        Request::Ttl(k) => {
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
            WorkerStats::bump(&stats.ops, 1);
            wire::int(out, ctx.store.persist(*k) as u64);
        }
        Request::Del(k) => {
            WorkerStats::bump(&stats.ops, 1);
            let removed = ctx.store.del(*k);
            // DEL reuses the lookup cells as found / not-found (it is not a
            // read, so the server-wide read hit counters stay untouched).
            ctx.tel.record_lookups(Family::Del, removed as u64, !removed as u64);
            wire::int(out, removed as u64);
        }
        Request::MGet(keys) => {
            ctx.store.multi_get(keys, &mut bufs.batch);
            wire::array_header(out, keys.len());
            reply_batch(ctx, Family::MGet, &bufs.batch, out);
        }
        Request::MSet(entries) => {
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
        Request::Stats => report::answer_stats(ctx, out),
        Request::Info(section) => report::answer_info(ctx, section.as_deref(), out),
        Request::Slowlog(cmd) => report::answer_slowlog(ctx, cmd, out),
        Request::Metrics => report::answer_metrics(ctx, out),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SlowlogCmd;
    use crate::report::tests::{run_ctx, with_store};
    use crate::store::BlobStore;
    use ascylib::hashtable::ClhtLb;
    use ascylib_shard::BlobMap;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Connection::new(accepted).unwrap(), peer)
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
    fn slowlog_threshold_zero_captures_everything() {
        // Four shards, and a key that does not route to the first: the
        // entry must carry the store's own routing, not a default.
        let map = Arc::new(BlobMap::new(4, |_| ClhtLb::with_capacity(64)));
        let shard = map.shard_of(9) as u32;
        assert_ne!(shard, 0, "pick a key off shard 0");
        with_store(&BlobStore::new(map), |ctx| {
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
            assert_eq!(ops[0].shard, shard);
            let mut body = Vec::new();
            report::answer_slowlog(&ctx, &SlowlogCmd::Get, &mut body);
            let body = String::from_utf8_lossy(&body);
            assert!(body.contains("family=set key=9 bytes=3"));
            assert!(body.contains(&format!("worker=0 shard={shard}")), "{body}");
            ctx.hub.slow_reset();
            assert_eq!(ctx.hub.slow_len(), 0);
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
