//! The TCP serving tier: worker-owned connections.
//!
//! [`Server::start`] binds a nonblocking listener and spawns one
//! **acceptor** thread plus `N` **worker** threads. The acceptor accepts
//! sockets, deals each to a worker and never touches it again. A worker
//! owns everything its connections touch — its own [`Poller`] (epoll on
//! Linux, poll(2) elsewhere — see `vendor/polling`), a slab of connections
//! with a free list and a run queue — and drives each connection's state
//! machine (`Connection::advance` in `conn.rs`) as far as the socket allows
//! whenever its poller reports the socket ready.
//!
//! **The ownership rule:** a connection lives and dies on the thread it
//! was dealt to. That thread registers the descriptor, reads, executes,
//! writes, checks idleness and closes, so none of it takes a lock, a
//! connection's frames stay strictly ordered, and a descriptor is closed
//! by the only thread that could otherwise still use it. The one structure
//! another thread writes is the worker's **inbox** (a mutex-guarded vector
//! plus [`Poller::notify`]): new connections from the acceptor, `MONITOR`
//! wakes from publishers on any worker, its own included. A request never
//! goes near it.
//!
//! **Registrations persist.** A connection is registered once, for
//! readability, and the kernel is told again only when what it waits for
//! changes: a flush that blocks narrows the interest to writability — so a
//! peer that will not drain its replies cannot wake the worker with more
//! input — and the flush completing widens it back.
//!
//! **Dealing** is round-robin, so the numbers of connections *dealt* to any
//! two workers differ by at most one. That bounds connections, not load: a
//! worker whose connections are the busy ones stays busier, and closes can
//! leave the live counts further apart. Nothing rebalances; what was given
//! up is work-sharing between workers.
//!
//! **Idle eviction:** once per sweep interval (an eighth of the timeout,
//! clamped to 5–500 ms) a worker walks its own slab and closes every
//! connection whose `last_active` is a whole timeout old — no socket
//! progress at all; a slow-loris trickle *is* progress — counting each in
//! `timeouts`. A recycled slot's tenant is judged by its own `last_active`.
//!
//! **Shutdown** ([`ServerHandle::shutdown`]) sets the flag and notifies
//! every poller: the acceptor stops accepting, each worker closes its
//! inbox, best-effort flushes its connections' buffered replies and closes
//! them. [`ServerHandle::join`] (or dropping the handle) blocks until every
//! thread has exited.
//!
//! Counters live in one cache-line-padded block per worker — serving
//! counters, telemetry and structure-level concurrency counters — plus the
//! acceptor's own serving counters (`stats.rs`). Every block has one
//! writer; a reading of the whole server walks the blocks once.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ascylib_telemetry::window::{
    DEFAULT_WINDOW_CAPACITY, DEFAULT_WINDOW_INTERVAL_NS, DEFAULT_WINDOW_NS,
};
use ascylib_telemetry::{
    Family, SlowOp, TelemetrySnapshot, WindowDelta, WindowRing, WindowSample, WorkerTelemetry,
};
use crossbeam_utils::CachePadded;
use polling::{Events, Interest, Poller};

use crate::conn::{Advance, ConnCtx, Connection};
use crate::monitor::{MonitorHub, MonitorStats};
use crate::report::{
    WIN_BYTES_IN, WIN_BYTES_OUT, WIN_CAS_FAILS, WIN_COUNTERS, WIN_ERRORS, WIN_OPS, WIN_RESTARTS,
};
use crate::stats::{ConcurrencySnapshot, ConcurrencyStats, ServerStatsSnapshot, WorkerStats};
use crate::store::KvStore;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads, each serving the connections dealt to it. Decoupled
    /// from the connection count: a few workers serve thousands of
    /// connections.
    pub workers: usize,
    /// Close connections with no socket progress for this long (`None`
    /// disables eviction). Enforced by a sweep of each worker's slab every
    /// eighth of the timeout (clamped to 5–500 ms), so eviction can run one
    /// sweep interval late.
    pub idle_timeout: Option<Duration>,
    /// Requests with service time (execute phase) at or above this are
    /// captured in the per-worker slow-op rings.
    pub slowlog_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            idle_timeout: Some(Duration::from_secs(60)),
            slowlog_threshold: Duration::from_millis(10),
        }
    }
}

impl ServerConfig {
    /// A config sized to serve `n` concurrent connections. The event-driven
    /// tier decouples workers from connections, so this only nudges the
    /// worker count up for parallel execution — it is *not* a capacity
    /// limit the way it was for the thread-per-connection design.
    pub fn for_connections(n: usize) -> Self {
        Self { workers: n.clamp(1, 8), ..Self::default() }
    }
}

/// The listening socket's token; the acceptor's poller holds nothing else.
const LISTENER_TOKEN: u64 = 0;

/// Most sockets accepted before they are dealt, so that a connect flood
/// cannot keep accepted connections from their workers.
const ACCEPT_BURST: usize = 64;

/// `(worker, slab index)`: a connection's readiness token and `MONITOR`
/// wake address.
fn pack(worker: u32, idx: u32) -> u64 {
    ((worker as u64) << 32) | idx as u64
}

fn unpack(token: u64) -> (u32, u32) {
    ((token >> 32) as u32, token as u32)
}

/// What another thread can hand a worker.
enum Mail {
    /// A connection the acceptor dealt to this worker.
    Conn(Box<Connection>),
    /// A `MONITOR` wake for the subscriber in this slot, from whichever
    /// worker published.
    Wake(u32),
}

/// The part of a worker other threads can reach: its inbox, and its poller
/// for [`Poller::notify`] only (the ownership contract of `vendor/polling`).
struct Port {
    poller: Poller,
    /// `None` once the worker, on its way out, swept it for the last time.
    inbox: Mutex<Option<Vec<Mail>>>,
    /// Mail is waiting: lets the worker skip the lock on every turn that
    /// brought none. A hint; the mutex orders the mail itself.
    flagged: AtomicBool,
}

impl Port {
    /// Hands `mail` to the worker and wakes it. `false` (and the mail
    /// dropped) if the worker is gone.
    fn send(&self, mail: impl IntoIterator<Item = Mail>) -> bool {
        let mut guard = self.inbox.lock().expect("inbox poisoned");
        let Some(inbox) = guard.as_mut() else { return false };
        inbox.extend(mail);
        drop(guard);
        self.flagged.store(true, Ordering::Release);
        let _ = self.poller.notify();
        true
    }
}

/// Everything one worker counts, in one cache-padded block only that
/// worker writes.
#[derive(Default)]
struct WorkerBlock {
    stats: WorkerStats,
    tel: WorkerTelemetry,
    /// The worker thread's [`ascylib::stats::OpCounters`] and allocator
    /// view, published before every flush of replies and every scrape it
    /// answers.
    conc: ConcurrencyStats,
}

/// One reading of the whole server, summed over every block.
pub(crate) struct Totals {
    pub server: ServerStatsSnapshot,
    pub tel: TelemetrySnapshot,
    pub conc: ConcurrencySnapshot,
}

/// Shared state between the acceptor, the workers, and the handle.
pub(crate) struct Shared {
    store: Arc<dyn KvStore>,
    shutdown: AtomicBool,
    /// The acceptor's poller: the listener, and `notify` for shutdown.
    acceptor: Poller,
    /// One per worker.
    ports: Box<[Port]>,
    /// One per worker.
    blocks: Box<[CachePadded<WorkerBlock>]>,
    /// The acceptor's counters: accepts, and connections it had to turn
    /// away.
    acceptor_stats: CachePadded<WorkerStats>,
    /// Cumulative-sample ring behind the windowed rates and quantiles.
    /// Rotation is reader-driven: scrapes elect one sampler, the serving
    /// hot path never touches it.
    window: WindowRing,
    /// The `MONITOR` broadcast hub.
    monitor: MonitorHub,
    started: Instant,
    pub(crate) config: ServerConfig,
}

impl Shared {
    fn new(store: Arc<dyn KvStore>, config: ServerConfig) -> io::Result<Shared> {
        let workers = config.workers.max(1);
        Ok(Shared {
            store,
            shutdown: AtomicBool::new(false),
            acceptor: Poller::new()?,
            ports: (0..workers)
                .map(|_| {
                    Ok(Port {
                        poller: Poller::new()?,
                        inbox: Mutex::new(Some(Vec::new())),
                        flagged: AtomicBool::new(false),
                    })
                })
                .collect::<io::Result<_>>()?,
            blocks: (0..workers).map(|_| CachePadded::default()).collect(),
            acceptor_stats: CachePadded::default(),
            window: WindowRing::new(DEFAULT_WINDOW_INTERVAL_NS, DEFAULT_WINDOW_CAPACITY),
            monitor: MonitorHub::default(),
            started: Instant::now(),
            config: ServerConfig { workers, ..config },
        })
    }

    /// A one-worker server that is never started, for serving frames from
    /// a test thread: no slow-op capture, and a window ring that rotates on
    /// every scrape.
    #[cfg(test)]
    pub(crate) fn for_tests(store: Arc<dyn KvStore>) -> Shared {
        let config = ServerConfig {
            workers: 1,
            idle_timeout: None,
            slowlog_threshold: Duration::MAX,
        };
        Shared {
            window: WindowRing::new(1, DEFAULT_WINDOW_CAPACITY),
            ..Shared::new(store, config).expect("pollers for a test server")
        }
    }

    /// Sums every block once. The acceptor's block adds its accepts;
    /// `frames`, `hits` and `misses` come from the telemetry families, and
    /// the connection gauge from the counters.
    pub(crate) fn totals(&self) -> Totals {
        let mut t = Totals {
            server: self.acceptor_stats.snapshot(),
            tel: TelemetrySnapshot::default(),
            conc: ConcurrencySnapshot::default(),
        };
        for b in self.blocks.iter() {
            t.server.merge_counters(&b.stats.snapshot());
            t.tel.merge(&b.tel.snapshot());
            t.conc.merge(&b.conc.snapshot());
        }
        t.server.frames = Family::ALL.iter().map(|f| t.tel.family(*f).ops).sum();
        (t.server.hits, t.server.misses) = t.tel.read_outcomes();
        // Gauge contract (see `stats.rs`): the merge leaves the gauge at
        // zero and the aggregator fills it in. Every accepted connection is
        // counted closed exactly once, later: open = accepted − closed.
        t.server.curr_connections = t.server.accepted.saturating_sub(t.server.connections);
        t
    }

    /// Everything worker `index` needs to serve a connection.
    pub(crate) fn ctx(&self, index: usize) -> ConnCtx<'_> {
        let block = &self.blocks[index];
        ConnCtx {
            store: &*self.store,
            stats: &block.stats,
            tel: &block.tel,
            conc: &block.conc,
            shared: self,
            slow_ns: self.config.slowlog_threshold.as_nanos().min(u64::MAX as u128) as u64,
            worker: index as u32,
            monitor: &self.monitor,
        }
    }

    /// Wakes the `MONITOR` subscriber at `token` on the worker that owns
    /// it. Refused only by a worker that is shutting down.
    pub(crate) fn wake(&self, token: u64) {
        let (worker, idx) = unpack(token);
        self.ports[worker as usize].send([Mail::Wake(idx)]);
    }

    /// Slow-op entries across every worker, newest first.
    pub(crate) fn slow_ops(&self) -> Vec<SlowOp> {
        // Each ring is oldest-first; the stable sort keeps a worker's
        // entries of one millisecond newest-first.
        let mut ops: Vec<SlowOp> =
            self.blocks.iter().flat_map(|b| b.tel.slow_ops().into_iter().rev()).collect();
        ops.sort_by_key(|op| std::cmp::Reverse(op.unix_ms));
        ops
    }

    /// Clears every worker's slow-op ring.
    pub(crate) fn slow_reset(&self) {
        for b in self.blocks.iter() {
            b.tel.slow_reset();
        }
    }

    /// Entries currently held across every slow-op ring.
    pub(crate) fn slow_len(&self) -> u64 {
        self.blocks.iter().map(|b| b.tel.slow_len() as u64).sum()
    }

    /// Milliseconds since the server started.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Offers `t` to the window ring if an interval elapsed, and returns
    /// the delta over the default window: `None` until the ring holds two
    /// samples (the window is still warming up).
    pub(crate) fn window(&self, t: &Totals) -> Option<WindowDelta> {
        // Reader-driven rotation: a scrape landing past the interval takes
        // a whole-server cumulative sample (`rotate` elects exactly one
        // contender under concurrent scrapes). The monotonic clock is the
        // server's uptime — `Instant`-based, so it needs no calibration.
        let mono_ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.window.due(mono_ns) {
            let mut counters = vec![0u64; WIN_COUNTERS];
            counters[WIN_OPS] = t.server.ops;
            counters[WIN_BYTES_IN] = t.server.bytes_in;
            counters[WIN_BYTES_OUT] = t.server.bytes_out;
            counters[WIN_ERRORS] = t.server.errors;
            counters[WIN_CAS_FAILS] = t.conc.ops.atomic_failures;
            counters[WIN_RESTARTS] = t.conc.ops.restarts;
            self.window.rotate(WindowSample {
                mono_ns,
                counters,
                hist: t.tel.data_requests(),
            });
        }
        self.window.delta(DEFAULT_WINDOW_NS)
    }
}

/// The serving tier. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port — the bound address
    /// is on the handle) and starts the acceptor + worker threads serving
    /// `store`.
    pub fn start<S: KvStore>(
        addr: impl ToSocketAddrs,
        store: S,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        // Calibrate the telemetry fast clock before any request is timed,
        // so the one-time spin (~200 µs) never lands on a served frame.
        ascylib_telemetry::clock::calibrate();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(Arc::new(store), config)?);
        shared.acceptor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;

        // The handle comes first: a failed spawn leaves through `?`, and
        // dropping the handle stops and joins the threads that did start.
        let mut handle = ServerHandle { addr: local, shared, threads: Vec::new() };
        let shared = Arc::clone(&handle.shared);
        handle.threads.push(
            std::thread::Builder::new()
                .name("ascy-acceptor".into())
                .spawn(move || acceptor_loop(listener, &shared))?,
        );
        for i in 0..handle.shared.config.workers {
            let shared = Arc::clone(&handle.shared);
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("ascy-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))?,
            );
        }
        Ok(handle)
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Shared) {
    let stats = &shared.acceptor_stats;
    let mut events = Events::new();
    let mut hands: Vec<Vec<Mail>> = shared.ports.iter().map(|_| Vec::new()).collect();
    let mut next = 0;
    while !shared.shutdown.load(Ordering::Acquire)
        && shared.acceptor.wait(&mut events, None).is_ok()
    {
        // Accept first, deal afterwards: waking a worker per socket makes
        // the acceptor share its CPU with the workers it wakes, and a
        // listen queue that overflows meanwhile costs the peer a second.
        // Any failed accept ends the pass; the listener stays registered,
        // so the next `wait` reports whatever is still queued.
        for _ in 0..ACCEPT_BURST {
            let Ok((stream, _peer)) = listener.accept() else { break };
            let Ok(conn) = Connection::new(stream) else { continue };
            WorkerStats::bump(&stats.accepted, 1);
            hands[next].push(Mail::Conn(Box::new(conn)));
            next = (next + 1) % hands.len();
        }
        for (port, hand) in shared.ports.iter().zip(hands.iter_mut()) {
            let dealt = hand.len() as u64;
            if dealt > 0 && !port.send(hand.drain(..)) {
                // The worker is gone (shutdown raced these accepts); the
                // refused connections closed as the drain dropped.
                WorkerStats::bump(&stats.connections, dealt);
            }
        }
    }
    // Dropping the listener here closes the accept socket.
}

/// One slab slot of a worker.
struct Entry {
    conn: Option<Box<Connection>>,
    /// What the poller currently reports this connection's socket for.
    interest: Interest,
    /// The slot is on the run queue.
    queued: bool,
}

/// A worker thread's private state: everything its connections touch.
struct Worker<'a> {
    index: usize,
    port: &'a Port,
    slab: Vec<Entry>,
    free: Vec<u32>,
    /// Slots with work that needs no readiness event: connections that
    /// yielded ([`Advance::Yield`]) and woken `MONITOR` subscribers.
    run: VecDeque<u32>,
    /// The idle timeout and the interval of the sweep that enforces it
    /// (`None`: no eviction).
    idle: Option<(Duration, Duration)>,
    next_sweep: Instant,
    chunk: Vec<u8>,
}

impl<'a> Worker<'a> {
    fn new(index: usize, shared: &'a Shared) -> Worker<'a> {
        let idle = shared.config.idle_timeout.map(|idle| {
            (idle, (idle / 8).clamp(Duration::from_millis(5), Duration::from_millis(500)))
        });
        Worker {
            index,
            port: &shared.ports[index],
            slab: Vec::new(),
            free: Vec::new(),
            run: VecDeque::new(),
            idle,
            next_sweep: Instant::now(),
            chunk: vec![0u8; 16 * 1024],
        }
    }

    /// A due idle sweep, then readiness, the inbox and the run queue.
    fn turn(&mut self, ctx: &ConnCtx<'_>, events: &mut Events) -> io::Result<()> {
        let until_sweep = self.evict_idle(ctx);
        let timeout = if self.run.is_empty() { until_sweep } else { Some(Duration::ZERO) };
        self.port.poller.wait(events, timeout)?;
        for ev in events.iter() {
            WorkerStats::bump(&ctx.stats.wakeups, 1);
            self.advance(ctx, unpack(ev.token).1);
        }
        if self.port.flagged.load(Ordering::Acquire) {
            self.port.flagged.store(false, Ordering::Release);
            let mail = self.port.inbox.lock().expect("inbox poisoned").replace(Vec::new());
            for mail in mail.into_iter().flatten() {
                match mail {
                    Mail::Conn(conn) => self.adopt(ctx, conn),
                    Mail::Wake(idx) => self.enqueue(idx),
                }
            }
        }
        // Only what was queued when the pass began: a connection that
        // yields again waits for the next `wait` like everyone else.
        for _ in 0..self.run.len() {
            let idx = self.run.pop_front().expect("length checked above");
            if std::mem::take(&mut self.slab[idx as usize].queued) {
                self.advance(ctx, idx);
            }
        }
        Ok(())
    }

    /// Gives a dealt connection a slot, a registration and its token.
    fn adopt(&mut self, ctx: &ConnCtx<'_>, mut conn: Box<Connection>) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Entry { conn: None, interest: Interest::READABLE, queued: false });
            (self.slab.len() - 1) as u32
        });
        conn.token = pack(self.index as u32, idx);
        let registered = self.port.poller.register(conn.fd(), conn.token, Interest::READABLE);
        let entry = &mut self.slab[idx as usize];
        entry.interest = Interest::READABLE;
        entry.conn = Some(conn);
        if registered.is_err() {
            self.close(ctx, idx);
        }
    }

    /// Puts the connection in slot `idx` on the run queue. `MONITOR` wakes
    /// land here, and a wake can outlive its subscriber: a vacant slot drops
    /// it, a new tenant gets one spurious `advance` that finds nothing to
    /// do. No trace frame goes astray either way — a connection drains only
    /// the sink it holds itself, and the subscriber's went with it.
    fn enqueue(&mut self, idx: u32) {
        if let Some(entry) = self.slab.get_mut(idx as usize) {
            if entry.conn.is_some() && !entry.queued {
                entry.queued = true;
                self.run.push_back(idx);
            }
        }
    }

    /// Drives the connection in slot `idx` and does what it asks for next.
    fn advance(&mut self, ctx: &ConnCtx<'_>, idx: u32) {
        let entry = &mut self.slab[idx as usize];
        let Some(conn) = entry.conn.as_mut() else { return };
        let outcome = conn.advance(ctx, &mut self.chunk);
        match outcome {
            Advance::Arm(interest) if interest == entry.interest => {}
            Advance::Arm(interest) => {
                entry.interest = interest;
                if self.port.poller.modify(conn.fd(), conn.token, interest).is_err() {
                    self.close(ctx, idx);
                }
            }
            Advance::Yield => self.enqueue(idx),
            Advance::Close(_exit) => self.close(ctx, idx),
        }
    }

    /// Deregisters and closes the connection in slot `idx`; frees the slot.
    fn close(&mut self, ctx: &ConnCtx<'_>, idx: u32) {
        let entry = &mut self.slab[idx as usize];
        let Some(conn) = entry.conn.take() else { return };
        let _ = self.port.poller.deregister(conn.fd());
        drop(conn);
        entry.queued = false;
        self.free.push(idx);
        WorkerStats::bump(&ctx.stats.connections, 1);
    }

    /// Once a sweep is due, closes every connection that made no progress
    /// for the whole idle timeout. Returns the time left until the next
    /// sweep, the longest the poller may sleep (`None`: no eviction).
    fn evict_idle(&mut self, ctx: &ConnCtx<'_>) -> Option<Duration> {
        let (idle, every) = self.idle?;
        let now = Instant::now();
        if now >= self.next_sweep {
            self.next_sweep = now + every;
            for idx in 0..self.slab.len() as u32 {
                let conn = self.slab[idx as usize].conn.as_ref();
                if conn.is_some_and(|conn| conn.last_active + idle <= now) {
                    self.close(ctx, idx);
                    WorkerStats::bump(&ctx.stats.timeouts, 1);
                }
            }
        }
        Some(self.next_sweep.duration_since(now))
    }

    /// The final sweep: refuse further mail, flush what was already computed
    /// and close everything, connections dealt but not yet adopted included.
    fn shut(mut self, ctx: &ConnCtx<'_>) {
        let mail = self.port.inbox.lock().expect("inbox poisoned").take();
        for mail in mail.into_iter().flatten() {
            if let Mail::Conn(conn) = mail {
                self.adopt(ctx, conn);
            }
        }
        for idx in 0..self.slab.len() as u32 {
            if let Some(conn) = self.slab[idx as usize].conn.as_mut() {
                conn.final_flush(ctx.stats);
                self.close(ctx, idx);
            }
        }
    }
}

fn worker_loop(index: usize, shared: &Shared) {
    let ctx = shared.ctx(index);
    let (mut worker, mut events) = (Worker::new(index, shared), Events::new());
    while !shared.shutdown.load(Ordering::Acquire) {
        if worker.turn(&ctx, &mut events).is_err() {
            break; // the poller is unusable: close what this worker holds
        }
    }
    worker.shut(&ctx);
}

/// Handle to a running server: its bound address, live statistics, and
/// shutdown/join control. Dropping the handle shuts the server down and
/// joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregated per-worker counters (plus the current-connection gauge).
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.totals().server
    }

    /// Elements currently in the served store.
    pub fn store_size(&self) -> usize {
        self.shared.store.size()
    }

    /// Merged server-side telemetry (per-family/per-phase histograms and
    /// hit/miss counters) across every worker.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.totals().tel
    }

    /// Slow-op entries across every worker, newest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.shared.slow_ops()
    }

    /// Summed structure-level concurrency counters (coherence events plus
    /// ssmem allocator state) across every worker block.
    pub fn concurrency(&self) -> ConcurrencySnapshot {
        self.shared.totals().conc
    }

    /// `MONITOR` broadcast counters: live subscribers, events published,
    /// events dropped on full subscriber sinks.
    pub fn monitor_stats(&self) -> MonitorStats {
        self.shared.monitor.stats()
    }

    /// Signals shutdown (idempotent, non-blocking): stop accepting, flush
    /// buffered replies, close connections.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.acceptor.notify();
        for port in self.shared.ports.iter() {
            let _ = port.poller.notify();
        }
    }

    /// Shuts down, blocks until the acceptor and every worker exited, and
    /// returns the final (race-free: all threads joined) counters.
    pub fn join(mut self) -> ServerStatsSnapshot {
        self.join_inner();
        self.shared.totals().server
    }

    fn join_inner(&mut self) {
        self.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::BlobStore;
    use ascylib::skiplist::FraserOptSkipList;
    use ascylib_shard::BlobMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Takes the mail waiting in worker `index`'s inbox: the slots of its
    /// `MONITOR` wakes (a test server never adopts dealt connections).
    pub(crate) fn inbox_wakes(shared: &Shared, index: usize) -> Vec<u32> {
        let mail = shared.ports[index].inbox.lock().expect("inbox poisoned").replace(Vec::new());
        let wake = |mail| match mail {
            Mail::Wake(idx) => Some(idx),
            Mail::Conn(_) => None,
        };
        mail.into_iter().flatten().filter_map(wake).collect()
    }

    fn tiny_server(workers: usize) -> ServerHandle {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig { workers, ..ServerConfig::default() },
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn starts_serves_raw_frames_and_shuts_down() {
        let server = tiny_server(2);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"SET 5 2\r\n50\r\nGET 5\r\nGET 6\r\nbogus\r\nPING\r\nQUIT\r\n").unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, ":1\r\n$2\r\n50\r\n_\r\n-ERR unknown verb\r\n+PONG\r\n+BYE\r\n");
        assert_eq!(server.store_size(), 1);
        let stats = server.join();
        assert_eq!(stats.connections, 1, "QUIT closes and the worker records the connection");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.frames, 5, "bogus line is an error, not a frame");
        assert_eq!(stats.errors, 1);
        assert!(stats.wakeups >= 1, "serving required at least one readiness dispatch");
        assert_eq!(stats.curr_connections, 0, "nothing left open after join");
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn shutdown_unblocks_idle_connections_and_workers() {
        let server = tiny_server(2);
        // One idle connection parked in the poller.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.write_all(b"PING\r\n").unwrap();
        let mut buf = [0u8; 16];
        let n = idle.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"+PONG\r\n");
        let addr = server.addr();
        server.join(); // must not hang on the idle connection
        // The listener is gone after join.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn one_worker_serves_many_connections_concurrently() {
        // The event-driven refactor's point: with a single worker there is
        // no head-of-line blocking — an open idle connection does not stop
        // later connections from being served.
        let server = tiny_server(1);
        let mut held: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // All eight get answered while all eight stay open.
        for s in held.iter_mut() {
            s.write_all(b"PING\r\n").unwrap();
        }
        let mut buf = [0u8; 16];
        for s in held.iter_mut() {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let n = s.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"+PONG\r\n");
        }
        let open = server.stats().curr_connections;
        assert_eq!(open, 8, "all connections stay open at once on one worker");
        drop(held);
        server.join();
    }

    #[test]
    fn monitor_streams_trace_events_to_a_tcp_subscriber() {
        let server = tiny_server(2);
        let mut sub = TcpStream::connect(server.addr()).unwrap();
        sub.write_all(b"MONITOR\r\n").unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 4096];
        let n = sub.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("+OK\r\n"),
            "MONITOR must be acknowledged first"
        );

        // Traffic on a second connection; keep sending until a trace frame
        // reaches the subscriber.
        let mut data = TcpStream::connect(server.addr()).unwrap();
        data.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sub.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !String::from_utf8_lossy(&got).contains("+monitor ") {
            data.write_all(b"SET 7 1\r\nx\r\n").unwrap();
            let n = data.read(&mut buf).unwrap();
            assert!(n > 0, "data connection must keep being served");
            if let Ok(n) = sub.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            assert!(Instant::now() < deadline, "no trace frame arrived: {got:?}");
        }
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("family=set"), "{text}");
        assert!(text.contains("key=7"), "{text}");
        let mon = server.monitor_stats();
        assert_eq!(mon.subscribers, 1);
        assert!(mon.events >= 1);

        // The served traffic also moved the structure-level counters.
        let conc = server.concurrency();
        assert!(conc.ops.operations > 0, "worker publishes must surface: {conc:?}");

        // Clean disconnect: QUIT answers +BYE in-band even mid-stream.
        sub.write_all(b"QUIT\r\n").unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut bye = Vec::new();
        sub.read_to_end(&mut bye).unwrap();
        assert!(String::from_utf8_lossy(&bye).contains("+BYE\r\n"));
        // The hub prunes the dead sink at the next publish or scrape.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.monitor_stats().subscribers != 0 {
            assert!(Instant::now() < deadline, "dead subscriber never pruned");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.join();
    }

    #[test]
    fn a_wake_that_outlives_its_subscriber_is_dropped_or_a_spurious_advance() {
        // One worker, driven by hand: the test thread plays the acceptor and
        // a publisher on "another worker".
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        let config = ServerConfig { workers: 1, idle_timeout: None, ..ServerConfig::default() };
        let shared = Shared::new(Arc::new(BlobStore::new(map)), config).unwrap();
        let ctx = shared.ctx(0);
        let mut worker = Worker::new(0, &shared);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let deal = || {
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            peer.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let conn = Connection::new(listener.accept().unwrap().0).unwrap();
            WorkerStats::bump(&shared.acceptor_stats.accepted, 1);
            (peer, Mail::Conn(Box::new(conn)))
        };
        // A sticky notify first, so a turn with nothing ready still returns.
        let turn = |worker: &mut Worker<'_>| {
            shared.ports[0].poller.notify().unwrap();
            worker.turn(&ctx, &mut Events::new()).unwrap();
        };
        let mut buf = [0u8; 256];

        let (mut sub, mail) = deal();
        assert!(shared.ports[0].send([mail]));
        sub.write_all(b"MONITOR\r\n").unwrap();
        while sub.read(&mut buf).map_or(true, |n| n == 0) {
            turn(&mut worker);
        }
        assert_eq!(shared.monitor.stats().subscribers, 1, "in slot 0 of worker 0");

        // A publisher on another worker queues a frame and is handed the
        // wake; the subscriber hangs up before the publisher mails it.
        let wakes = shared.monitor.publish(&crate::monitor::MonitorEvent {
            unix_ms: 0,
            family: ascylib_telemetry::Family::Set,
            key: 7,
            bytes: 1,
            service_ns: 1,
            worker: 1,
        });
        assert_eq!(wakes, [pack(0, 0)]);
        drop(sub);
        while worker.slab[0].conn.is_some() {
            turn(&mut worker);
        }
        // The late wake reaches a vacant slot: dropped.
        assert!(shared.ports[0].send([Mail::Wake(0)]));
        turn(&mut worker);
        assert!(worker.slab[0].conn.is_none(), "nothing adopted meanwhile");
        assert!(worker.run.is_empty(), "the wake was dropped");

        // A new tenant in the same slot, then the late wake: one advance
        // that finds nothing to do, and not a byte for the tenant's peer.
        let (mut tenant, mail) = deal();
        assert!(shared.ports[0].send([mail]));
        assert!(shared.ports[0].send([Mail::Wake(0)]));
        turn(&mut worker);
        assert!(worker.slab[0].conn.is_some(), "the freed slot was reused");
        assert!(worker.run.is_empty(), "the wake was served within the turn");
        assert!(tenant.read(&mut buf).is_err(), "nothing may reach the new tenant");
        tenant.write_all(b"PING\r\n").unwrap();
        let n = loop {
            turn(&mut worker);
            if let Ok(n) = tenant.read(&mut buf) {
                break n;
            }
        };
        assert_eq!(&buf[..n], b"+PONG\r\n");
        worker.shut(&ctx);
        assert_eq!(shared.totals().server.connections, 2);
        assert_eq!(shared.totals().server.curr_connections, 0);
    }
}
