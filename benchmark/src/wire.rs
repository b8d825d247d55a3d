//! The loopback drivers: one connection, closed loop at a pipeline depth
//! or open loop on a Poisson schedule.
//!
//! Both are built on the crate's public codec (`encode_request`,
//! `encode_set`, `ReplyParser`) rather than on `Pipeline::run`, which hands
//! replies back only once the whole batch is in: timing one frame's reply,
//! pacing sends on a non-blocking socket, and recording where a request's
//! time went all need the loop itself. The closed loop is the same
//! write-everything-then-read-in-order exchange `Pipeline::run` performs.
//!
//! With one connection replies come back in request order, so each is
//! matched FIFO against what was sent and must carry exactly the version
//! the lane had written when the request was queued.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

use ascylib_server::protocol::{encode_request, encode_set, ParseError, ReplyParser};
use ascylib_server::{Reply, Request};

use crate::estimate::{BATCH, SAMPLE_EVERY};
use crate::lane::PhaseResult;
use crate::ops::{Kind, Op, OpGen, Purpose, Schedule, Spec};
use crate::span::now_ns;
use crate::value;

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops.
    Count(u64),
    /// Closed loop: at the first batch boundary this many ns in. Open
    /// loop: once every op due within this many ns has been answered.
    After(u64),
}

/// An op the open loop's lane gets to more than this many mean
/// interarrival gaps after it was due (100 µs at 20 k/s) was delayed by
/// the generator, not the server.
pub const LATE_GAPS: f64 = 2.0;

/// How long the open loop waits for replies after its last op was due
/// before it counts the rest as unanswered.
const DRAIN_GRACE_NS: u64 = 2_000_000_000;

/// One in [`SAMPLE_EVERY`] ops, at a position that rotates through the
/// pipeline round so no slot of a round is favoured.
#[inline]
fn sampled(index: u64) -> bool {
    let every = SAMPLE_EVERY as u64;
    index % every == (index / every) % every
}

/// What a reply's latency counts from.
#[derive(Clone, Copy)]
enum Timing {
    /// Closed loop: its round's write, for the one op in [`SAMPLE_EVERY`].
    FromWrite(u64),
    /// Open loop: when it was due, for every op — except those the lane
    /// itself sent more than `late_limit` ns late: they time the
    /// generator, not the server, and are only counted.
    FromDue { late_limit: u64 },
}

struct Pending {
    op: Op,
    /// GET: the version the reply must carry.
    version: u32,
    /// Open loop: when the op was due, and how long after that the lane
    /// got to it.
    due: u64,
    late: u64,
    request: u64,
    sampled: bool,
    /// Traced and sampled only: encode and write intervals.
    encode: (u64, u64),
    write: (u64, u64),
}

/// The single load-generating lane of a wire workload.
pub struct WireLane {
    spec: Spec,
    seed: u64,
    stream: TcpStream,
    parser: ReplyParser,
    chunk: Box<[u8]>,
    out: Vec<u8>,
    gen: OpGen,
    /// Version last written per key (this lane is every key's only writer).
    versions: Vec<u32>,
    issued: u64,
    write_buf: Vec<u8>,
    ops: Vec<Op>,
    pending: VecDeque<Pending>,
}

impl WireLane {
    /// Connects to a server whose store holds version 1 of every key.
    pub fn connect(addr: SocketAddr, spec: &Spec, seed: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireLane {
            spec: *spec,
            seed,
            stream,
            parser: ReplyParser::new(),
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
            out: Vec::with_capacity(16 * 1024),
            gen: OpGen::new(spec, seed, 0, Purpose::Ops),
            versions: vec![1; spec.keys as usize + 1],
            issued: 0,
            write_buf: vec![0u8; spec.value_len],
            ops: Vec::with_capacity(BATCH),
            pending: VecDeque::with_capacity(1024),
        })
    }

    /// Tells the lane which version of each key the store holds, when it
    /// is not a fresh preload.
    pub fn set_versions(&mut self, versions: Vec<u32>) {
        assert_eq!(versions.len(), self.versions.len());
        self.versions = versions;
    }

    /// Encodes `op` onto the write buffer and queues what its reply must be.
    fn queue(&mut self, op: Op, due: u64, late: u64, trace: bool) {
        let request = self.issued;
        self.issued += 1;
        let sampled = sampled(request);
        let e0 = if sampled && trace { now_ns() } else { 0 };
        let slot = &mut self.versions[op.key as usize];
        match op.kind {
            Kind::Get => encode_request(&Request::Get(op.key), &mut self.out),
            Kind::Set => {
                *slot += 1;
                value::encode(&mut self.write_buf, op.key, *slot);
                encode_set(&mut self.out, op.key, &self.write_buf);
            }
        }
        let version = *slot;
        let e1 = if sampled && trace { now_ns() } else { 0 };
        self.pending.push_back(Pending {
            op,
            version,
            due,
            late,
            request,
            sampled,
            encode: (e0, e1),
            write: (0, 0),
        });
    }

    /// Checks `reply` against the oldest unanswered request; `parse_from`
    /// is when its bytes were in hand.
    fn settle(
        &mut self,
        reply: Result<Reply, ParseError>,
        res: &mut PhaseResult,
        timing: Timing,
        parse_from: u64,
    ) {
        let Some(p) = self.pending.pop_front() else {
            res.tally.fail(|| "a reply nothing was waiting for".into());
            return;
        };
        let from = match timing {
            Timing::FromWrite(at) => p.sampled.then_some(at),
            Timing::FromDue { late_limit } if p.late > late_limit => {
                res.sent_late += 1;
                None
            }
            Timing::FromDue { .. } => Some(p.due),
        };
        if let Some(from) = from {
            let done = now_ns();
            let samples = if p.op.kind == Kind::Get {
                &mut res.get_ns
            } else {
                &mut res.set_ns
            };
            samples.push(done.saturating_sub(from));
            if let (true, Some(rec)) = (p.sampled, res.spans.as_mut()) {
                let id = rec.push("request", from.min(p.encode.0), done, 0, p.request);
                rec.push("client.encode", p.encode.0, p.encode.1, id, p.request);
                rec.push("client.write", p.write.0, p.write.1, id, p.request);
                rec.push("client.wait", p.write.1, parse_from, id, p.request);
                rec.push("client.parse", parse_from, done, id, p.request);
            }
        }
        let key = p.op.key;
        match (p.op.kind, reply) {
            (Kind::Get, Ok(Reply::Bulk(bytes))) => {
                res.tally.gets += 1;
                match value::verify(&bytes, key, self.spec.value_len) {
                    Ok(got) if got == p.version => res.tally.hits += 1,
                    Ok(got) => res
                        .tally
                        .fail(|| format!("GET {key}: version {got}, wrote {}", p.version)),
                    Err(bad) => res.tally.fail(|| format!("GET {key}: {bad:?} value")),
                }
            }
            (Kind::Get, Ok(Reply::Null)) => {
                res.tally.gets += 1;
                if self.spec.budget.is_none() {
                    res.tally
                        .fail(|| format!("GET {key}: miss on an unbounded store"));
                }
            }
            (Kind::Set, Ok(Reply::Int(created))) if created == 0 || self.spec.budget.is_some() => {}
            (kind, other) => res
                .tally
                .fail(|| format!("{kind:?} {key}: unexpected reply {other:?}")),
        }
    }

    /// Blocks until more reply bytes are in the parser.
    fn read_more(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.parser.feed(&self.chunk[..n]);
        Ok(())
    }

    /// Closed loop: rounds of `depth` frames, written in one write and read
    /// back in order. A timed frame's latency runs from its round's write
    /// to its own reply parsed.
    pub fn run_pipe(&mut self, depth: usize, stop: Stop, trace: bool) -> io::Result<PhaseResult> {
        assert_eq!(BATCH % depth, 0, "a batch is a whole number of rounds");
        let mut res = PhaseResult::with_capacity(1 << 20, 0, trace);
        let start = now_ns();
        let mut left = match stop {
            Stop::Count(n) => n,
            Stop::After(_) => u64::MAX,
        };
        while left > 0 {
            let n = left.min(BATCH as u64) as usize;
            let mut ops = std::mem::take(&mut self.ops);
            self.gen.fill(&mut ops, n);
            let t0 = now_ns();
            for round in ops.chunks(depth) {
                self.round(round, &mut res, trace)?;
            }
            let t1 = now_ns();
            self.ops = ops;
            res.tally.attempted += n as u64;
            left -= n as u64;
            if n == BATCH {
                res.batch_ns.push(t1 - t0);
            }
            res.elapsed_ns = t1 - start;
            if matches!(stop, Stop::After(ns) if res.elapsed_ns >= ns) {
                break;
            }
        }
        Ok(res)
    }

    fn round(&mut self, ops: &[Op], res: &mut PhaseResult, trace: bool) -> io::Result<()> {
        self.out.clear();
        for &op in ops {
            self.queue(op, 0, 0, trace);
        }
        let w0 = now_ns();
        self.stream.write_all(&self.out)?;
        if trace {
            let w1 = now_ns();
            for p in self.pending.iter_mut().filter(|p| p.sampled) {
                p.write = (w0, w1);
            }
        }
        for _ in 0..ops.len() {
            let mut parse_from = if trace { now_ns() } else { 0 };
            let reply = loop {
                if let Some(reply) = self.parser.next() {
                    break reply;
                }
                self.read_more()?;
                if trace {
                    parse_from = now_ns();
                }
            };
            self.settle(reply, res, Timing::FromWrite(w0), parse_from);
        }
        Ok(())
    }

    /// Open loop: ops become due on a seeded Poisson schedule of `rate` per
    /// second and are sent as soon as the lane sees them due, whatever is
    /// still unanswered. Every op is timed from when it was **due**; how
    /// late the lane actually got to it goes to `late_ns`, and an op it got
    /// to more than [`LATE_GAPS`] mean gaps late is counted in `sent_late`
    /// instead of timed. The lane spins on a non-blocking socket: a
    /// sleeping pacer would put its wake-up latency into every sample.
    pub fn run_open(
        &mut self,
        rate: f64,
        stop: Stop,
        purpose: Purpose,
        trace: bool,
    ) -> io::Result<PhaseResult> {
        self.stream.set_nonblocking(true)?;
        let res = self.open_loop(rate, stop, purpose, trace);
        self.stream.set_nonblocking(false)?;
        res
    }

    fn open_loop(
        &mut self,
        rate: f64,
        stop: Stop,
        purpose: Purpose,
        trace: bool,
    ) -> io::Result<PhaseResult> {
        let expected = match stop {
            Stop::Count(n) => n as usize,
            Stop::After(ns) => (ns as f64 / 1e9 * rate * 1.1) as usize,
        };
        let mut res = PhaseResult::with_capacity(expected, 0, trace);
        res.late_ns = Vec::with_capacity(expected);
        let late_limit = (LATE_GAPS * 1e9 / rate) as u64;
        let mut schedule = Schedule::new(self.seed, purpose, rate);
        let start = now_ns();
        let mut next_due = Some(start + schedule.next().expect("endless"));
        let mut last_due = start;
        self.out.clear();
        loop {
            let now = now_ns();
            while let Some(due) = next_due.filter(|&due| due <= now) {
                let late = now_ns() - due;
                res.late_ns.push(late);
                let op = self.gen.next_op();
                self.queue(op, due, late, trace);
                res.tally.attempted += 1;
                last_due = due;
                // One op per write while the socket keeps up: the server
                // sees arrivals one by one, as independent clients would
                // send them.
                let w0 = if trace { now_ns() } else { 0 };
                self.flush()?;
                if trace {
                    self.pending.back_mut().expect("just queued").write = (w0, now_ns());
                }
                let offset = schedule.next().expect("endless");
                let more = match stop {
                    Stop::Count(n) => res.tally.attempted < n,
                    Stop::After(ns) => offset < ns,
                };
                next_due = more.then_some(start + offset);
            }
            self.flush()?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.parser.feed(&self.chunk[..n]);
                    let mut parse_from = now_ns();
                    while let Some(reply) = self.parser.next() {
                        self.settle(reply, &mut res, Timing::FromDue { late_limit }, parse_from);
                        parse_from = now_ns();
                    }
                    res.elapsed_ns = parse_from - start;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if next_due.is_none() {
                if self.pending.is_empty() {
                    return Ok(res);
                }
                if now > last_due + DRAIN_GRACE_NS {
                    let unanswered = self.pending.len() as u64;
                    self.pending.clear();
                    res.tally.failed += unanswered;
                    res.tally
                        .first_failure
                        .get_or_insert_with(|| format!("{unanswered} ops never answered"));
                    return Ok(res);
                }
            }
        }
    }

    /// Writes what the socket takes of the write buffer; the rest stays
    /// queued for the next call.
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        match self.stream.write(&self.out) {
            Ok(n) => {
                self.out.drain(..n);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}
