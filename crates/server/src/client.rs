//! A blocking client for the ASCY wire protocol, with request pipelining
//! and binary-safe byte values.
//!
//! [`Client`] offers one typed method per verb (each is a full round trip)
//! plus a [`Pipeline`] that queues any number of requests, flushes them in
//! one write, and reads the replies back in order — the protocol guarantees
//! in-order responses, so `k` pipelined requests cost one round trip
//! instead of `k`. Value-carrying methods take `&[u8]` and encode straight
//! into the write buffer (no intermediate `Request` allocation on the hot
//! path).
//!
//! Server `-ERR` replies and protocol violations surface as
//! [`std::io::Error`] with [`ErrorKind::InvalidData`] / `Other`; the
//! connection remains usable after an in-band error reply.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    encode_mset, encode_request, encode_set, encode_set_ex, Reply, ReplyParser, Request,
    SlowlogCmd,
};

/// A blocking connection to an `ascylib-server`.
pub struct Client {
    stream: TcpStream,
    parser: ReplyParser,
    chunk: Box<[u8; 16 * 1024]>,
}

fn protocol_err(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("protocol violation: {what}"))
}

fn server_err(message: String) -> io::Error {
    io::Error::other(format!("server error: {message}"))
}

impl Client {
    /// Connects (with `TCP_NODELAY`, so unpipelined round trips do not sit
    /// out Nagle timers).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, parser: ReplyParser::new(), chunk: Box::new([0u8; 16 * 1024]) })
    }

    /// Sets a receive deadline for replies (`None` blocks forever).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Reads one complete reply frame (blocking).
    fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            match self.parser.next() {
                Some(Ok(reply)) => return Ok(reply),
                Some(Err(e)) => return Err(protocol_err(&e.to_string())),
                None => {
                    let n = self.stream.read(&mut self.chunk[..])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "server closed the connection mid-reply",
                        ));
                    }
                    self.parser.feed(&self.chunk[..n]);
                }
            }
        }
    }

    fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let mut out = Vec::with_capacity(32);
        encode_request(req, &mut out);
        self.stream.write_all(&out)?;
        self.read_reply()
    }

    /// `GET key` → value bytes if present.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        decode_optional_bulk(self.call(&Request::Get(key))?)
    }

    /// `SET key value` → `true` if the key was newly created (`SET` is an
    /// upsert; an existing value is replaced and `false` returned).
    pub fn set(&mut self, key: u64, value: &[u8]) -> io::Result<bool> {
        let mut out = Vec::with_capacity(32 + value.len());
        encode_set(&mut out, key, value);
        self.stream.write_all(&out)?;
        decode_bool(self.read_reply()?)
    }

    /// `SET key value EX secs` → upsert with a relative expiry: the value
    /// reads as absent once `secs` seconds elapse. Returns `true` if the
    /// key was newly created. Stores without a cache tier reject the verb
    /// with an in-band error.
    pub fn set_ex(&mut self, key: u64, value: &[u8], secs: u64) -> io::Result<bool> {
        let mut out = Vec::with_capacity(40 + value.len());
        encode_set_ex(&mut out, key, value, secs);
        self.stream.write_all(&out)?;
        decode_bool(self.read_reply()?)
    }

    /// `EXPIRE key secs` → arms (or re-arms) the expiry of a live key;
    /// `true` if the key was present.
    pub fn expire(&mut self, key: u64, secs: u64) -> io::Result<bool> {
        decode_bool(self.call(&Request::Expire(key, secs))?)
    }

    /// `TTL key` → remaining lifetime: `None` if the key is missing (or
    /// already expired), `Some(None)` if it is live without an expiry,
    /// `Some(Some(secs))` whole seconds left (rounded up, so a value with
    /// any time left reports at least 1).
    pub fn ttl(&mut self, key: u64) -> io::Result<Option<Option<u64>>> {
        decode_ttl(self.call(&Request::Ttl(key))?)
    }

    /// `PERSIST key` → strips the expiry off a live key; `true` if the key
    /// was present.
    pub fn persist(&mut self, key: u64) -> io::Result<bool> {
        decode_bool(self.call(&Request::Persist(key))?)
    }

    /// `DEL key` → `true` if the key was present.
    pub fn del(&mut self, key: u64) -> io::Result<bool> {
        decode_bool(self.call(&Request::Del(key))?)
    }

    /// `MGET keys...` → per-key answers in input order.
    pub fn mget(&mut self, keys: &[u64]) -> io::Result<Vec<Option<Vec<u8>>>> {
        let elems = decode_array(self.call(&Request::MGet(keys.to_vec()))?)?;
        elems.into_iter().map(decode_optional_bulk).collect()
    }

    /// `MSET (key value)...` → per-entry created/replaced outcomes in input
    /// order. An empty batch is a no-op (the wire protocol has no zero-pair
    /// `MSET` frame).
    pub fn mset(&mut self, entries: &[(u64, &[u8])]) -> io::Result<Vec<bool>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(64);
        encode_mset(&mut out, entries.iter().map(|&(k, v)| (k, v)));
        self.stream.write_all(&out)?;
        let elems = decode_array(self.read_reply()?)?;
        elems.into_iter().map(decode_bool).collect()
    }

    /// `SCAN from count` → up to `count` `(key, value)` pairs, ascending.
    pub fn scan(&mut self, from: u64, count: usize) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let elems = decode_array(self.call(&Request::Scan(from, count))?)?;
        elems.into_iter().map(decode_pair).collect()
    }

    /// `PING` → checks liveness.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Reply::Simple(s) if s == "PONG" => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `STATS` → the server's `name=value` info line, raw.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(&Request::Stats)? {
            Reply::Simple(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// `INFO [section]` → the server's multi-line report (all sections, or
    /// just `server` / `commands` / `latency` / `memory`).
    pub fn info(&mut self, section: Option<&str>) -> io::Result<String> {
        let req = Request::Info(section.map(|s| s.to_ascii_lowercase()));
        decode_text(self.call(&req)?)
    }

    /// `METRICS` → the Prometheus text-exposition scrape body.
    pub fn metrics(&mut self) -> io::Result<String> {
        decode_text(self.call(&Request::Metrics)?)
    }

    /// `SLOWLOG GET` → the captured slow operations, one line per entry,
    /// newest first (empty string when nothing was captured).
    pub fn slowlog_get(&mut self) -> io::Result<String> {
        decode_text(self.call(&Request::Slowlog(SlowlogCmd::Get))?)
    }

    /// `SLOWLOG LEN` → slow-op entries currently held server-side.
    pub fn slowlog_len(&mut self) -> io::Result<u64> {
        match self.call(&Request::Slowlog(SlowlogCmd::Len))? {
            Reply::Int(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// `SLOWLOG RESET` → clears every worker's slow-op ring.
    pub fn slowlog_reset(&mut self) -> io::Result<()> {
        match self.call(&Request::Slowlog(SlowlogCmd::Reset))? {
            Reply::Simple(s) if s == "OK" => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `MONITOR [sample_n]` → subscribes this connection to the server's
    /// sampled trace-event stream. After the `OK` the server volunteers
    /// `+monitor ...` frames (read them with
    /// [`monitor_next`](Self::monitor_next)); every `sample_n`-th eligible
    /// event is streamed (`None` keeps them all). The stream is lossy: a
    /// subscriber that reads too slowly has events dropped and is
    /// eventually disconnected with an in-band error.
    pub fn monitor(&mut self, sample_n: Option<u64>) -> io::Result<()> {
        match self.call(&Request::Monitor(sample_n))? {
            Reply::Simple(s) if s == "OK" => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Reads the next `+monitor ...` trace line (blocking, subject to
    /// [`set_timeout`](Self::set_timeout)). Call after
    /// [`monitor`](Self::monitor); the returned line carries
    /// `unix_ms= family= key= bytes= service_ns= worker=` fields.
    pub fn monitor_next(&mut self) -> io::Result<String> {
        match self.read_reply()? {
            Reply::Simple(s) if s.starts_with("monitor ") => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// `QUIT` → graceful close (waits for the server's `+BYE`). A
    /// monitoring connection may still have `+monitor` trace frames queued
    /// ahead of the `+BYE`; they are skipped, so a subscriber disconnects
    /// as cleanly as any other client.
    pub fn quit(mut self) -> io::Result<()> {
        let mut out = Vec::with_capacity(8);
        encode_request(&Request::Quit, &mut out);
        self.stream.write_all(&out)?;
        loop {
            match self.read_reply()? {
                Reply::Simple(s) if s == "BYE" => return Ok(()),
                Reply::Simple(s) if s.starts_with("monitor ") => {}
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Starts a pipelined batch on this connection.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline { client: self, out: Vec::with_capacity(256), queued: 0 }
    }
}

/// A queued batch of requests flushed in one write.
///
/// Queue requests with the builder methods, then [`run`](Self::run): every
/// queued frame is sent in one write and the replies come back in queue
/// order (raw [`Reply`] values — a batch may mix verbs, so decoding is the
/// caller's). Server `-ERR` replies appear in the result as
/// [`Reply::Error`] rather than failing the whole batch.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    out: Vec<u8>,
    queued: usize,
}

impl Pipeline<'_> {
    /// Queues any request frame.
    pub fn push(&mut self, req: &Request) -> &mut Self {
        encode_request(req, &mut self.out);
        self.queued += 1;
        self
    }

    /// Queues `GET key`.
    pub fn get(&mut self, key: u64) -> &mut Self {
        self.push(&Request::Get(key))
    }

    /// Queues `SET key value`, encoding the borrowed payload directly.
    pub fn set(&mut self, key: u64, value: &[u8]) -> &mut Self {
        encode_set(&mut self.out, key, value);
        self.queued += 1;
        self
    }

    /// Queues `SET key value EX secs`, encoding the borrowed payload
    /// directly.
    pub fn set_ex(&mut self, key: u64, value: &[u8], secs: u64) -> &mut Self {
        encode_set_ex(&mut self.out, key, value, secs);
        self.queued += 1;
        self
    }

    /// Queues `EXPIRE key secs`.
    pub fn expire(&mut self, key: u64, secs: u64) -> &mut Self {
        self.push(&Request::Expire(key, secs))
    }

    /// Queues `TTL key`.
    pub fn ttl(&mut self, key: u64) -> &mut Self {
        self.push(&Request::Ttl(key))
    }

    /// Queues `PERSIST key`.
    pub fn persist(&mut self, key: u64) -> &mut Self {
        self.push(&Request::Persist(key))
    }

    /// Queues `DEL key`.
    pub fn del(&mut self, key: u64) -> &mut Self {
        self.push(&Request::Del(key))
    }

    /// Queues `SCAN from count`.
    pub fn scan(&mut self, from: u64, count: usize) -> &mut Self {
        self.push(&Request::Scan(from, count))
    }

    /// Number of queued frames.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Sends every queued frame in one write and reads the replies back in
    /// order.
    ///
    /// The queued bytes are written in full before any reply is read, so
    /// keep one batch's request payloads comfortably under the socket
    /// buffer sizes (a few hundred KiB): a batch that stuffs both
    /// directions at once (huge `MSET`s queued behind huge `SCAN` replies)
    /// stalls until the server's one-second write timeout aborts the
    /// connection rather than deadlocking.
    pub fn run(&mut self) -> io::Result<Vec<Reply>> {
        if self.queued == 0 {
            return Ok(Vec::new());
        }
        self.client.stream.write_all(&self.out)?;
        let mut replies = Vec::with_capacity(self.queued);
        for _ in 0..self.queued {
            replies.push(self.client.read_reply()?);
        }
        self.out.clear();
        self.queued = 0;
        Ok(replies)
    }
}

fn unexpected(reply: Reply) -> io::Error {
    match reply {
        Reply::Error(msg) => server_err(msg),
        other => protocol_err(&format!("unexpected reply {other:?}")),
    }
}

/// Decodes `$…` / `_` replies (`GET` and `MGET` elements).
pub fn decode_optional_bulk(reply: Reply) -> io::Result<Option<Vec<u8>>> {
    match reply {
        Reply::Bulk(v) => Ok(Some(v)),
        Reply::Null => Ok(None),
        other => Err(unexpected(other)),
    }
}

/// Decodes `:0` / `:1` outcome replies (`SET`/`DEL` and `MSET` elements).
pub fn decode_bool(reply: Reply) -> io::Result<bool> {
    match reply {
        Reply::Int(0) => Ok(false),
        Reply::Int(1) => Ok(true),
        other => Err(unexpected(other)),
    }
}

/// Decodes `TTL` replies: `:secs` remaining, `+none` for a live key
/// without an expiry, null for a missing key.
pub fn decode_ttl(reply: Reply) -> io::Result<Option<Option<u64>>> {
    match reply {
        Reply::Int(secs) => Ok(Some(Some(secs))),
        Reply::Simple(s) if s == "none" => Ok(Some(None)),
        Reply::Null => Ok(None),
        other => Err(unexpected(other)),
    }
}

/// Decodes `=k len + payload` pair replies (`SCAN` elements).
pub fn decode_pair(reply: Reply) -> io::Result<(u64, Vec<u8>)> {
    match reply {
        Reply::Pair(k, v) => Ok((k, v)),
        other => Err(unexpected(other)),
    }
}

/// Decodes an array reply into its elements.
pub fn decode_array(reply: Reply) -> io::Result<Vec<Reply>> {
    match reply {
        Reply::Array(elems) => Ok(elems),
        other => Err(unexpected(other)),
    }
}

/// Decodes a bulk reply carrying UTF-8 report text (`INFO`, `SLOWLOG GET`,
/// `METRICS` bodies).
fn decode_text(reply: Reply) -> io::Result<String> {
    match reply {
        Reply::Bulk(bytes) => String::from_utf8(bytes)
            .map_err(|_| protocol_err("report body is not valid UTF-8")),
        other => Err(unexpected(other)),
    }
}

/// Reads one integer `name:value` line out of an `INFO` body. The whole key
/// must match: `request_p99_ns` does not read `request_p99_10s_ns`.
pub fn info_field(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(':')))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::store::BlobStore;
    use ascylib::skiplist::FraserOptSkipList;
    use ascylib_shard::BlobMap;
    use std::sync::Arc;

    fn ordered_server() -> crate::server::ServerHandle {
        let map = Arc::new(BlobMap::new(2, |_| FraserOptSkipList::new()));
        Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default())
            .expect("bind ephemeral")
    }

    #[test]
    fn typed_calls_round_trip() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        c.ping().unwrap();
        assert!(c.set(10, b"hundred").unwrap());
        assert!(!c.set(10, b"hundred v2").unwrap(), "upsert reports replacement");
        assert_eq!(c.get(10).unwrap(), Some(b"hundred v2".to_vec()));
        assert_eq!(c.get(11).unwrap(), None);
        assert_eq!(
            c.mset(&[(12, b"v12".as_slice()), (13, b"v13".as_slice())]).unwrap(),
            vec![true, true]
        );
        assert_eq!(
            c.mget(&[10, 11, 12, 13]).unwrap(),
            vec![
                Some(b"hundred v2".to_vec()),
                None,
                Some(b"v12".to_vec()),
                Some(b"v13".to_vec())
            ]
        );
        assert_eq!(
            c.scan(11, 10).unwrap(),
            vec![(12, b"v12".to_vec()), (13, b"v13".to_vec())]
        );
        assert!(c.del(12).unwrap());
        assert!(!c.del(12).unwrap());
        let stats = c.stats().unwrap();
        assert!(stats.contains("size=2"), "{stats}");
        assert!(stats.contains("shards=2"), "{stats}");
        assert!(stats.contains("value_bytes="), "{stats}");
        c.quit().unwrap();
        server.join();
    }

    #[test]
    fn info_field_matches_whole_keys_only() {
        let body = "# latency\nrequest_p99_10s_ns:7\nrequest_p99_ns:42\nrequest_mean_ns:1.5\n";
        assert_eq!(info_field(body, "request_p99_ns"), Some(42));
        assert_eq!(info_field(body, "request_p99_10s_ns"), Some(7));
        assert_eq!(info_field(body, "request_p99"), None, "a key prefix is not the key");
        assert_eq!(info_field(body, "request_mean_ns"), None, "not an integer");
        assert_eq!(info_field(body, "request_max_ns"), None);
    }

    #[test]
    fn expiry_verbs_round_trip() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.set_ex(20, b"lease", 60).unwrap());
        match c.ttl(20).unwrap() {
            Some(Some(secs)) => assert!((1..=60).contains(&secs), "fresh 60 s lease: {secs}"),
            other => panic!("leased key must report a countdown, got {other:?}"),
        }
        assert!(c.persist(20).unwrap());
        assert_eq!(c.ttl(20).unwrap(), Some(None), "persisted key has no expiry");
        assert!(c.expire(20, 90).unwrap());
        match c.ttl(20).unwrap() {
            Some(Some(secs)) => assert!((1..=90).contains(&secs), "re-armed lease: {secs}"),
            other => panic!("re-armed key must report a countdown, got {other:?}"),
        }
        // Missing keys: TTL is null, EXPIRE/PERSIST report absence.
        assert_eq!(c.ttl(99).unwrap(), None);
        assert!(!c.expire(99, 5).unwrap());
        assert!(!c.persist(99).unwrap());

        // The same verbs pipeline like any other frame.
        let mut p = c.pipeline();
        p.set_ex(21, b"v21", 30).ttl(21).persist(21).ttl(21).expire(21, 7).ttl(99);
        let replies = p.run().unwrap();
        assert_eq!(replies.len(), 6);
        assert_eq!(replies[0], Reply::Int(1));
        assert!(matches!(replies[1], Reply::Int(1..=30)), "{:?}", replies[1]);
        assert_eq!(replies[2], Reply::Int(1));
        assert_eq!(replies[3], Reply::Simple("none".into()));
        assert_eq!(replies[4], Reply::Int(1));
        assert_eq!(replies[5], Reply::Null);
        c.quit().unwrap();
        server.join();

        // Under a default TTL a plain SET takes the default deadline, while
        // `EX 0` stores none.
        use ascylib_shard::{CacheConfig, HotKeyConfig};
        let cfg = CacheConfig::unbounded().with_ttl_ms(60_000);
        let map = Arc::new(BlobMap::with_config(2, HotKeyConfig::default(), cfg, |_| {
            FraserOptSkipList::new()
        }));
        let server = Server::start("127.0.0.1:0", BlobStore::new(map), ServerConfig::default())
            .expect("bind ephemeral");
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.set(1, b"default").unwrap());
        match c.ttl(1).unwrap() {
            Some(Some(secs)) => assert!((1..=60).contains(&secs), "default 60 s lease: {secs}"),
            other => panic!("a plain SET must take the default TTL, got {other:?}"),
        }
        assert!(c.set_ex(2, b"forever", 0).unwrap());
        assert_eq!(c.ttl(2).unwrap(), Some(None), "EX 0 stores no deadline");
        c.quit().unwrap();
        server.join();
    }

    #[test]
    fn observability_accessors_round_trip() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.set(1, b"one").unwrap());
        assert_eq!(c.get(1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(c.get(2).unwrap(), None);

        let info = c.info(None).unwrap();
        for header in ["# server", "# commands", "# latency", "# memory"] {
            assert!(info.contains(header), "INFO missing {header}:\n{info}");
        }
        let latency = c.info(Some("latency")).unwrap();
        assert!(latency.starts_with("# latency"));
        assert!(latency.contains("request_p99_ns:"));
        let err = c.info(Some("bogus")).unwrap_err();
        assert!(err.to_string().contains("unknown INFO section"), "{err}");

        let metrics = c.metrics().unwrap();
        ascylib_telemetry::expo::validate(&metrics).expect("scrape body validates");
        assert!(metrics.contains("ascy_read_hits_total 1"), "{metrics}");

        assert_eq!(c.slowlog_len().unwrap(), 0, "default 10ms threshold captures nothing here");
        assert_eq!(c.slowlog_get().unwrap(), "");
        c.slowlog_reset().unwrap();
        c.quit().unwrap();
        server.join();
    }

    #[test]
    fn monitor_subscription_yields_trace_lines() {
        let server = ordered_server();
        let mut sub = Client::connect(server.addr()).unwrap();
        sub.monitor(None).unwrap();
        let mut data = Client::connect(server.addr()).unwrap();
        // Drive traffic until a line comes through.
        sub.set_timeout(Some(std::time::Duration::from_millis(50))).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let line = loop {
            data.set(3, b"three").unwrap();
            match sub.monitor_next() {
                Ok(line) => break line,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("unexpected monitor error: {e}"),
            }
            assert!(std::time::Instant::now() < deadline, "no trace line arrived");
        };
        assert!(line.contains("family=set"), "{line}");
        assert!(line.contains("key=3"), "{line}");
        assert!(line.contains("service_ns="), "{line}");
        data.quit().unwrap();
        server.join();
    }

    #[test]
    fn server_errors_are_io_errors_but_keep_the_connection() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        let err = c.get(0).unwrap_err();
        assert!(err.to_string().contains("key out of usable range"), "{err}");
        // In-band error: the connection still works.
        c.ping().unwrap();
        assert!(c.set(5, b"fifty").unwrap());
        server.join();
    }

    #[test]
    fn pipeline_returns_replies_in_order() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        let mut p = c.pipeline();
        p.set(1, b"ten").set(2, b"twenty").get(1).del(2).get(2).scan(1, 4);
        assert_eq!(p.len(), 6);
        let replies = p.run().unwrap();
        assert_eq!(
            replies,
            vec![
                Reply::Int(1),
                Reply::Int(1),
                Reply::Bulk(b"ten".to_vec()),
                Reply::Int(1),
                Reply::Null,
                Reply::Array(vec![Reply::Pair(1, b"ten".to_vec())]),
            ]
        );
        // The pipeline is reusable after run().
        let mut p = c.pipeline();
        assert!(p.is_empty());
        p.get(1);
        assert_eq!(p.run().unwrap(), vec![Reply::Bulk(b"ten".to_vec())]);
        server.join();
    }

    #[test]
    fn empty_mset_is_a_noop_and_keeps_the_connection_in_sync() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.mset(&[]).unwrap(), Vec::<bool>::new());
        // Nothing was sent, so the reply stream stays perfectly paired.
        c.ping().unwrap();
        assert!(c.set(1, b"one").unwrap());
        assert_eq!(c.get(1).unwrap(), Some(b"one".to_vec()));
        c.quit().unwrap();
        server.join();
    }

    #[test]
    fn binary_values_survive_typed_calls() {
        let server = ordered_server();
        let mut c = Client::connect(server.addr()).unwrap();
        let nasty = [0u8, b'\r', b'\n', 0xFF, b' ', 0, b'$', b'*'];
        assert!(c.set(77, &nasty).unwrap());
        assert_eq!(c.get(77).unwrap(), Some(nasty.to_vec()));
        assert_eq!(c.scan(77, 1).unwrap(), vec![(77, nasty.to_vec())]);
        c.quit().unwrap();
        server.join();
    }
}
