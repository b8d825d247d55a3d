//! Event-loop behaviour the request/reply tests cannot see: connection
//! scale beyond the worker count, adversarial slow peers, idle-timeout
//! eviction, and the observability counters that make all of it visible.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::{BlobStore, Client, Server, ServerConfig, ServerHandle};
use ascylib_shard::BlobMap;

fn start(config: ServerConfig) -> ServerHandle {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    Server::start("127.0.0.1:0", BlobStore::ordered(map), config).expect("bind ephemeral port")
}

/// Sends one `PING` on a raw stream and reads back `+PONG\r\n`.
fn ping(stream: &mut TcpStream) {
    stream.write_all(b"PING\r\n").expect("write PING");
    let mut buf = [0u8; 7];
    stream.read_exact(&mut buf).expect("read PONG");
    assert_eq!(&buf, b"+PONG\r\n");
}

/// The readiness loop decouples connection count from thread count: a
/// four-worker server must hold a thousand live connections at once and
/// answer on every one of them.
#[test]
fn thousand_concurrent_connections_on_four_workers() {
    let _ = polling::raise_fd_limit();
    const CONNS: usize = 1000;
    let server = start(ServerConfig::default());

    let mut streams: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = TcpStream::connect(server.addr())
            .unwrap_or_else(|e| panic!("connect #{i} failed: {e}"));
        streams.push(stream);
    }
    // Every connection is answered while all the others stay open.
    for stream in streams.iter_mut() {
        ping(stream);
    }
    let stats = server.stats();
    assert_eq!(stats.curr_connections, CONNS as u64, "all conns live simultaneously");
    assert_eq!(stats.accepted, CONNS as u64);
    assert_eq!(stats.frames, CONNS as u64, "one PING each");
    assert_eq!(stats.errors, 0);

    // Second round in reverse order: slots keep working after the fan-in.
    for stream in streams.iter_mut().rev() {
        ping(stream);
    }
    drop(streams);
    let stats = server.join();
    assert_eq!(stats.connections, CONNS as u64, "every connection retired");
    assert_eq!(stats.curr_connections, 0);
    assert_eq!(stats.frames, 2 * CONNS as u64);
}

/// A peer that trickles its request one byte at a time must not stall
/// anyone else: with fewer workers than misbehaving peers would need,
/// fast connections keep getting answered at full speed.
#[test]
fn slow_loris_trickle_does_not_stall_other_connections() {
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let addr = server.addr();

    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("trickler connect");
        for &byte in b"GET 987654\r\n" {
            stream.write_all(&[byte]).expect("trickle byte");
            std::thread::sleep(Duration::from_millis(15));
        }
        let mut buf = [0u8; 3];
        stream.read_exact(&mut buf).expect("trickled frame still answered");
        assert_eq!(&buf, b"_\r\n", "GET miss on the trickled key");
    });

    // While the trickle is in flight, a well-behaved client on the same
    // single worker gets hundreds of round trips through.
    let mut client = Client::connect(addr).expect("fast client connect");
    let start_rtts = Instant::now();
    for i in 0..200u64 {
        client.set(i + 1, b"v").expect("fast set");
        assert_eq!(client.get(i + 1).expect("fast get").as_deref(), Some(&b"v"[..]));
    }
    let elapsed = start_rtts.elapsed();
    trickler.join().expect("trickler thread");
    assert!(
        elapsed < Duration::from_millis(2_000),
        "400 loopback round trips took {elapsed:?}; the trickler stalled the event loop"
    );
    client.quit().expect("quit");
    let stats = server.join();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.connections, 2);
}

/// Idle connections are evicted at the configured timeout — and the
/// eviction is visible in the `timeouts` counter — while a connection
/// that keeps talking lives on.
#[test]
fn idle_connections_are_evicted_but_active_ones_survive() {
    let server = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });

    let mut idlers: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(server.addr()).expect("idler connect"))
        .collect();
    let mut talker = TcpStream::connect(server.addr()).expect("talker connect");
    for stream in idlers.iter_mut() {
        ping(stream); // prove the connection was live before going idle
    }

    // Keep the talker chatty well past the idle window; the idlers say
    // nothing and must be evicted underneath it.
    let deadline = Instant::now() + Duration::from_millis(450);
    while Instant::now() < deadline {
        ping(&mut talker);
        std::thread::sleep(Duration::from_millis(25));
    }

    // An evicted connection reads EOF (or a reset, if the kernel already
    // tore the socket down) — never a hang.
    for (i, stream) in idlers.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set read timeout");
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("idler {i} got {n} unexpected bytes"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) => {}
            Err(e) => panic!("idler {i} expected eviction, got {e}"),
        }
    }
    ping(&mut talker); // still alive after the purge

    let stats = server.stats();
    assert_eq!(stats.timeouts, 3, "each idler evicted exactly once");
    assert_eq!(stats.curr_connections, 1, "only the talker survives");
    drop(talker);
    let stats = server.join();
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.curr_connections, 0);
    assert_eq!(stats.errors, 0);
}

/// Polls `server.stats().bytes_in` until the server has read `n` bytes.
fn await_bytes_in(server: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().bytes_in < n {
        assert!(Instant::now() < deadline, "server never read {n} bytes");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A read shorter than the chunk sends the connection back to the poller
/// without a read that would only say `EAGAIN`. The rest of a frame split
/// over two writes — the second sent only once the server has read the
/// first — arrives as a fresh readiness event and is served.
#[test]
fn a_frame_split_across_two_delayed_writes_is_served() {
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    stream.write_all(b"SET 3 5\r\nhel").expect("first half");
    await_bytes_in(&server, 12);
    stream.write_all(b"lo\r\nGET 3\r\n").expect("second half");
    let mut reply = [0u8; 15];
    stream.read_exact(&mut reply).expect("both frames answered");
    assert_eq!(&reply, b":1\r\n$5\r\nhello\r\n");
    drop(stream);
    assert_eq!(server.join().errors, 0);
}

/// An EOF that arrives after a short read has sent the connection back to
/// the poller still reports readable, reads as EOF and closes.
#[test]
fn eof_right_after_a_short_read_still_closes() {
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    ping(&mut stream);
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the server closes instead of hanging");
    assert!(rest.is_empty(), "unexpected bytes {rest:?}");
    let stats = server.join();
    assert_eq!((stats.connections, stats.frames, stats.errors), (1, 1, 0));
}

/// A burst several times the 16 KiB read chunk is read in full chunks and
/// then one short one, and every frame in it is answered.
#[test]
fn a_burst_larger_than_the_read_chunk_is_served_in_full() {
    const PINGS: usize = 3_000;
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    let value = vec![b'v'; 40_000];
    let mut burst = b"PING\r\n".repeat(PINGS);
    burst.extend_from_slice(format!("SET 1 {}\r\n", value.len()).as_bytes());
    burst.extend_from_slice(&value);
    burst.extend_from_slice(b"\r\nGET 1\r\n");
    assert!(burst.len() > 3 * 16 * 1024);
    stream.write_all(&burst).expect("write the burst");
    let mut expected = b"+PONG\r\n".repeat(PINGS);
    expected.extend_from_slice(format!(":1\r\n${}\r\n", value.len()).as_bytes());
    expected.extend_from_slice(&value);
    expected.extend_from_slice(b"\r\n");
    let mut reply = vec![0u8; expected.len()];
    stream.read_exact(&mut reply).expect("every frame answered");
    assert!(reply == expected, "replies differ from the burst's frames");
    drop(stream);
    let stats = server.join();
    assert_eq!(stats.frames, PINGS as u64 + 2);
    assert_eq!(stats.bytes_in, burst.len() as u64);
}

/// The event-loop counters tell a coherent story end to end: accepted
/// splits into retired-plus-live at every instant, wakeups accumulate,
/// and the gauge drains to zero on shutdown.
#[test]
fn stats_counters_stay_coherent_across_connection_lifecycles() {
    let server = start(ServerConfig::default());

    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    a.set(1, b"one").expect("set");
    assert_eq!(b.get(1).expect("get").as_deref(), Some(&b"one"[..]));

    let mid = server.stats();
    assert_eq!(mid.accepted, 2);
    assert_eq!(mid.curr_connections, 2);
    assert_eq!(mid.connections, 0, "nothing retired yet");
    assert!(mid.wakeups >= 2, "each served frame needed a readiness wakeup");
    assert_eq!(mid.timeouts, 0);

    a.quit().expect("quit a");
    // Quit is acknowledged (`+BYE`) before the slot retires; poll briefly
    // for the counters to converge.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = server.stats();
        if s.connections == 1 && s.curr_connections == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "retirement never reflected in stats: {s:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(b);
    let end = server.join();
    assert_eq!(end.accepted, 2);
    assert_eq!(end.connections, 2, "accepted splits into retired + live; all retired now");
    assert_eq!(end.curr_connections, 0);
    assert_eq!(end.errors, 0);
    assert!(end.bytes_in > 0 && end.bytes_out > 0);
}
