//! What worker-owned connections promise from the outside: a connection is
//! served by one worker for its whole life, connections are dealt evenly,
//! a `MONITOR` wake reaches an idle subscriber on another worker and on the
//! publisher's own, a recycled slot's new tenant is judged idle by its own
//! activity alone, and shutdown closes everything it accepted.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::{BlobStore, Client, Server, ServerConfig, ServerHandle};
use ascylib_shard::BlobMap;

fn start(config: ServerConfig) -> ServerHandle {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    Server::start("127.0.0.1:0", BlobStore::new(map), config).expect("bind ephemeral port")
}

/// Polls `done` (a counter converging on another thread) for up to 5 s.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Subscribes a fresh connection to every trace event and checks that the
/// hub has it (the subscription is in place before the `+OK` is sent).
fn subscribe(server: &ServerHandle) -> Client {
    let mut sub = Client::connect(server.addr()).expect("subscriber connect");
    sub.monitor(None).expect("MONITOR");
    eventually("subscription", || server.monitor_stats().subscribers == 1);
    sub
}

/// The value of `name=` in a trace line.
fn field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name}= in {line:?}"))
}

#[test]
fn a_connection_stays_on_one_worker_and_workers_get_equal_shares() {
    const CONNS: u64 = 8;
    const SETS: u64 = 20;
    const RANGE: u64 = 1000;
    let server = start(ServerConfig { workers: 4, ..ServerConfig::default() });
    let mut sub = subscribe(&server);
    sub.set_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // Depth-1 traffic, so every SET is on the timed path that publishes.
    let mut clients: Vec<Client> =
        (0..CONNS).map(|_| Client::connect(server.addr()).expect("connect")).collect();
    for round in 0..SETS {
        for (c, client) in clients.iter_mut().enumerate() {
            client.set(c as u64 * RANGE + round + 1, b"v").expect("set");
        }
    }

    let mut workers_of: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for _ in 0..CONNS * SETS {
        let line = sub.monitor_next().expect("one trace frame per SET");
        workers_of
            .entry((field(&line, "key") - 1) / RANGE)
            .or_default()
            .insert(field(&line, "worker"));
    }
    assert_eq!(workers_of.len() as u64, CONNS, "every connection's range was traced");
    let mut served: BTreeMap<u64, u64> = BTreeMap::new();
    for (range, workers) in &workers_of {
        assert_eq!(workers.len(), 1, "connection {range} moved between workers: {workers:?}");
        *served.entry(*workers.iter().next().expect("one worker")).or_default() += 1;
    }
    assert_eq!(
        served,
        (0..4).map(|w| (w, CONNS / 4)).collect::<BTreeMap<_, _>>(),
        "round-robin dealing gives each worker two of the eight"
    );
    drop(clients);
    drop(sub);
    server.join();
}

#[test]
fn a_publish_on_one_worker_wakes_a_silent_subscriber_on_another() {
    let server = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    // First connection: dealt to one worker. It subscribes and then never
    // sends another byte, so only a wake from the publisher's side can make
    // its worker look at it again.
    let mut sub = subscribe(&server);
    sub.set_timeout(Some(Duration::from_secs(1))).expect("timeout");
    // Second connection: dealt to the other worker.
    let mut data = Client::connect(server.addr()).expect("data connect");
    for key in 1..=4 {
        data.set(key, b"v").expect("set");
    }
    let line = sub.monitor_next().expect("a trace frame within a second");
    assert!(line.contains("family=set"), "{line}");
    assert_eq!(field(&line, "worker"), 1, "the second connection is the second worker's");
    drop(data);
    drop(sub);
    server.join();
}

#[test]
fn a_publish_wakes_a_silent_subscriber_on_the_same_worker() {
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    // Both connections are the one worker's. The subscriber never sends
    // another byte, so only the wake its worker mails itself can make it
    // look at the subscriber again.
    let mut sub = subscribe(&server);
    sub.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut data = Client::connect(server.addr()).expect("data connect");
    data.set(1, b"v").expect("set");
    let line = sub.monitor_next().expect("a trace frame within 5 s");
    assert!(line.contains("family=set"), "{line}");
    assert_eq!(field(&line, "worker"), 0);
    drop(data);
    drop(sub);
    server.join();
}

#[test]
fn recycled_slots_do_not_inherit_idle_deadlines() {
    const CHURN: u64 = 300;
    const IDLERS: u64 = 3;
    let server = start(ServerConfig {
        workers: 2,
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    // Back to back: every slot in both slabs is reused many times over, by
    // tenants that each arrived and left with their own `last_active`.
    for _ in 0..CHURN {
        drop(TcpStream::connect(server.addr()).expect("churn connect"));
    }
    eventually("churned connections retired", || server.stats().connections == CHURN);
    assert_eq!(server.stats().timeouts, 0, "a closed connection is not an idle one");

    let mut talker = Client::connect(server.addr()).expect("talker connect");
    let mut idlers: Vec<TcpStream> = (0..IDLERS)
        .map(|_| TcpStream::connect(server.addr()).expect("idler connect"))
        .collect();
    // The idle sweeps run while the talker occupies one of the recycled
    // slots; it talks well inside the timeout and must live.
    let until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < until {
        talker.ping().expect("the talker was evicted");
        std::thread::sleep(Duration::from_millis(50));
    }
    for stream in idlers.iter_mut() {
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        // EOF, or a reset if the kernel already tore the socket down; a
        // read that times out means the idler is still connected.
        match stream.read(&mut [0u8; 8]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("idler not evicted: {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.timeouts, IDLERS, "only the connections that really idled");
    assert_eq!(stats.curr_connections, 1, "only the talker survives");
    drop(talker);
    let stats = server.join();
    assert_eq!(stats.accepted, CHURN + IDLERS + 1);
    assert_eq!(stats.connections, stats.accepted);
}

#[test]
fn shutdown_under_a_connect_storm_closes_everything_it_accepted() {
    let server = start(ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = server.addr();
    let storm: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                // Until the listener is gone. A few sockets stay open so the
                // sweep has live connections to close, not only fresh ones.
                let mut held = Vec::new();
                while let Ok(stream) = TcpStream::connect(addr) {
                    if held.len() < 8 {
                        held.push(stream);
                    }
                }
            })
        })
        .collect();
    // Shut down in the middle of it, not after it.
    eventually("storm under way", || server.stats().accepted >= 200);
    let stats = server.join();
    for thread in storm {
        thread.join().expect("storm thread");
    }
    assert!(stats.accepted >= 200);
    assert_eq!(stats.accepted, stats.connections, "every accept is matched by a close");
    assert_eq!(stats.curr_connections, 0);
}
