//! Consecutive `GET`s of a pipelined batch are looked up together. What
//! must not change with it: reply order, read-your-writes within one
//! connection, errors in place, every counter a frame moves, and the
//! service-time sampling stride the slow log and `MONITOR` ride on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::client::info_field;
use ascylib_server::{BlobStore, Client, Server, ServerConfig, ServerHandle};
use ascylib_shard::BlobMap;

const KEY_RANGE_ERR: &[u8] = b"-ERR key out of usable range [1, 2^64-2]\r\n";

fn start(config: ServerConfig) -> ServerHandle {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    let server =
        Server::start("127.0.0.1:0", BlobStore::ordered(map), config).expect("bind ephemeral port");
    let mut c = Client::connect(server.addr()).expect("connect");
    assert!(c.set(7, b"v1").expect("SET 7"));
    assert!(c.set(8, b"w").expect("SET 8"));
    server
}

fn bulk(value: &[u8]) -> Vec<u8> {
    [format!("${}\r\n", value.len()).as_bytes(), value, b"\r\n"].concat()
}

/// `(frame, its reply)` in request order: runs of one and of two around a
/// write, an out-of-range key and a malformed frame, then a run of twenty
/// that mixes hits, misses and a key written mid-pipeline.
fn script() -> Vec<(Vec<u8>, Vec<u8>)> {
    let get = |key: u64| format!("GET {key}\r\n").into_bytes();
    let mut frames = vec![
        (get(7), bulk(b"v1")),
        (b"SET 7 2\r\nv2\r\n".to_vec(), b":0\r\n".to_vec()),
        (get(7), bulk(b"v2")),
        (get(0), KEY_RANGE_ERR.to_vec()),
        (b"GARBAGE \x01\x02\r\n".to_vec(), b"-ERR illegal byte in frame\r\n".to_vec()),
        (get(7), bulk(b"v2")),
        (get(8), bulk(b"w")),
        (b"SET 9 1\r\nx\r\n".to_vec(), b":1\r\n".to_vec()),
    ];
    for i in 0..20u64 {
        let key = 7 + i % 4;
        let reply = match key {
            7 => bulk(b"v2"),
            8 => bulk(b"w"),
            9 => bulk(b"x"),
            _ => b"_\r\n".to_vec(),
        };
        frames.push((get(key), reply));
    }
    frames
}

fn read_reply(stream: &mut TcpStream, expected: &[u8]) {
    let mut got = vec![0u8; expected.len()];
    stream.read_exact(&mut got).expect("read replies");
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(expected),
        "replies out of order or wrong"
    );
}

/// The `STATS` and `INFO commands` counters a frame moves, after the script.
fn counters(server: &ServerHandle) -> Vec<(&'static str, u64)> {
    let mut c = Client::connect(server.addr()).expect("connect");
    let stats = c.stats().expect("STATS");
    let stat = |name: &str| -> u64 {
        stats
            .split(' ')
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
            .parse()
            .expect("numeric STATS field")
    };
    let info = c.info(Some("commands")).expect("INFO commands");
    let cmd = |name: &str| info_field(&info, name).unwrap_or_else(|| panic!("missing {name}"));
    vec![
        ("frames", stat("frames")),
        ("ops", stat("ops")),
        ("hits", stat("hits")),
        ("misses", stat("misses")),
        ("errors", stat("errors")),
        ("cmd_get_ops", cmd("cmd_get_ops")),
        ("cmd_get_hits", cmd("cmd_get_hits")),
        ("cmd_get_misses", cmd("cmd_get_misses")),
    ]
}

#[test]
fn one_pipelined_write_is_answered_in_order_and_counted_as_frames_one_at_a_time() {
    let frames = script();

    let pipelined = start(ServerConfig::default());
    let mut s = TcpStream::connect(pipelined.addr()).expect("connect");
    s.write_all(&frames.iter().flat_map(|(f, _)| f.clone()).collect::<Vec<u8>>())
        .expect("write the pipeline");
    read_reply(&mut s, &frames.iter().flat_map(|(_, r)| r.clone()).collect::<Vec<u8>>());

    let stepwise = start(ServerConfig::default());
    let mut s = TcpStream::connect(stepwise.addr()).expect("connect");
    for (frame, reply) in &frames {
        s.write_all(frame).expect("write one frame");
        read_reply(&mut s, reply);
    }

    let (batched, single) = (counters(&pipelined), counters(&stepwise));
    assert_eq!(batched, single, "a GET run must count exactly as its frames one by one");
    let get_ops = batched.iter().find(|(name, _)| *name == "cmd_get_ops").expect("row").1;
    assert_eq!(get_ops, 25, "every GET frame counted once, the out-of-range one included");
    pipelined.join();
    stepwise.join();
}

/// `(key, duration_ns)` of the `family=get` entries in a `SLOWLOG GET` body.
fn slow_gets(body: &str) -> Vec<(u64, u64)> {
    let field = |line: &str, name: &str| -> u64 {
        line.split(' ')
            .find_map(|tok| tok.strip_prefix(name))
            .unwrap_or_else(|| panic!("{name} missing in {line}"))
            .parse()
            .expect("numeric field")
    };
    let mut gets: Vec<(u64, u64)> = body
        .lines()
        .filter(|line| line.contains("family=get"))
        .map(|line| (field(line, "key="), field(line, "duration_ns=")))
        .collect();
    gets.sort_unstable();
    gets
}

/// A run of GETs is timed with one clock pair, and the positions today's
/// stride samples (the batch's first frame and every eighth after it)
/// each record the run's time per key: a 16-GET round adds two samples,
/// two slow-log entries and two `MONITOR` events, all with one duration.
#[test]
fn a_get_run_keeps_the_sampling_stride() {
    let server = start(ServerConfig {
        workers: 1,
        slowlog_threshold: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.addr()).expect("connect");
    for key in 1..=16u64 {
        c.set(key, &[key as u8; 32]).expect("SET");
    }
    // One worker: the subscription lands before it serves another frame.
    let mut watch = Client::connect(server.addr()).expect("connect watcher");
    watch.monitor(None).expect("MONITOR");
    watch.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let samples = |c: &mut Client| {
        info_field(&c.info(Some("latency")).expect("INFO latency"), "request_samples")
            .expect("request_samples")
    };
    let mut data = TcpStream::connect(server.addr()).expect("connect");

    // Round one: sixteen GETs in one write, positions 0..16.
    c.slowlog_reset().expect("SLOWLOG RESET");
    let before = samples(&mut c);
    let round: Vec<u8> = (1..=16u64).flat_map(|k| format!("GET {k}\r\n").into_bytes()).collect();
    data.write_all(&round).expect("write the round");
    let replies: Vec<u8> = (1..=16u64).flat_map(|k| bulk(&[k as u8; 32])).collect();
    read_reply(&mut data, &replies);
    assert_eq!(samples(&mut c) - before, 2, "a 16-GET round is timed twice");
    let gets = slow_gets(&c.slowlog_get().expect("SLOWLOG GET"));
    assert_eq!(gets.iter().map(|g| g.0).collect::<Vec<_>>(), [1, 9], "positions 0 and 8");
    assert_eq!(gets[0].1, gets[1].1, "both record the run's time per key");

    // Round two: a SET at position 0, then fifteen GETs; position 8 is the
    // run's eighth key.
    c.slowlog_reset().expect("SLOWLOG RESET");
    let before = samples(&mut c);
    let round: Vec<u8> = b"SET 20 1\r\nz\r\n"
        .iter()
        .copied()
        .chain((1..=15u64).flat_map(|k| format!("GET {}\r\n", 17 - k).into_bytes()))
        .collect();
    data.write_all(&round).expect("write the round");
    let replies: Vec<u8> = b":1\r\n"
        .iter()
        .copied()
        .chain((1..=15u64).flat_map(|k| bulk(&[(17 - k) as u8; 32])))
        .collect();
    read_reply(&mut data, &replies);
    assert_eq!(samples(&mut c) - before, 2, "the SET and one GET are timed");
    let gets = slow_gets(&c.slowlog_get().expect("SLOWLOG GET"));
    assert_eq!(gets.iter().map(|g| g.0).collect::<Vec<_>>(), [9], "the GET at position 8");

    // The stream saw the same sampled GETs: keys 1 and 9, then 9, each
    // round's between scrape frames (family `other`).
    let mut streamed = Vec::new();
    while streamed.len() < 3 {
        let event = watch.monitor_next().expect("monitor event");
        if event.contains("family=get") {
            let key = event.split(' ').find_map(|t| t.strip_prefix("key=")).expect("key");
            streamed.push(key.parse::<u64>().expect("numeric key"));
        }
    }
    assert_eq!(streamed, [1, 9, 9]);
    c.quit().expect("quit");
    watch.quit().expect("quit watcher");
    drop(data);
    server.join();
}
