//! One run of one workload: set-up, timed phase(s), metrics.
//!
//! An untraced run (`--trace 0`) sets the stack up several times, measures
//! one timed phase on the first set-up, and reports the end-to-end metrics.
//! A traced run (`--trace 1`) sets up once, measures an untraced and then
//! a traced slice (their ratio is the tracing overhead), replays the layer
//! ladder, and reports the per-layer metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ascylib_server::{BlobOrderedStore, Phase, Server, ServerConfig, ServerHandle};
use ascylib_shard::{CacheStatsSnapshot, HotKeyConfig, HotKeyStatsSnapshot};

use crate::embed::{self, Step};
use crate::estimate::{p50, quantile, rate_from_batches, ratio, BATCH};
use crate::hot::{self, KeepHot};
use crate::ladder;
use crate::lane::{PhaseResult, Tally};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::ops::{preload_order, Driver, Purpose, Spec, OPEN_PREROLL_ARRIVALS};
use crate::span::{self, Recorder, Span};
use crate::stack::{as_store, build_map, cache_config, rss_and_peak, user_bytes, Map};
use crate::value::{self, Versions};
use crate::wire::{Stop, WireLane};

/// How much work a run does around its timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Ops replayed per in-process ladder rung, per codec rung, and frames
    /// of the depth-1 loopback rung (after a tenth as many to warm up).
    pub rung_ops: u64,
    pub codec_ops: u64,
    pub loopback_ops: u64,
    /// Batches per micro-measurement (clock, histogram, ssmem).
    pub micro_batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        setups: 3,
        rung_ops: 400_000,
        codec_ops: 100_000,
        loopback_ops: 20_000,
        micro_batches: 200,
    };
}

/// The open loop sets aside the ops its own lane sent late (see
/// `wire::LATE_GAPS`); on this box the host takes the lane's vCPU away for
/// milliseconds at a time, which delays 1-8 % of them. What is left is
/// timed correctly whatever the share, so the run is only called invalid
/// when most of it is gone: the lane then never had a CPU.
const SENT_LATE_LIMIT: f64 = 0.5;

/// Prefix of the untraced run's line of `name=value` diagnostics.
pub const DIAGNOSTICS: &str = "diagnostics:";

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the reader, not the pipeline: sample counts, the ladder's
    /// reconciliation, where the trace went.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::metrics::unit_of(name).expect("declared metric");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `spec` for `seconds` and reports, or says why the run is invalid.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: &Scale,
) -> Result<Report, String> {
    // Fix the span clock's epoch before anything is timed against it.
    span::now_ns();
    let _hot = KeepHot::start();
    hot::pin(hot::lane_cpu(0));
    let ns = seconds * 1_000_000_000;
    let report = if trace {
        traced(spec, seed, ns, scale)?
    } else {
        untraced(spec, seed, ns, scale)?
    };
    if report.failed > 0 {
        return Err(format!(
            "{} of {} ops failed",
            report.failed, report.attempted
        ));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Set-up

/// A wire workload's stack, up and warm.
struct Served {
    map: Arc<Map>,
    server: ServerHandle,
    lane: WireLane,
}

/// Serves `map` for the calling thread's wire lane. nproc is 2: one worker
/// beside the event loop, both pinned (they inherit this thread's affinity
/// at start) to one CPU. A closed loop and its server take turns, so they
/// share the lane's CPU and every hand-off is a context switch, not an
/// inter-processor interrupt through the hypervisor. The open loop's lane
/// spins and must have its CPU to itself: the server gets the other one.
fn serve(map: &Arc<Map>, driver: Driver) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    hot::pin(hot::lane_cpu(usize::from(matches!(
        driver,
        Driver::Open { .. }
    ))));
    let server = Server::start(
        "127.0.0.1:0",
        BlobOrderedStore::new(Arc::clone(map)),
        config,
    )
    .map_err(|e| format!("server start: {e}"));
    hot::pin(hot::lane_cpu(0));
    server
}

/// Construct, preload in-process, serve, connect, warm up: fixed-count
/// pipelined frames, then (open loop) a short pre-roll at the paced rate.
fn set_up_wire(spec: &Spec, seed: u64) -> Result<Served, String> {
    let map = build_map(HotKeyConfig::default(), cache_config(spec));
    let mut buf = vec![0u8; spec.value_len];
    for key in preload_order(spec, seed, 0) {
        value::encode(&mut buf, key, 1);
        assert!(map.set(key, &buf), "preload: key {key} was already there");
    }
    let server = serve(&map, spec.driver)?;
    let mut lane =
        WireLane::connect(server.addr(), spec, seed).map_err(|e| format!("connect: {e}"))?;
    let warm = lane
        .run_pipe(16, Stop::Count(spec.warmup_ops), false)
        .map_err(|e| format!("warm-up: {e}"))?;
    no_failures("warm-up", &warm.tally)?;
    if let Driver::Open { rate } = spec.driver {
        let pre = lane
            .run_open(
                rate,
                Stop::Count(OPEN_PREROLL_ARRIVALS),
                Purpose::Preroll,
                false,
            )
            .map_err(|e| format!("pre-roll: {e}"))?;
        no_failures("pre-roll", &pre.tally)?;
    }
    Ok(Served { map, server, lane })
}

fn no_failures(phase: &str, tally: &Tally) -> Result<(), String> {
    match &tally.first_failure {
        Some(what) => Err(format!(
            "{phase}: {} ops failed, first: {what}",
            tally.failed
        )),
        None => Ok(()),
    }
}

fn timed_wire(
    served: &mut Served,
    spec: &Spec,
    ns: u64,
    trace: bool,
) -> Result<PhaseResult, String> {
    match spec.driver {
        Driver::Pipe { depth } => served.lane.run_pipe(depth, Stop::After(ns), trace),
        Driver::Open { rate } => {
            served
                .lane
                .run_open(rate, Stop::After(ns), Purpose::Schedule, trace)
        }
        Driver::Embed { .. } => unreachable!("not a wire workload"),
    }
    .map_err(|e| format!("timed phase: {e}"))
}

/// RSS growth since `rss_before` per live user byte of `map`.
fn bytes_per_user_byte(map: &Map, rss_before: u64) -> f64 {
    (rss_and_peak().0.saturating_sub(rss_before)) as f64 / user_bytes(map) as f64
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics

fn untraced(spec: &Spec, seed: u64, ns: u64, scale: &Scale) -> Result<Report, String> {
    let embedded = matches!(spec.driver, Driver::Embed { .. });
    // The version ledger is the benchmark's, not the store's: allocate it
    // before the RSS baseline so it does not count against the store.
    let versions = embedded.then(|| Versions::new(spec.keys, 1));
    let rss_before = rss_and_peak().0;
    let mut setups: Vec<f64> = Vec::with_capacity(scale.setups);
    let (mut per_user_byte, mut peak_rss) = (0.0, 0);
    let mut timed: Vec<PhaseResult> = Vec::new();
    // The first set-up, in a fresh address space, carries the timed phase
    // and the memory readings; the later ones are only timed, so neither
    // the heap they leave behind nor their own peak reaches a metric.
    for rep in 0..scale.setups {
        let first = rep == 0;
        let t0 = Instant::now();
        if let Some(versions) = &versions {
            if !first {
                versions.reset(1);
            }
            let map = build_map(HotKeyConfig::default(), cache_config(spec));
            let store = as_store(&map);
            let mut steps = vec![Step::Preload, Step::Ops(spec.warmup_ops)];
            if first {
                steps.push(Step::Timed { ns, trace: false });
            }
            let mut results =
                embed::drive(&*store, spec, versions, seed, &steps, |step| match step {
                    1 => {
                        setups.push(t0.elapsed().as_secs_f64());
                        if first {
                            per_user_byte = bytes_per_user_byte(&map, rss_before);
                        }
                    }
                    2 => peak_rss = rss_and_peak().1,
                    _ => {}
                });
            timed.extend(results.pop().unwrap_or_default());
        } else {
            let mut served = set_up_wire(spec, seed)?;
            setups.push(t0.elapsed().as_secs_f64());
            if first {
                per_user_byte = bytes_per_user_byte(&served.map, rss_before);
                timed.push(timed_wire(&mut served, spec, ns, false)?);
                peak_rss = rss_and_peak().1;
            }
            drop(served.lane);
            served.server.join();
        }
    }
    let sum = Summary::of(spec, timed);
    no_failures("timed phase", &sum.tally)?;
    sum.check_generator()?;
    setups.sort_by(f64::total_cmp);
    let values = [
        setups[setups.len() / 2],
        sum.ops_per_s,
        sum.get_p50 as f64,
        sum.set_p50 as f64,
        sum.tally.hits as f64 / sum.tally.gets as f64,
        (sum.tally.attempted - sum.tally.failed) as f64 / sum.tally.attempted as f64,
        peak_rss as f64 / 1e6,
        per_user_byte,
    ];
    let mut notes = vec![format!(
        "{}: {} ops in {:.3} s on {} lane(s); timed individually: {} GETs, {} SETs; set-ups {:?} s",
        spec.name,
        sum.tally.attempted,
        sum.elapsed_ns as f64 / 1e9,
        spec.lanes(),
        sum.get_samples,
        sum.set_samples,
        setups
    )];
    // Not metrics: they do not repeat within a tenth on this box (see
    // README.md). `--selfcheck` reads this line to show by how much.
    notes.push(format!(
        "{DIAGNOSTICS} ops_per_s_mean={:.0} get_p99_ns={} set_p99_ns={} late_p99_ns={} sent_late={}",
        sum.ops_per_s_mean, sum.get_p99, sum.set_p99, sum.late_p99, sum.sent_late
    ));
    Ok(Report {
        attempted: sum.tally.attempted,
        failed: sum.tally.failed,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        notes,
    })
}

/// The timed phase of all lanes, reduced.
struct Summary {
    tally: Tally,
    elapsed_ns: u64,
    ops_per_s: f64,
    ops_per_s_mean: f64,
    get_p50: u64,
    set_p50: u64,
    get_p99: u64,
    set_p99: u64,
    get_samples: usize,
    set_samples: usize,
    late_p99: u64,
    sent_late: u64,
    spans: Vec<Vec<Span>>,
}

impl Summary {
    fn of(spec: &Spec, lanes: Vec<PhaseResult>) -> Summary {
        let mut tally = Tally::default();
        let (mut batches, mut gets, mut sets, mut late) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut elapsed_ns, mut sent_late) = (0, 0);
        let mut spans = Vec::new();
        for lane in lanes {
            tally.merge(lane.tally);
            sent_late += lane.sent_late;
            batches.extend(lane.batch_ns);
            gets.extend(lane.get_ns);
            sets.extend(lane.set_ns);
            late.extend(lane.late_ns);
            elapsed_ns = elapsed_ns.max(lane.elapsed_ns);
            spans.extend(lane.spans.map(Recorder::into_spans));
        }
        let ops_per_s_mean = tally.attempted as f64 * 1e9 / elapsed_ns.max(1) as f64;
        let ops_per_s = match spec.driver {
            // Open loop: answered over elapsed; it must equal the offered rate.
            Driver::Open { .. } => {
                (tally.attempted - tally.failed) as f64 * 1e9 / elapsed_ns.max(1) as f64
            }
            _ => rate_from_batches(&mut batches, BATCH, spec.lanes()),
        };
        Summary {
            tally,
            elapsed_ns,
            ops_per_s,
            ops_per_s_mean,
            get_p50: p50(&mut gets),
            set_p50: p50(&mut sets),
            get_p99: quantile(&mut gets, 0.99),
            set_p99: quantile(&mut sets, 0.99),
            get_samples: gets.len(),
            set_samples: sets.len(),
            late_p99: quantile(&mut late, 0.99),
            sent_late,
            spans,
        }
    }

    /// An open loop whose generator ran late measured itself.
    fn check_generator(&self) -> Result<(), String> {
        if self.sent_late as f64 > SENT_LATE_LIMIT * self.tally.attempted as f64 {
            return Err(format!(
                "invalid run: the generator itself sent {} of {} ops late (p99 lateness {} ns)",
                self.sent_late, self.tally.attempted, self.late_p99
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics

/// Counter snapshots of the workload's own map and server, diffed around
/// the measured slices.
#[derive(Clone, Copy)]
struct MapCounters {
    hot: HotKeyStatsSnapshot,
    cache: CacheStatsSnapshot,
}

impl MapCounters {
    fn read(map: &Map) -> Self {
        MapCounters {
            hot: map.hotkey_stats().unwrap_or_default(),
            cache: map.cache_stats(),
        }
    }
}

/// `hotkey.*` and `cache.*` counters over a slice of `gets` GETs and `sets`
/// SETs.
fn map_counter_metrics(
    m: &mut Vec<(&'static str, f64)>,
    a: &MapCounters,
    b: &MapCounters,
    gets: u64,
    sets: u64,
) {
    let served = (b.hot.front_hits + b.hot.front_absent) - (a.hot.front_hits + a.hot.front_absent);
    let delegated = b.hot.delegated - a.hot.delegated;
    m.push(("hotkey.front_hit_share", ratio(served, gets)));
    m.push(("hotkey.delegated_share", ratio(delegated, sets)));
    m.push((
        "hotkey.avg_batch",
        ratio(delegated, b.hot.combined_batches - a.hot.combined_batches),
    ));
    m.push((
        "hotkey.poisons_per_set",
        ratio(b.hot.poisons - a.hot.poisons, sets),
    ));
    m.push((
        "cache.evictions_per_set",
        ratio(b.cache.evictions - a.cache.evictions, sets),
    ));
    m.push((
        "cache.forced_share",
        ratio(b.cache.forced - a.cache.forced, sets),
    ));
    m.push((
        "cache.live_over_budget",
        ratio(b.cache.live_bytes, b.cache.budget_bytes),
    ));
}

/// What the server itself saw over a traced wire slice.
struct ServerView {
    stats: ascylib_server::ServerStatsSnapshot,
    telemetry: ascylib_server::TelemetrySnapshot,
}

impl ServerView {
    fn read(server: &ServerHandle) -> Self {
        ServerView {
            stats: server.stats(),
            telemetry: server.telemetry(),
        }
    }
}

/// `client.*` from the lane's spans and `server.*` from the server's own
/// phase histograms and counters over the same slice; returns the
/// reconciliation line against `p50`, the untraced per-op time.
fn wire_metrics(
    m: &mut Vec<(&'static str, f64)>,
    spans: &[Span],
    before: &ServerView,
    after: &ServerView,
    what: &str,
    p50_untraced: u64,
) -> String {
    let client = [
        "client.encode",
        "client.write",
        "client.wait",
        "client.parse",
    ]
    .map(|name| p50(&mut span::durations(spans, name)) as f64);
    m.push(("client.encode_ns", client[0]));
    m.push(("client.write_ns", client[1]));
    m.push(("client.wait_ns", client[2]));
    m.push(("client.parse_ns", client[3]));
    let phase = |p: Phase| {
        let i = p.index();
        after.telemetry.phases[i]
            .delta_since(&before.telemetry.phases[i])
            .quantile(0.5) as f64
    };
    let server = [
        phase(Phase::Parse),
        phase(Phase::Execute),
        phase(Phase::Flush),
    ];
    m.push(("server.parse_ns", server[0]));
    m.push(("server.execute_ns", server[1]));
    m.push(("server.flush_ns", server[2]));
    let wakeups = after.stats.wakeups - before.stats.wakeups;
    let frames = after.stats.frames - before.stats.frames;
    m.push((
        "server.wakeups_per_op",
        ratio(wakeups, after.stats.ops - before.stats.ops),
    ));
    m.push(("server.frames_per_wakeup", ratio(frames, wakeups)));
    m.push((
        "server.partial_writes",
        (after.stats.partial_writes - before.stats.partial_writes) as f64,
    ));
    let dispatch = client[2] - server.iter().sum::<f64>();
    m.push(("server.dispatch_self_ns", dispatch));
    let request_self = p50(&mut span::self_times(spans, "request")) as f64;
    let explained: f64 = client.iter().sum();
    reconcile(
        &format!(
            "{what}: client encode {:.0} + write {:.0} + wait {:.0} (server parse {:.0} + execute {:.0} + flush {:.0} + dispatch {:.0}) + parse {:.0}; request self {:.0}",
            client[0], client[1], client[2], server[0], server[1], server[2], dispatch, client[3], request_self
        ),
        explained,
        p50_untraced as f64,
    )
}

/// One reconciliation line: what the layers add up to against what the
/// untraced run measured; a gap over a fifth is called out, not hidden.
fn reconcile(what: &str, explained: f64, measured: f64) -> String {
    let gap = measured - explained;
    let verdict = if measured > 0.0 && (gap / measured).abs() > 0.2 {
        "UNEXPLAINED TIME"
    } else {
        "reconciled"
    };
    format!(
        "{what} = {explained:.0} ns vs untraced p50 {measured:.0} ns: gap {gap:.0} ns ({:.1} %) {verdict}",
        if measured > 0.0 { gap / measured * 100.0 } else { 0.0 }
    )
}

fn traced(spec: &Spec, seed: u64, ns: u64, scale: &Scale) -> Result<Report, String> {
    let slice = ns / 3;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let plain: Summary;
    let mut spied: Summary;
    let mut wire_line = None;

    match spec.driver {
        Driver::Embed { .. } => {
            let versions = Versions::new(spec.keys, 1);
            let map = build_map(HotKeyConfig::default(), cache_config(spec));
            let store = as_store(&map);
            let steps = [
                Step::Preload,
                Step::Ops(spec.warmup_ops),
                Step::Timed {
                    ns: slice,
                    trace: false,
                },
                Step::Timed {
                    ns: slice,
                    trace: true,
                },
            ];
            let mut counters = Vec::new();
            let mut results = embed::drive(&*store, spec, &versions, seed, &steps, |step| {
                if step == 1 || step == 3 {
                    counters.push(MapCounters::read(&map));
                }
            });
            spied = Summary::of(spec, results.pop().expect("traced slice"));
            plain = Summary::of(spec, results.pop().expect("untraced slice"));
            let (gets, sets) = both(&plain.tally, &spied.tally);
            map_counter_metrics(&mut m, &counters[0], &counters[1], gets, sets);
        }
        _ => {
            let mut served = set_up_wire(spec, seed)?;
            let c0 = MapCounters::read(&served.map);
            plain = Summary::of(spec, vec![timed_wire(&mut served, spec, slice, false)?]);
            let before = ServerView::read(&served.server);
            spied = Summary::of(spec, vec![timed_wire(&mut served, spec, slice, true)?]);
            let after = ServerView::read(&served.server);
            let (gets, sets) = both(&plain.tally, &spied.tally);
            map_counter_metrics(&mut m, &c0, &MapCounters::read(&served.map), gets, sets);
            let spans = spied.spans.first().map(Vec::as_slice).unwrap_or_default();
            wire_line = Some(wire_metrics(
                &mut m,
                spans,
                &before,
                &after,
                spec.name,
                plain.get_p50,
            ));
            drop(served.lane);
            served.server.join();
        }
    }
    no_failures("untraced slice", &plain.tally)?;
    no_failures("traced slice", &spied.tally)?;
    plain.check_generator()?;
    spied.check_generator()?;

    // The workload's stack is gone; replay the ladder on fresh ones.
    let mut ladder = ladder::run(spec, seed, scale);
    m.extend(ladder.metrics.iter().copied());
    if let Driver::Embed { .. } = spec.driver {
        notes.push(reconcile(
            &format!("{} GET: self times core..store", spec.name),
            ladder.store.get_ns,
            plain.get_p50 as f64,
        ));
        notes.push(reconcile(
            &format!("{} SET: self times core..store", spec.name),
            ladder.store.set_ns,
            plain.set_p50 as f64,
        ));
        // Rung 8: the ladder's top map served over loopback at depth 1.
        let single = spec.single_lane();
        let server = serve(&ladder.top, single.driver)?;
        let mut lane =
            WireLane::connect(server.addr(), &single, seed).map_err(|e| format!("connect: {e}"))?;
        lane.set_versions(std::mem::take(&mut ladder.top_versions));
        let warm = lane
            .run_pipe(1, Stop::Count(scale.loopback_ops / 10), false)
            .map_err(|e| e.to_string())?;
        no_failures("loopback warm-up", &warm.tally)?;
        let before = ServerView::read(&server);
        let rung = lane
            .run_pipe(1, Stop::Count(scale.loopback_ops), true)
            .map_err(|e| e.to_string())?;
        let after = ServerView::read(&server);
        let rung = Summary::of(&single, vec![rung]);
        no_failures("loopback rung", &rung.tally)?;
        let spans = rung.spans.first().map(Vec::as_slice).unwrap_or_default();
        notes.push(wire_metrics(
            &mut m,
            spans,
            &before,
            &after,
            "loopback rung (depth 1)",
            rung.get_p50,
        ));
        spied.spans.push(spans.to_vec());
        drop(lane);
        server.join();
    }
    notes.extend(wire_line);
    drop(ladder);

    m.push(("tail.get_p99_ns", plain.get_p99 as f64));
    m.push(("tail.set_p99_ns", plain.set_p99 as f64));
    m.push((
        "tail.samples",
        (plain.get_samples + plain.set_samples) as f64,
    ));
    m.push(("gen.late_p99_ns", spied.late_p99.max(plain.late_p99) as f64));
    m.push(("ops_per_s_mean", plain.ops_per_s_mean));
    m.push((
        "trace.overhead_share",
        1.0 - spied.ops_per_s / plain.ops_per_s,
    ));

    let path = trace_path(spec.name);
    span::write_jsonl(&path, spied.spans.iter().map(Vec::as_slice))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        spied.spans.iter().map(Vec::len).sum::<usize>(),
        path.display()
    ));

    // Print in declaration order, and only what is declared.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let value = m.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            value
                .map(|v| (*name, v))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut tally = plain.tally;
    tally.merge(spied.tally);
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

/// GETs and SETs of two slices together.
fn both(a: &Tally, b: &Tally) -> (u64, u64) {
    let gets = a.gets + b.gets;
    (gets, a.attempted + b.attempted - gets)
}

/// Where run artefacts go: `benchmark/out` from the repository root, `out`
/// from the package directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    })
}

fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace-{workload}.jsonl"))
}
