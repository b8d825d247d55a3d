//! The in-process closed loop: lanes calling `KvStore::get/set` directly.
//!
//! Lane threads live through a whole plan (preload, warm-up, timed
//! phases), so thread-local state of the stack — ssmem pools, the hot-key
//! sampler — is as warm in the timed phase as the warm-up left it. Phase
//! boundaries are barriers the main thread shares; nothing sleeps or polls.

use std::sync::Barrier;

use ascylib_server::KvStore;

use crate::estimate::{BATCH, SAMPLE_EVERY};
use crate::hot;
use crate::lane::PhaseResult;
use crate::ops::{preload_order, Kind, Op, OpGen, Purpose, Spec};
use crate::span::now_ns;
use crate::value::{self, Versions};

/// One step of a lane's plan.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Store version 1 of every key the lane owns.
    Preload,
    /// A fixed number of ops, summed over lanes; nothing recorded.
    Ops(u64),
    /// Run full batches until `ns` have passed; one [`PhaseResult`] per lane.
    Timed { ns: u64, trace: bool },
}

/// Runs `steps` on every lane of `spec` against `store`, whose keys are at
/// the versions `versions` records (all 1 before a preload). `after(i)` runs on
/// the calling thread once every lane has finished step `i` and before any
/// starts step `i + 1`. Returns, per timed step in plan order, the lanes'
/// results.
pub fn drive(
    store: &dyn KvStore,
    spec: &Spec,
    versions: &Versions,
    seed: u64,
    steps: &[Step],
    mut after: impl FnMut(usize),
) -> Vec<Vec<PhaseResult>> {
    let lanes = spec.lanes();
    let barrier = Barrier::new(lanes + 1);
    let per_lane: Vec<Vec<PhaseResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || {
                    hot::pin(hot::lane_cpu(lane));
                    let mut lane = Lane::new(store, spec, versions, seed, lane);
                    let mut results = Vec::new();
                    for step in steps {
                        match *step {
                            Step::Preload => lane.preload(seed),
                            Step::Ops(total) => lane.run_count(total / lanes as u64),
                            Step::Timed { ns, trace } => results.push(lane.run_timed(ns, trace)),
                        }
                        barrier.wait();
                        barrier.wait();
                    }
                    results
                })
            })
            .collect();
        for i in 0..steps.len() {
            barrier.wait();
            after(i);
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    // [lane][timed step] → [timed step][lane]
    let timed = steps
        .iter()
        .filter(|s| matches!(s, Step::Timed { .. }))
        .count();
    let mut by_step: Vec<Vec<PhaseResult>> =
        (0..timed).map(|_| Vec::with_capacity(lanes)).collect();
    for lane in per_lane {
        for (i, r) in lane.into_iter().enumerate() {
            by_step[i].push(r);
        }
    }
    by_step
}

struct Lane<'a> {
    store: &'a dyn KvStore,
    spec: &'a Spec,
    versions: &'a Versions,
    gen: OpGen,
    index: usize,
    /// Ops issued so far: the request id of the next one.
    issued: u64,
    ops: Vec<Op>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
}

impl<'a> Lane<'a> {
    fn new(
        store: &'a dyn KvStore,
        spec: &'a Spec,
        versions: &'a Versions,
        seed: u64,
        index: usize,
    ) -> Self {
        Lane {
            store,
            spec,
            versions,
            gen: OpGen::new(spec, seed, index, Purpose::Ops),
            index,
            issued: 0,
            ops: Vec::with_capacity(BATCH),
            read_buf: Vec::with_capacity(spec.value_len),
            write_buf: vec![0u8; spec.value_len],
        }
    }

    fn preload(&mut self, seed: u64) {
        for key in preload_order(self.spec, seed, self.index) {
            value::encode(&mut self.write_buf, key, 1);
            assert!(
                self.store.set(key, &self.write_buf),
                "preload: key {key} was already there"
            );
        }
    }

    fn run_count(&mut self, count: u64) {
        let mut sink = PhaseResult::default();
        let mut left = count;
        while left > 0 {
            let n = left.min(BATCH as u64) as usize;
            self.gen.fill(&mut self.ops, n);
            self.batch(&mut sink);
            left -= n as u64;
        }
        // Warm-up ops are checked like any other; a failure there is a
        // failure of the run.
        assert!(
            sink.tally.failed == 0,
            "warm-up: {}",
            sink.tally.first_failure.unwrap_or_default()
        );
    }

    fn run_timed(&mut self, ns: u64, trace: bool) -> PhaseResult {
        let mut res = PhaseResult::with_capacity(1 << 21, self.index, trace);
        let start = now_ns();
        loop {
            // Generating the batch is the benchmark's work, not the
            // stack's: it stays outside the batch time.
            self.gen.fill(&mut self.ops, BATCH);
            let t0 = now_ns();
            self.batch(&mut res);
            let t1 = now_ns();
            res.batch_ns.push(t1 - t0);
            if t1 - start >= ns {
                res.elapsed_ns = t1 - start;
                return res;
            }
        }
    }

    /// Executes and checks `self.ops`.
    fn batch(&mut self, res: &mut PhaseResult) {
        let unbounded = self.spec.budget.is_none();
        let len = self.spec.value_len;
        for (i, op) in self.ops.iter().enumerate() {
            let sampled = i % SAMPLE_EVERY == 0;
            let request = self.issued + i as u64;
            match op.kind {
                Kind::Get => {
                    let floor = self.versions.floor(op.key);
                    let t0 = if sampled { now_ns() } else { 0 };
                    let hit = self.store.get(op.key, &mut self.read_buf);
                    if sampled {
                        let t1 = now_ns();
                        res.get_ns.push(t1 - t0);
                        if let Some(rec) = res.spans.as_mut() {
                            rec.push("store.get", t0, t1, 0, request);
                        }
                    }
                    res.tally.gets += 1;
                    if hit {
                        let checked = value::verify(&self.read_buf, op.key, len)
                            .and_then(|got| self.versions.check(op.key, floor, got));
                        match checked {
                            Ok(()) => res.tally.hits += 1,
                            Err(bad) => res.tally.fail(|| format!("GET {}: {bad:?} value", op.key)),
                        }
                    } else if unbounded {
                        res.tally
                            .fail(|| format!("GET {}: miss on an unbounded store", op.key));
                    }
                }
                Kind::Set => {
                    let version = self.versions.begin_write(op.key);
                    value::encode(&mut self.write_buf, op.key, version);
                    let t0 = if sampled { now_ns() } else { 0 };
                    let created = self.store.set(op.key, &self.write_buf);
                    if sampled {
                        let t1 = now_ns();
                        res.set_ns.push(t1 - t0);
                        if let Some(rec) = res.spans.as_mut() {
                            rec.push("store.set", t0, t1, 0, request);
                        }
                    }
                    self.versions.end_write(op.key, version);
                    if created && unbounded {
                        res.tally
                            .fail(|| format!("SET {}: created a preloaded key", op.key));
                    }
                }
            }
        }
        res.tally.attempted += self.ops.len() as u64;
        self.issued += self.ops.len() as u64;
    }
}
