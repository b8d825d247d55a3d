//! The four workloads and the seeded streams that drive them.
//!
//! Everything a run feeds the stack derives from `--seed`: per-lane op
//! streams (kind + key), the preload order, and the open loop's Poisson
//! schedule. The stack itself only ever sees the generated inputs.

use ascylib_harness::{KeyDist, KeySampler};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// How a workload reaches the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// Closed loop, `threads` callers of `KvStore::get/set` in-process.
    Embed { threads: usize },
    /// Closed loop over loopback TCP: one connection keeping `depth`
    /// frames in flight.
    Pipe { depth: usize },
    /// Open loop over loopback TCP: one connection, Poisson arrivals at
    /// `rate` ops/s, each op timed from when it was due.
    Open { rate: f64 },
}

/// One workload: what is stored, how it is accessed, and through what.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; also in BENCHMARK.json).
    pub why: &'static str,
    pub driver: Driver,
    /// Preloaded keys `1..=keys`.
    pub keys: u64,
    pub value_len: usize,
    pub dist: KeyDist,
    /// Share of GETs; the rest are SET-overwrites of preloaded keys.
    pub get_share: f64,
    /// Total payload-byte budget of the cache tier (`None` = unbounded; a
    /// GET may then never miss).
    pub budget: Option<u64>,
    /// `true`: GETs draw from all keys, so a thread reads keys another
    /// thread writes. `false`: a thread reads only the keys it owns.
    pub shared_reads: bool,
    /// Fixed-count warm-up, in ops (frames on the wire).
    pub warmup_ops: u64,
}

/// Arrivals of the open loop's paced pre-roll, after its closed-loop
/// warm-up: half a second at rate, so the timed phase starts on a
/// connection and a server already in the paced regime.
pub const OPEN_PREROLL_ARRIVALS: u64 = 10_000;

/// The workloads, in the order `--selfcheck` interleaves them. Names are
/// fixed: later issues cite them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "embed_read",
        why: "1M x 64 B uniform 95/5 in-process, 2 threads: the skip-list search path past L2 does the work; cache and hot-key tiers idle",
        driver: Driver::Embed { threads: 2 },
        keys: 1_000_000,
        value_len: 64,
        dist: KeyDist::Uniform,
        get_share: 0.95,
        budget: None,
        // A reader of a key under overwrite by the other thread can see a
        // transient miss (BlobMap::set is remove-then-insert; ROADMAP item
        // 2). At ~15 M GETs a run that window is hit in about one run in
        // five, and a miss on an unbounded workload fails the run — so on
        // this workload threads read only the keys they write. Uniform
        // keys over 1M make same-key sharing negligible either way.
        shared_reads: false,
        warmup_ops: 2_000_000,
    },
    Spec {
        name: "embed_write",
        why: "200k x 256 B zipf(0.99) 50/50 in-process under a budget of half the data: arena store, ledger, CLOCK eviction, ssmem, hot-key front and delegation",
        driver: Driver::Embed { threads: 2 },
        keys: 200_000,
        value_len: 256,
        dist: KeyDist::Zipfian { theta: 0.99 },
        get_share: 0.5,
        budget: Some(25_000_000),
        shared_reads: true,
        warmup_ops: 4_000_000,
    },
    Spec {
        name: "wire_pipe",
        why: "loopback TCP, 1 connection at pipeline depth 16, 200k x 64 B uniform 95/5: syscalls amortised, so codec, conn execute and store set the saturation rate",
        driver: Driver::Pipe { depth: 16 },
        keys: 200_000,
        value_len: 64,
        dist: KeyDist::Uniform,
        get_share: 0.95,
        budget: None,
        shared_reads: true,
        warmup_ops: 500_000,
    },
    Spec {
        name: "wire_open",
        why: "loopback TCP open loop, Poisson 20k ops/s timed from due time, same store and mix as wire_pipe: every op pays epoll, ready queue, worker wake and write",
        driver: Driver::Open { rate: 20_000.0 },
        keys: 200_000,
        value_len: 64,
        dist: KeyDist::Uniform,
        get_share: 0.95,
        budget: None,
        shared_reads: true,
        warmup_ops: 500_000,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Load-generating lanes: threads in-process, one on the wire.
    pub fn lanes(&self) -> usize {
        match self.driver {
            Driver::Embed { threads } => threads,
            Driver::Pipe { .. } | Driver::Open { .. } => 1,
        }
    }

    /// The same data, mix and key distribution on one lane that owns every
    /// key: what the ladder replays, and what its loopback rung sends.
    pub fn single_lane(&self) -> Spec {
        Spec {
            driver: Driver::Pipe { depth: 1 },
            ..*self
        }
    }

    /// The same workload at a fraction of its size, for smoke tests.
    #[cfg(test)]
    pub fn shrunk(mut self, keys: u64, warmup_ops: u64) -> Spec {
        if let Some(b) = self.budget {
            self.budget = Some(b * keys / self.keys);
        }
        self.keys = keys;
        self.warmup_ops = warmup_ops;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
}

/// What a seeded stream is for; keeps streams of one run independent.
#[derive(Debug, Clone, Copy)]
pub enum Purpose {
    Ops = 1,
    Schedule = 2,
    Ladder = 3,
    Preroll = 4,
}

/// The seed of one lane's stream for one purpose (SplitMix64 finalizer
/// over the three, so neighbouring seeds give unrelated streams).
pub fn stream_seed(seed: u64, lane: usize, purpose: Purpose) -> u64 {
    let mut z = seed
        .wrapping_add((lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((purpose as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key `rank` (1-based) of the keys `lane` owns: keys are dealt round-robin
/// to lanes, so every key has exactly one writer.
#[inline]
pub fn owned_key(rank: u64, lane: usize, lanes: usize) -> u64 {
    (rank - 1) * lanes as u64 + lane as u64 + 1
}

/// One lane's op stream.
pub struct OpGen {
    rng: SmallRng,
    all: KeySampler,
    own: KeySampler,
    get_below: u64,
    shared_reads: bool,
    lane: usize,
    lanes: usize,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64, lane: usize, purpose: Purpose) -> Self {
        let lanes = spec.lanes();
        assert_eq!(
            spec.keys % lanes as u64,
            0,
            "keys must divide evenly over lanes"
        );
        OpGen {
            rng: SmallRng::seed_from_u64(stream_seed(seed, lane, purpose)),
            all: KeySampler::new(spec.dist, spec.keys),
            own: KeySampler::new(spec.dist, spec.keys / lanes as u64),
            get_below: (spec.get_share * u64::MAX as f64) as u64,
            shared_reads: spec.shared_reads,
            lane,
            lanes,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let kind = if self.rng.next_u64() < self.get_below {
            Kind::Get
        } else {
            Kind::Set
        };
        let key = if kind == Kind::Get && self.shared_reads {
            self.all.sample(&mut self.rng)
        } else {
            owned_key(self.own.sample(&mut self.rng), self.lane, self.lanes)
        };
        Op { kind, key }
    }

    /// Refills `buf` with the next `n` ops.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }
}

/// The keys `lane` preloads, in a seeded pseudo-random order (a full-cycle
/// affine permutation of its ranks): insertion in key order would lay
/// neighbouring nodes out contiguously, which a store filled by real
/// traffic never is.
pub fn preload_order(spec: &Spec, seed: u64, lane: usize) -> impl Iterator<Item = u64> {
    /// A prime far above any key count, so it is coprime to all of them.
    const STRIDE: u64 = 2_654_435_761;
    let lanes = spec.lanes();
    let own = spec.keys / lanes as u64;
    let offset = stream_seed(seed, lane, Purpose::Ops) % own;
    (0..own).map(move |i| owned_key((i * STRIDE + offset) % own + 1, lane, lanes))
}

/// Offsets from the start of a phase, in ns, at which the open loop's ops
/// are due: a Poisson process of `rate` arrivals per second.
pub struct Schedule {
    rng: SmallRng,
    mean_gap_ns: f64,
    at_ns: f64,
}

impl Schedule {
    pub fn new(seed: u64, purpose: Purpose, rate: f64) -> Self {
        Schedule {
            rng: SmallRng::seed_from_u64(stream_seed(seed, 0, purpose)),
            mean_gap_ns: 1e9 / rate,
            at_ns: 0.0,
        }
    }
}

impl Iterator for Schedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        // Inverse-CDF exponential gap; `random` is in [0, 1), so the
        // logarithm's argument is in (0, 1].
        let u: f64 = self.rng.random();
        self.at_ns += -(1.0 - u).ln() * self.mean_gap_ns;
        Some(self.at_ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed_and_has_the_asked_rate() {
        let take = |seed| {
            Schedule::new(seed, Purpose::Schedule, 20_000.0)
                .take(50_000)
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (take(7), take(7), take(8));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "due times never go back"
        );
        // 50 000 arrivals at 20 k/s take 2.5 s; the sum of that many
        // exponential gaps is within 2 % of its mean with overwhelming odds.
        let span = *a.last().unwrap() as f64 / 1e9;
        assert!((span - 2.5).abs() < 0.05, "50k arrivals spanned {span}s");
        // Exponential gaps: about 1 - 1/e of them are shorter than the mean.
        let short = a.windows(2).filter(|w| w[1] - w[0] < 50_000).count() as f64 / 49_999.0;
        assert!((short - 0.632).abs() < 0.01, "share of short gaps {short}");
    }

    #[test]
    fn op_streams_repeat_per_seed_and_differ_per_lane() {
        let spec = Spec::by_name("embed_write").unwrap();
        let take = |seed, lane| {
            let mut g = OpGen::new(&spec, seed, lane, Purpose::Ops);
            (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
    }

    #[test]
    fn every_key_has_one_writer_and_the_mix_is_as_specified() {
        for spec in WORKLOADS {
            let lanes = spec.lanes();
            let mut gets = 0u64;
            for lane in 0..lanes {
                let mut g = OpGen::new(&spec, 3, lane, Purpose::Ops);
                for _ in 0..20_000 {
                    let op = g.next_op();
                    assert!((1..=spec.keys).contains(&op.key));
                    let owned = (op.key - 1) % lanes as u64 == lane as u64;
                    match op.kind {
                        Kind::Set => assert!(owned, "{}: SET outside the lane's keys", spec.name),
                        Kind::Get => {
                            gets += 1;
                            assert!(owned || spec.shared_reads);
                        }
                    }
                }
            }
            let share = gets as f64 / (20_000 * lanes) as f64;
            assert!(
                (share - spec.get_share).abs() < 0.01,
                "{}: GET share {share}",
                spec.name
            );
        }
    }

    #[test]
    fn preload_visits_every_owned_key_exactly_once() {
        let spec = Spec::by_name("embed_read").unwrap().shrunk(10_000, 0);
        let mut seen = HashSet::new();
        for lane in 0..spec.lanes() {
            let keys: Vec<u64> = preload_order(&spec, 5, lane).collect();
            assert!(keys.windows(2).any(|w| w[0] > w[1]), "not in key order");
            for k in keys {
                assert_eq!((k - 1) % spec.lanes() as u64, lane as u64);
                assert!(seen.insert(k), "key {k} preloaded twice");
            }
        }
        assert_eq!(seen.len() as u64, spec.keys);
    }
}
