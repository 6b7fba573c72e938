//! The four workloads, the seeded population they share, and the
//! pre-recorded operation streams the drivers replay.
//!
//! Everything the program will be fed is generated here, during set-up,
//! from the seed alone: the road network, the users' privacy profiles,
//! their recorded movement, the public targets and the order and kind
//! of every operation. The same seed gives a byte-identical stream
//! ([`stream_hash`]).

use casper_geometry::Point;
use casper_grid::Profile;
use casper_mobility::{uniform_targets, MovingObjectGenerator, NetworkBuilder, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Driver threads, one `NetworkClient` connection each. Users are split
/// between them by uid parity, so one user's operations stay ordered.
pub const DRIVERS: usize = 2;

/// `ClientConfig::pipeline_window`, and the most updates one
/// `push_updates` call carries.
pub const PIPELINE_WINDOW: usize = 32;

/// Pyramid height (the paper's default).
pub const PYRAMID_HEIGHT: u8 = 9;

/// `ShardedAnonymizer` shard level: 16 shard pyramids.
pub const SHARD_LEVEL: u8 = 2;

/// Mobility time units per recorded tick, as in `crates/bench`.
const TICK_DT: f64 = 1.0;

/// Ticks simulated and thrown away before recording starts. The
/// generator spawns every object on a network node, dozens to a point;
/// a few ticks spread them along the roads, so that the registered
/// population (and the stationary one `query_snapshot` queries from)
/// has the density skew of traffic rather than of an intersection list.
const BURN_IN_TICKS: usize = 4;

/// How many times a run alternates between a piece of the open-loop
/// latency window and a closed-loop capacity burst. The host's speed
/// drifts over seconds (two busy virtual processors share one core, and
/// the core has neighbours); alternating spreads both windows over the
/// whole run, so a slow spell moves a few slices of each, not all of one.
pub const ROUNDS: usize = 5;

/// How many times the pinned rate a capacity burst's stream is sized for.
/// The rate is half the measured capacity, so twice the rate lasts a
/// burst; this leaves a program twice as fast room to show it (a burst
/// that runs out says so: `capacity_stream_exhausted`).
const CAPACITY_STREAM_FACTOR: f64 = 4.0;

/// Floor of that sizing, in operations per second of burst: a small
/// population at a token rate (`--smoke`) outruns four times it.
const CAPACITY_STREAM_FLOOR_OPS_S: f64 = 16_000.0;

/// Population size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Registered mobile users.
    pub users: usize,
    /// Uniformly placed public targets.
    pub targets: usize,
    /// Recorded movement ticks (replayed forwards then backwards, so
    /// movement stays continuous however long a phase runs).
    pub ticks: usize,
}

impl Scale {
    /// The reference scale every committed number uses.
    pub const FULL: Scale = Scale {
        users: 20_000,
        targets: 10_000,
        ticks: 16,
    };
    /// The `--smoke` scale of the self-tests.
    pub const SMOKE: Scale = Scale {
        users: 500,
        targets: 500,
        ticks: 6,
    };
}

/// Which trusted-tier assembly a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `ShardedAnonymizer` alone: durability off.
    Sharded,
    /// `DurableAnonymizer<ShardedAnonymizer, DirStorage>`: local fsync.
    Durable,
    /// `ReplicatedAnonymizer` in `StandbyFsync` shipping to a hot
    /// `Standby` behind a second `NetworkServer`.
    Replicated,
}

/// One workload: a traffic mix and the configuration it runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name later issues refer to.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Share of operations that are NN queries; the rest are updates.
    pub query_share: f64,
    /// Trusted-tier assembly.
    pub tier: Tier,
    /// Whether the server's candidate cache stays on (the shipped default).
    pub cache: bool,
    /// Open-loop arrival rate at [`Scale::FULL`], pinned once: half the
    /// median closed-loop capacity of five runs of the seed commit,
    /// rounded to two significant figures (see README, "How the rates
    /// were pinned").
    pub rate_ops_s: f64,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "update_stream",
        why: "100% location updates, durability off: grid, sharded, wire/codec, reactor and the ServerPlane write lock alone (the update path in isolation)",
        query_share: 0.0,
        tier: Tier::Sharded,
        cache: true,
        rate_ops_s: 28000.0,
    },
    WorkloadSpec {
        name: "query_snapshot",
        why: "100% private-NN-over-public queries from a stationary population, candidate cache off: Algorithm 2 over the real wire; update-path and WAL changes must not move it",
        query_share: 1.0,
        tier: Tier::Sharded,
        cache: false,
        rate_ops_s: 1500.0,
    },
    WorkloadSpec {
        name: "mixed_durable",
        why: "80% updates / 20% queries, moving users, local-fsync WAL on DirStorage, cache on: reads contend with writes on the plane lock and two committers share WAL group commit",
        query_share: 0.2,
        tier: Tier::Durable,
        cache: true,
        rate_ops_s: 2100.0,
    },
    WorkloadSpec {
        name: "mixed_replicated",
        why: "the mixed_durable op stream against a StandbyFsync replica pair: the difference from mixed_durable is the price of replication",
        query_share: 0.2,
        tier: Tier::Replicated,
        cache: true,
        rate_ops_s: 670.0,
    },
];

/// Arrival rate `--smoke` and the self-tests use at [`Scale::SMOKE`]: low
/// enough for a debug build.
pub const SMOKE_RATE_OPS_S: f64 = 400.0;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeded inputs shared by every workload of a run.
#[derive(Debug, Clone)]
pub struct Population {
    /// `(k, A_min)` per user, indexed by uid: the paper's defaults,
    /// `k ~ U[1, 50]`, `A_min ~ U[0.005 %, 0.01 %]` of the space.
    pub profiles: Vec<Profile>,
    /// Recorded movement on the synthetic road network.
    pub trace: Trace,
    /// Public target positions, indexed by object id.
    pub targets: Vec<Point>,
}

impl Population {
    /// Builds the population of `scale` from `seed`.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = NetworkBuilder::new().build(&mut rng);
        let mut generator = MovingObjectGenerator::new(network, scale.users, &mut rng);
        let profiles = (0..scale.users)
            .map(|_| Profile::new(rng.gen_range(1..=50), rng.gen_range(5e-5..=1e-4)))
            .collect();
        for _ in 0..BURN_IN_TICKS {
            generator.tick(TICK_DT, &mut rng);
        }
        let trace = Trace::record(&mut generator, &mut rng, scale.ticks, TICK_DT);
        let targets = uniform_targets(scale.targets, &mut rng);
        Self {
            profiles,
            trace,
            targets,
        }
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.profiles.len()
    }

    /// Where user `uid` is in recorded state `state`: state 0 is the
    /// initial placement, state `t` the positions after tick `t`.
    fn position(&self, state: usize, uid: usize) -> Point {
        if state == 0 {
            self.trace.initial[uid]
        } else {
            // The generator reports every object every tick, in uid order.
            self.trace.ticks[state - 1][uid].1
        }
    }
}

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A location update `(uid, x, y)`.
    Update,
    /// A private nearest-neighbour query over the public targets.
    Query,
}

/// One operation of a driver's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When the operation is due, in ns after the phase starts. Latency
    /// is measured from here, not from when a driver got round to it.
    pub due_ns: u64,
    /// The user.
    pub uid: u32,
    /// Update or query.
    pub kind: OpKind,
    /// The new position of an update (unused by a query, which is
    /// answered for wherever the user last reported).
    pub pos: Point,
}

/// The endless, seeded sequence of `(uid, kind, pos, gap)` a workload
/// offers, in global arrival order. Moving workloads walk the recorded states
/// forwards and backwards (1, 2 … T, T−1 … 0, 1 …), visiting the users
/// in uid order within a state; stationary ones cycle through the users.
#[derive(Debug, Clone)]
pub struct OpSource<'a> {
    population: &'a Population,
    query_share: f64,
    rng: StdRng,
    state: usize,
    forwards: bool,
    uid: usize,
}

impl<'a> OpSource<'a> {
    /// The stream of `spec` over `population`. `seed` decides which
    /// operations of a mixed workload are queries.
    pub fn new(population: &'a Population, spec: &WorkloadSpec, seed: u64) -> Self {
        Self {
            population,
            query_share: spec.query_share,
            rng: StdRng::seed_from_u64(seed ^ 0x6F70_5F6B_696E_6473),
            state: 1.min(population.trace.tick_count()),
            forwards: true,
            uid: 0,
        }
    }

    fn advance_state(&mut self) {
        let last = self.population.trace.tick_count();
        if last == 0 {
            return;
        }
        if self.forwards && self.state == last {
            self.forwards = false;
        } else if !self.forwards && self.state == 0 {
            self.forwards = true;
        }
        if self.forwards {
            self.state += 1;
        } else {
            self.state -= 1;
        }
    }
}

impl Iterator for OpSource<'_> {
    /// `(uid, kind, pos, gap)`: `gap` is the time since the previous
    /// arrival in units of the mean spacing, exponentially distributed.
    type Item = (u32, OpKind, Point, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let users = self.population.users();
        if users == 0 {
            return None;
        }
        let stationary = self.query_share >= 1.0;
        let uid = self.uid;
        let state = if stationary { 0 } else { self.state };
        let pos = self.population.position(state, uid);
        let kind = if stationary || self.rng.gen::<f64>() < self.query_share {
            OpKind::Query
        } else {
            OpKind::Update
        };
        // Drawn for every operation, paced or not, so that the rate and
        // the pacing change when operations are due and nothing else.
        let gap = -(1.0 - self.rng.gen::<f64>()).ln();
        self.uid += 1;
        if self.uid == users {
            self.uid = 0;
            if !stationary {
                self.advance_state();
            }
        }
        Some((uid as u32, kind, pos, gap))
    }
}

/// How a phase paces its operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Open loop: arrivals are a Poisson process — independent users —
    /// scaled so that the phase's operations span exactly their share of
    /// time at the rate. (At constant spacing the arrivals of the slower
    /// workloads beat against the reactor's 500 µs nap: whole runs sat in
    /// one phase of the beat and measured a third more latency and half
    /// more CPU per operation than the next run of the same binary.)
    Open {
        /// Arrivals per second, both drivers together.
        rate_ops_s: f64,
    },
    /// Closed loop: everything is due at once; drivers run back to back.
    Closed,
}

/// The operations of one phase, already dealt to the drivers.
#[derive(Debug, Clone)]
pub struct PhaseStream {
    /// `per_driver[d]` holds, in due order, the operations of the users
    /// with `uid % DRIVERS == d`.
    pub per_driver: Vec<Vec<Op>>,
    /// FNV-1a hash of the `(uid, kind, pos, gap)` sequence in global order.
    pub hash: u64,
}

impl PhaseStream {
    /// Takes the next `count` operations from `source`.
    pub fn take(source: &mut OpSource<'_>, count: usize, pacing: Pacing) -> Self {
        let mut per_driver: Vec<Vec<Op>> = (0..DRIVERS)
            .map(|_| Vec::with_capacity(count / DRIVERS + 1))
            .collect();
        // `count` arrivals in `count / rate` seconds, whatever the gaps
        // drawn add up to.
        let ns_per_gap = match pacing {
            Pacing::Open { rate_ops_s } => {
                let drawn: f64 = source.clone().take(count).map(|(.., gap)| gap).sum();
                count as f64 / rate_ops_s * 1e9 / drawn.max(f64::MIN_POSITIVE)
            }
            Pacing::Closed => 0.0,
        };
        let mut hash = FNV_OFFSET;
        let mut elapsed = 0.0;
        for (uid, kind, pos, gap) in source.take(count) {
            elapsed += gap;
            hash = fnv1a(hash, &uid.to_le_bytes());
            hash = fnv1a(hash, &[kind as u8]);
            hash = fnv1a(hash, &pos.x.to_bits().to_le_bytes());
            hash = fnv1a(hash, &pos.y.to_bits().to_le_bytes());
            hash = fnv1a(hash, &gap.to_bits().to_le_bytes());
            per_driver[uid as usize % DRIVERS].push(Op {
                due_ns: (elapsed * ns_per_gap) as u64,
                uid,
                kind,
                pos,
            });
        }
        Self { per_driver, hash }
    }

    /// Operations in the phase.
    pub fn len(&self) -> usize {
        self.per_driver.iter().map(Vec::len).sum()
    }

    /// Whether the phase is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Lengths of the windows of one run, in seconds. The latency and the
/// capacity window are each run in [`ROUNDS`] equal pieces, alternating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windows {
    /// Untimed open-loop warm-up at the pinned rate.
    pub warmup_s: f64,
    /// Open-loop latency window (end-to-end latency, CPU per op).
    pub latency_s: f64,
    /// Open-loop window with spans recorded (per-layer metrics); 0 = skip.
    pub traced_s: f64,
    /// Closed-loop capacity window; 0 = skip.
    pub capacity_s: f64,
}

/// One round: a piece of the latency window, then a capacity burst.
#[derive(Debug, Clone)]
pub struct Round {
    /// Open-loop operations of this piece of the latency window.
    pub paced: PhaseStream,
    /// Closed-loop operations of this burst. The burst ends with its
    /// time and skips what it did not get to, so every paced piece sees
    /// identical input on every run of a seed however fast the program is.
    pub burst: PhaseStream,
}

/// The streams of every phase of a run, in generation (and execution)
/// order: warm-up, the rounds, the traced window.
#[derive(Debug, Clone)]
pub struct RunStreams {
    /// Warm-up operations (not measured).
    pub warmup: PhaseStream,
    /// The alternating latency pieces and capacity bursts.
    pub rounds: Vec<Round>,
    /// Traced-window operations.
    pub traced: PhaseStream,
}

impl RunStreams {
    /// Generates the streams of `spec` at `rate_ops_s` for `windows`.
    pub fn generate(
        population: &Population,
        spec: &WorkloadSpec,
        rate_ops_s: f64,
        windows: Windows,
        seed: u64,
    ) -> Self {
        let mut source = OpSource::new(population, spec, seed);
        let open = Pacing::Open { rate_ops_s };
        let count = |seconds: f64| (rate_ops_s * seconds).round() as usize;
        let burst_ops_s = (rate_ops_s * CAPACITY_STREAM_FACTOR).max(CAPACITY_STREAM_FLOOR_OPS_S);
        let warmup = PhaseStream::take(&mut source, count(windows.warmup_s), open);
        let rounds = (0..ROUNDS)
            .map(|_| Round {
                paced: PhaseStream::take(
                    &mut source,
                    count(windows.latency_s / ROUNDS as f64),
                    open,
                ),
                burst: PhaseStream::take(
                    &mut source,
                    (windows.capacity_s / ROUNDS as f64 * burst_ops_s).round() as usize,
                    Pacing::Closed,
                ),
            })
            .collect();
        let traced = PhaseStream::take(&mut source, count(windows.traced_s), open);
        Self {
            warmup,
            rounds,
            traced,
        }
    }

    /// One hash over every phase's operations, in generation order.
    pub fn hash(&self) -> u64 {
        std::iter::once(&self.warmup)
            .chain(self.rounds.iter().flat_map(|r| [&r.paced, &r.burst]))
            .chain(std::iter::once(&self.traced))
            .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.hash.to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Population {
        Population::build(
            Scale {
                users: 40,
                targets: 10,
                ticks: 3,
            },
            9,
        )
    }

    #[test]
    fn moving_stream_walks_states_forwards_then_backwards() {
        let pop = tiny();
        let spec = workload("update_stream").unwrap();
        let ops: Vec<_> = OpSource::new(&pop, spec, 1).take(40 * 8).collect();
        assert!(ops.iter().all(|o| o.3 > 0.0 && o.3.is_finite()));
        // States visited: 1 2 3 2 1 0 1 2.
        let expect = [1usize, 2, 3, 2, 1, 0, 1, 2];
        for (round, &state) in expect.iter().enumerate() {
            for uid in 0..40 {
                let (u, kind, pos, _) = ops[round * 40 + uid];
                assert_eq!(u as usize, uid);
                assert_eq!(kind, OpKind::Update);
                assert_eq!(pos, pop.position(state, uid), "round {round} uid {uid}");
            }
        }
    }

    #[test]
    fn stationary_stream_only_queries_from_initial_positions() {
        let pop = tiny();
        let spec = workload("query_snapshot").unwrap();
        for (i, (uid, kind, pos, _)) in OpSource::new(&pop, spec, 1).take(100).enumerate() {
            assert_eq!(uid as usize, i % 40);
            assert_eq!(kind, OpKind::Query);
            assert_eq!(pos, pop.trace.initial[uid as usize]);
        }
    }

    #[test]
    fn mixed_share_is_roughly_honoured_and_drivers_split_by_parity() {
        let pop = tiny();
        let spec = workload("mixed_durable").unwrap();
        let mut src = OpSource::new(&pop, spec, 5);
        let phase = PhaseStream::take(&mut src, 4000, Pacing::Open { rate_ops_s: 1000.0 });
        assert_eq!(phase.len(), 4000);
        let queries = phase
            .per_driver
            .iter()
            .flatten()
            .filter(|o| o.kind == OpKind::Query)
            .count();
        assert!((600..1000).contains(&queries), "{queries} queries of 4000");
        for (d, ops) in phase.per_driver.iter().enumerate() {
            assert!(ops.iter().all(|o| o.uid as usize % DRIVERS == d));
            assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        }
        // Poisson arrivals that span the phase's 4 s exactly: the last
        // is due at its end, and the gaps vary as exponentials do.
        let mut due: Vec<u64> = phase
            .per_driver
            .iter()
            .flatten()
            .map(|o| o.due_ns)
            .collect();
        due.sort_unstable();
        assert!((3_999_999_000..=4_000_000_000).contains(due.last().unwrap()));
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((0.99..1.01).contains(&mean), "mean gap {mean} ms");
        assert!(
            (0.8..1.25).contains(&var.sqrt()),
            "gap deviation {} ms",
            var.sqrt()
        );
    }
}
