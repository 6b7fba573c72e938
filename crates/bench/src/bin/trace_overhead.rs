//! Overhead of span tracing at the default head-sampling rate.
//!
//! ```text
//! cargo run --release -p casper-bench --bin trace_overhead
//! ```
//!
//! Drives the query hot path of the trusted-tier pipeline over its
//! in-process `ServerPlane` — the path that opens a trace root per
//! query, emits cloak/pyramid/lock-wait/server-link/refine child spans,
//! and records every cloaking decision into the audit log — through
//! identical fixed workloads twice: once with tracing at the production
//! default (one trace in [`casper_telemetry::DEFAULT_SAMPLE_RATE`]) and
//! once with tracing off (sample rate 0, one relaxed atomic load per
//! span site). The workload is a [`Casper`] over a sharded trusted tier,
//! run inline on the calling thread: no socket, whose round trip costs
//! tens of microseconds of scheduler noise per op and would drown a 5%
//! signal, while the spans under test fire as they do behind
//! `RemoteCasper`. The two arms are two identical engines that replay
//! the *identical* op sequence (same LCG seed) in lockstep: each
//! repetition runs `OPS` ops per arm in `CHUNK`-op slices, and slice `s`
//! runs on the enabled arm and then on the disabled arm or the other way
//! round (alternating by slice and repetition), a few milliseconds
//! apart, so host-speed drift hits both sides of a pair alike and the
//! pair runs the same ops on the same state. A repetition's overhead is
//! the median over its slices of the paired slowdown: CPU steal on a
//! small shared host stalls a few slices by tens of percent, and the
//! median over slices ignores them.
//!
//! The acceptance gate is on the **median over the `REPS` repetitions**
//! (reported with its IQR and count, from `casper_loadgen::stats`):
//! tracing at the default rate must cost at most 5% of combined
//! (update + cloak + query) throughput. One repetition, or one run's
//! single estimate, can read several percent either side of the truth on
//! host noise alone. Results land in `BENCH_trace_overhead.json`.

use std::fmt::Write as _;
use std::time::Instant;

use casper_core::{Casper, Engine, Request, Response, ShardedAnonymizer};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use casper_index::ObjectId;
use casper_loadgen::stats::{percentile, Summary};

const USERS: u64 = 10_000;
const TARGETS: u64 = 2_000;
const OPS: usize = 60_000;
const CHUNK: usize = 500;
const REPS: usize = 21;
const GATE_PCT: f64 = 5.0;

fn build_engine() -> Casper<ShardedAnonymizer> {
    let mut engine = Casper::new(ShardedAnonymizer::new(8, 2));
    let side = (TARGETS as f64).sqrt().ceil() as u64;
    engine.load_targets((0..TARGETS).map(|i| {
        (
            ObjectId(i),
            Point::new(
                (i % side) as f64 / side as f64 + 0.025,
                (i / side) as f64 / side as f64 + 0.025,
            ),
        )
    }));
    let uside = (USERS as f64).sqrt().ceil() as u64;
    for uid in 0..USERS {
        engine.execute(Request::Register {
            uid: UserId(uid),
            profile: Profile::new(2, 0.0),
            pos: Point::new(
                (uid % uside) as f64 / uside as f64 + 0.01,
                (uid / uside) as f64 / uside as f64 + 0.01,
            ),
        });
    }
    engine
}

/// One arm: an engine and its position in the shared op sequence.
struct Arm {
    engine: Casper<ShardedAnonymizer>,
    sample_rate: u64,
    lcg: u64,
    op: usize,
}

impl Arm {
    fn new(sample_rate: u64) -> Self {
        Self {
            engine: build_engine(),
            sample_rate,
            lcg: 0,
            op: 0,
        }
    }

    /// Back to the first op of the sequence.
    fn rewind(&mut self) {
        (self.lcg, self.op) = (0x5EED, 0);
    }

    /// The next `CHUNK` inline requests (update/cloak/query mix) at this
    /// arm's head-sampling rate; returns their wall time in seconds.
    fn run_slice(&mut self) -> f64 {
        casper_telemetry::spans().set_sample_rate(self.sample_rate);
        let t = Instant::now();
        for _ in 0..CHUNK {
            self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = self.lcg;
            let uid = UserId(n % USERS);
            let req = match self.op % 4 {
                0 => Request::Cloak { uid },
                1 => Request::QueryNn {
                    uid,
                    filters: None,
                    category: None,
                },
                _ => Request::UpdateLocation {
                    uid,
                    pos: Point::new((n % 97) as f64 / 97.0, (n % 89) as f64 / 89.0),
                },
            };
            let resp = self.engine.execute(req);
            assert!(
                !matches!(resp, Response::Unsupported(_)),
                "workload request rejected"
            );
            self.op += 1;
        }
        t.elapsed().as_secs_f64()
    }
}

/// One repetition: both arms through the whole sequence, slice by
/// slice, alternating which arm runs a slice first. Returns each arm's
/// slice times, in slice order.
fn run_rep(on: &mut Arm, off: &mut Arm, rep: usize) -> (Vec<f64>, Vec<f64>) {
    on.rewind();
    off.rewind();
    let mut times = (
        Vec::with_capacity(OPS / CHUNK),
        Vec::with_capacity(OPS / CHUNK),
    );
    for slice in 0..OPS / CHUNK {
        if (rep + slice).is_multiple_of(2) {
            times.0.push(on.run_slice());
            times.1.push(off.run_slice());
        } else {
            times.1.push(off.run_slice());
            times.0.push(on.run_slice());
        }
    }
    times
}

/// One repetition's overhead in percent: the median over slices of
/// the enabled arm's slowdown against the disabled arm on the same ops.
fn paired_overhead_pct(on: &[f64], off: &[f64]) -> f64 {
    let mut speed: Vec<f64> = on.iter().zip(off).map(|(on, off)| off / on).collect();
    speed.sort_by(f64::total_cmp);
    100.0 * (1.0 - percentile(&speed, 0.5))
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rate = casper_telemetry::DEFAULT_SAMPLE_RATE;
    println!("=== span tracing overhead: sample rate {rate} vs off ===");
    println!("host cpus: {host_cpus}; users: {USERS}; ops/pass: {OPS}");

    let (mut on_arm, mut off_arm) = (Arm::new(rate), Arm::new(0));
    // Warm both arms: fault in lazy state before timing anything.
    run_rep(&mut on_arm, &mut off_arm, 0);

    let mut overheads = Vec::with_capacity(REPS);
    let (mut on_rates, mut off_rates) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        let (on, off) = run_rep(&mut on_arm, &mut off_arm, rep);
        let overhead = paired_overhead_pct(&on, &off);
        on_rates.push(OPS as f64 / on.iter().sum::<f64>());
        off_rates.push(OPS as f64 / off.iter().sum::<f64>());
        println!(
            "rep {rep}: enabled {:9.0} ops/s | disabled {:9.0} ops/s | overhead {overhead:+.2}%",
            on_rates[rep], off_rates[rep],
        );
        overheads.push(overhead);
    }
    casper_telemetry::spans().set_sample_rate(rate);

    let overhead = Summary::of(&overheads);
    let (enabled, disabled) = (
        Summary::of(&on_rates).median,
        Summary::of(&off_rates).median,
    );
    let pass = overhead.median <= GATE_PCT;
    println!(
        "overhead over {} reps: median {:+.2}% (IQR {:.2}) | enabled {enabled:9.0} ops/s | \
         disabled {disabled:9.0} ops/s (medians) | gate: median <= {GATE_PCT:.1}%",
        overhead.n, overhead.median, overhead.iqr,
    );
    let (started, kept, discarded, _) = casper_telemetry::spans().stats();
    println!("span store: {started} traces started, {kept} kept, {discarded} discarded");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema_version\": {},\n  \"bench\": \"trace_overhead\",\n  \
         \"host_cpus\": {host_cpus},\n  \"users\": {USERS},\n  \
         \"ops_per_pass\": {OPS},\n  \"reps\": {REPS},\n  \"sample_rate\": {rate},\n  \
         \"enabled_ops_per_sec\": {enabled:.1},\n  \
         \"disabled_ops_per_sec\": {disabled:.1},\n  \
         \"overhead_pct\": {{ \"median\": {:.2}, \"iqr\": {:.2}, \"n\": {} }},\n  \
         \"gate_pct\": {GATE_PCT:.1},\n  \"pass\": {pass}\n}}\n",
        casper_bench::SCHEMA_VERSION_V2,
        overhead.median,
        overhead.iqr,
        overhead.n,
    );
    std::fs::write("BENCH_trace_overhead.json", &json).expect("write BENCH_trace_overhead.json");
    println!("wrote BENCH_trace_overhead.json");
}
