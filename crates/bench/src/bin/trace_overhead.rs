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
//! `RemoteCasper`. Passes alternate enabled/disabled
//! within each repetition so thermal or scheduler drift hits both arms
//! equally, and every pass replays the *identical* op sequence (same
//! LCG seed), so slice `s` of an enabled pass runs the same ops as
//! slice `s` of a disabled pass. Each pass is timed in `CHUNK`-op
//! slices; for every slice index each arm keeps its *lower quartile*
//! time across `REPS` repetitions, and the overhead compares the summed
//! quartiles. Paired low quantiles rather than a whole-pass median: on
//! a small shared host, CPU steal stalls runs by tens of percent and
//! can dominate even a median-of-passes — but steal only ever slows a
//! slice down, so a low quantile over `REPS` tries of a ~2ms slice is a
//! near-steal-free estimate, and (unlike the per-slice *minimum*, an
//! extreme-value statistic) it is stable run to run. Pairing by slice
//! index cancels workload heterogeneity (slices hit different users and
//! pyramid depths) that would otherwise drown the signal.
//!
//! The acceptance gate is `overhead_pct <= 5.0`: tracing at the default
//! rate must cost at most 5% of combined (update + cloak + query)
//! throughput. Results land in `BENCH_trace_overhead.json`.

use std::fmt::Write as _;
use std::time::Instant;

use casper_core::{Casper, Engine, Request, Response, ShardedAnonymizer};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use casper_index::ObjectId;

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

/// One pass of `OPS` inline requests (update/cloak/query mix) at the
/// given head-sampling rate, timed per `CHUNK`-op slice. Returns each
/// slice's wall time in seconds, in slice order (deterministic: every
/// pass replays the same op sequence).
fn run_pass(engine: &mut Casper<ShardedAnonymizer>, sample_rate: u64) -> Vec<f64> {
    casper_telemetry::spans().set_sample_rate(sample_rate);
    let mut n = 0x5EED_u64;
    let mut i = 0usize;
    let mut slices = Vec::with_capacity(OPS / CHUNK);
    while i < OPS {
        let t = Instant::now();
        for _ in 0..CHUNK {
            n = n.wrapping_mul(6364136223846793005).wrapping_add(1);
            let uid = UserId(n % USERS);
            let req = match i % 4 {
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
            let resp = engine.execute(req);
            assert!(
                !matches!(resp, Response::Unsupported(_)),
                "workload request rejected"
            );
            i += 1;
        }
        slices.push(t.elapsed().as_secs_f64());
    }
    slices
}

/// Per-slice lower-quartile time across reps: `samples[s]` holds every
/// rep's time for slice `s`.
fn slice_quartiles(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .map(|reps| {
            let mut reps = reps.clone();
            reps.sort_by(f64::total_cmp);
            reps[reps.len() / 4]
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rate = casper_telemetry::DEFAULT_SAMPLE_RATE;
    println!("=== span tracing overhead: sample rate {rate} vs off ===");
    println!("host cpus: {host_cpus}; users: {USERS}; ops/pass: {OPS}");

    let mut engine = build_engine();
    // Warmup both arms: fault in lazy state before timing anything.
    run_pass(&mut engine, rate);
    run_pass(&mut engine, 0);

    let slices = OPS / CHUNK;
    let mut enabled: Vec<Vec<f64>> = (0..slices).map(|_| Vec::with_capacity(REPS)).collect();
    let mut disabled: Vec<Vec<f64>> = (0..slices).map(|_| Vec::with_capacity(REPS)).collect();
    let mut rep_ratios = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        // ABBA: alternate which arm goes first so slow host-speed drift
        // (frequency scaling, neighbour load) cancels across reps.
        let (on, off) = if rep % 2 == 0 {
            let on = run_pass(&mut engine, rate);
            (on, run_pass(&mut engine, 0))
        } else {
            let off = run_pass(&mut engine, 0);
            (run_pass(&mut engine, rate), off)
        };
        let (on_t, off_t) = (on.iter().sum::<f64>(), off.iter().sum::<f64>());
        println!(
            "rep {rep}: enabled {:9.0} ops/s | disabled {:9.0} ops/s (whole pass)",
            OPS as f64 / on_t,
            OPS as f64 / off_t,
        );
        rep_ratios.push(on_t / off_t);
        for (s, t) in on.into_iter().enumerate() {
            enabled[s].push(t);
        }
        for (s, t) in off.into_iter().enumerate() {
            disabled[s].push(t);
        }
    }
    casper_telemetry::spans().set_sample_rate(rate);

    let enabled_best = OPS as f64 / slice_quartiles(&enabled).iter().sum::<f64>();
    let disabled_best = OPS as f64 / slice_quartiles(&disabled).iter().sum::<f64>();
    let overhead_pct = 100.0 * (1.0 - enabled_best / disabled_best);
    let pass = overhead_pct <= GATE_PCT;
    println!(
        "median whole-pass ratio: overhead {:+.2}%",
        100.0 * (median(rep_ratios) - 1.0)
    );
    println!(
        "paired slice quartiles: enabled {enabled_best:9.0} ops/s | \
         disabled {disabled_best:9.0} ops/s | \
         overhead {overhead_pct:+.2}% (gate: <= {GATE_PCT:.1}%)"
    );
    let (started, kept, discarded, _) = casper_telemetry::spans().stats();
    println!("span store: {started} traces started, {kept} kept, {discarded} discarded");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema_version\": {},\n  \"bench\": \"trace_overhead\",\n  \
         \"host_cpus\": {host_cpus},\n  \"users\": {USERS},\n  \
         \"ops_per_pass\": {OPS},\n  \"reps\": {REPS},\n  \"sample_rate\": {rate},\n  \
         \"enabled_ops_per_sec\": {enabled_best:.1},\n  \
         \"disabled_ops_per_sec\": {disabled_best:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"gate_pct\": {GATE_PCT:.1},\n  \
         \"pass\": {pass}\n}}\n",
        casper_bench::SCHEMA_VERSION,
    );
    std::fs::write("BENCH_trace_overhead.json", &json).expect("write BENCH_trace_overhead.json");
    println!("wrote BENCH_trace_overhead.json");
}
