//! Goodput under overload: load shedding on vs off.
//!
//! ```text
//! cargo run --release -p casper-bench --bin overload
//! ```
//!
//! A fixed engine (sharded anonymizer + admission control) is driven by
//! closed-loop flooder threads at multiples of its measured capacity:
//! 1×, 2×, 4× and 10× the thread count that saturates the worker pool.
//! Each point is run twice — once with the admission gates installed
//! (shedding on) and once on a bare engine (shedding off) — and a
//! sequential probe thread samples the latency of *admitted* snapshot
//! queries throughout.
//!
//! The headline number is `goodput_ratio_at_4x`: goodput with shedding
//! at 4× offered load divided by the unloaded capacity. The CI gate
//! requires ≥ 0.70 — under overload the engine must keep doing at least
//! 70% of the useful work it does when healthy, shedding the excess
//! explicitly instead of letting queues stretch every response.
//!
//! Results land in `BENCH_overload.json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use casper_core::overload::{Deadline, OverloadConfig};
use casper_core::{ParallelEngine, Request, Response, ShardedAnonymizer};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use casper_index::ObjectId;

const USERS: u64 = 512;
const TARGETS: u64 = 400;
const WORKERS: usize = 4;
const BATCH: usize = 8;
const POINT_MS: u64 = 400;
const DEADLINE_MS: u64 = 50;
const MULTIPLIERS: [usize; 4] = [1, 2, 4, 10];

fn build_engine(shed_on: bool) -> ParallelEngine<ShardedAnonymizer> {
    let engine = ParallelEngine::sharded(8, 2, WORKERS);
    let engine = if shed_on {
        engine.with_overload(OverloadConfig {
            queue_cap: 64,
            target_sojourn: Duration::from_millis(2),
            codel_interval: Duration::from_millis(20),
            retry_after: Duration::from_millis(2),
            ..OverloadConfig::default()
        })
    } else {
        engine
    };
    let side = 20u64;
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
        engine.submit(Request::Register {
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

struct LoadPoint {
    offered_x: usize,
    goodput: f64,
    shed: u64,
    p99_ms: f64,
}

fn p99_ms(samples: &mut [Duration]) -> f64 {
    if samples.is_empty() {
        // Sentinel instead of NaN: NaN is not valid JSON.
        return -1.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)].as_secs_f64() * 1e3
}

/// Drives `multiplier × WORKERS` flooder threads plus one sequential
/// probe for `POINT_MS`, returning admitted ops/sec and admitted p99.
fn run_point(engine: &ParallelEngine<ShardedAnonymizer>, multiplier: usize) -> LoadPoint {
    let stop = AtomicBool::new(false);
    let mut admitted_total = 0u64;
    let mut shed_total = 0u64;
    let mut probe_lat: Vec<Duration> = Vec::new();
    let wall = Instant::now();
    std::thread::scope(|s| {
        let mut flooders = Vec::new();
        for t in 0..multiplier * WORKERS {
            let stop = &stop;
            flooders.push(s.spawn(move || {
                let (mut admitted, mut shed) = (0u64, 0u64);
                let mut n = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<(Request, Deadline)> = (0..BATCH)
                        .map(|i| {
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
                            (req, Deadline::within(Duration::from_millis(DEADLINE_MS)))
                        })
                        .collect();
                    // Honor the retry-after contract: a shed reply means
                    // back off before offering more. Ignoring it turns a
                    // load test into a retry storm that starves the
                    // workers of CPU — the very failure mode shedding
                    // exists to prevent.
                    let mut backoff = Duration::ZERO;
                    for resp in engine.execute_batch_with_deadline(batch) {
                        match resp {
                            Response::Overloaded { retry_after } => {
                                shed += 1;
                                backoff = backoff.max(retry_after);
                            }
                            _ => admitted += 1,
                        }
                    }
                    if backoff > Duration::ZERO {
                        // Jitter the backoff per flooder: synchronized
                        // sleeps would drain the queues in lockstep and
                        // leave the workers idling between waves.
                        n = n.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let frac = 0.5 + (n >> 33) as f64 / (1u64 << 31) as f64;
                        std::thread::sleep(backoff.mul_f64(frac));
                    }
                }
                (admitted, shed)
            }));
        }
        let probe = s.spawn(|| {
            let mut lat = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let resp = engine.execute_with_deadline(
                    Request::QueryNn {
                        uid: UserId((i * 11) % USERS),
                        filters: None,
                        category: None,
                    },
                    Deadline::within(Duration::from_millis(DEADLINE_MS)),
                );
                match resp {
                    Response::Overloaded { retry_after } => std::thread::sleep(retry_after),
                    _ => lat.push(t0.elapsed()),
                }
                i += 1;
            }
            lat
        });
        std::thread::sleep(Duration::from_millis(POINT_MS));
        stop.store(true, Ordering::Relaxed);
        for f in flooders {
            let (a, sh) = f.join().expect("flooder panicked");
            admitted_total += a;
            shed_total += sh;
        }
        probe_lat = probe.join().expect("probe panicked");
    });
    let elapsed = wall.elapsed().as_secs_f64();
    LoadPoint {
        offered_x: multiplier,
        goodput: admitted_total as f64 / elapsed,
        shed: shed_total,
        p99_ms: p99_ms(&mut probe_lat),
    }
}

/// Runs a point `REPS` times and keeps the run with the median goodput:
/// a two-core CI box schedules flooders and workers noisily, and the
/// gate ratio must not flake on one unlucky 400 ms window.
fn run_point_median(engine: &ParallelEngine<ShardedAnonymizer>, multiplier: usize) -> LoadPoint {
    const REPS: usize = 3;
    let mut runs: Vec<LoadPoint> = (0..REPS).map(|_| run_point(engine, multiplier)).collect();
    runs.sort_by(|a, b| a.goodput.total_cmp(&b.goodput));
    runs.swap_remove(REPS / 2)
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== overload: goodput with shedding on vs off ===");
    println!("host cpus: {host_cpus}; workers: {WORKERS}; users: {USERS}; point: {POINT_MS} ms");

    let engine_on = build_engine(true);
    let engine_off = build_engine(false);
    // Warmup: fault in lazy state and steady the thermals before timing.
    run_point(&engine_on, 1);
    run_point(&engine_off, 1);

    let mut points_on = Vec::new();
    let mut points_off = Vec::new();
    for &m in &MULTIPLIERS {
        let on = run_point_median(&engine_on, m);
        let off = run_point_median(&engine_off, m);
        println!(
            "{m:>2}x offered | shed on: {:9.0} ops/s (p99 {:7.2} ms, shed {:7}) | \
             shed off: {:9.0} ops/s (p99 {:7.2} ms)",
            on.goodput, on.p99_ms, on.shed, off.goodput, off.p99_ms
        );
        points_on.push(on);
        points_off.push(off);
    }

    // Capacity: the healthy (1×, gates installed) goodput.
    let capacity = points_on[0].goodput;
    println!("capacity (1x median, shed on): {capacity:9.0} ops/s");

    let at_4x = points_on
        .iter()
        .find(|p| p.offered_x == 4)
        .expect("4x point present");
    let goodput_ratio_at_4x = at_4x.goodput / capacity;
    println!("goodput_ratio_at_4x: {goodput_ratio_at_4x:.3} (gate: >= 0.70)");
    if let Some(stats) = engine_on.overload_stats() {
        println!("overload stats (shed on engine): {stats:?}");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema_version\": {},\n  \"bench\": \"overload\",\n  \"host_cpus\": {host_cpus},\n  \
         \"workers\": {WORKERS},\n  \"users\": {USERS},\n  \"targets\": {TARGETS},\n  \
         \"capacity_ops_per_sec\": {capacity:.1},\n  \"points\": [",
        casper_bench::SCHEMA_VERSION,
    );
    for (i, (on, off)) in points_on.iter().zip(&points_off).enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"offered_x\": {}, \"goodput_shed_on\": {:.1}, \
             \"p99_ms_shed_on\": {:.3}, \"shed_count\": {}, \
             \"goodput_shed_off\": {:.1}, \"p99_ms_shed_off\": {:.3}}}",
            if i == 0 { "" } else { "," },
            on.offered_x,
            on.goodput,
            on.p99_ms,
            on.shed,
            off.goodput,
            off.p99_ms
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"goodput_ratio_at_4x\": {goodput_ratio_at_4x:.4}\n}}\n"
    );
    std::fs::write("BENCH_overload.json", &json).expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json");

    // Dump the cloaking audit log so the privacy auditor (CI, or
    // `--bin privacy_audit`) can prove post hoc that no shed mode ever
    // served a (k, A_min)-violating region.
    let audit = casper_telemetry::audit();
    std::fs::write("AUDIT_overload.jsonl", audit.render_jsonl())
        .expect("write AUDIT_overload.jsonl");
    let report = casper_telemetry::PrivacyAuditor::audit(&audit.dump());
    print!("{report}");
    println!("wrote AUDIT_overload.jsonl ({} records)", audit.len());
    assert!(
        report.is_clean(),
        "overload run served a privacy-violating region"
    );
}
