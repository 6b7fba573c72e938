//! Overload on the wire path: does refusing expired work cost goodput?
//!
//! ```text
//! cargo run --release -p casper-bench --bin overload
//! ```
//!
//! Assembles the real stack with `casper_loadgen`'s [`Stack`] — a
//! sharded trusted tier, a `NetworkServer` on loopback TCP, one
//! `NetworkClient` per driver — and drives it with `casper_loadgen`'s
//! open-loop [`driver`]: an 80 % update / 20 % query stream over the
//! seeded mobile population. It first measures the stack's closed-loop
//! capacity, then offers 1×, 2× and 4× that capacity open loop. Latency
//! runs from each operation's *due* time, so a backlog charges every
//! operation queued behind it.
//!
//! Each load runs twice, alternating which goes first: once with budgets
//! (`ClientConfig::request_budget` set to [`BUDGET`], and each
//! operation's deadline pinned at its due time plus the budget, as the
//! pipeline pins it when a request arrives), so the client fails late
//! work fast before the socket and the server refuses expired frames;
//! and once without. Goodput counts the operations answered, and their
//! answers checked, within [`BUDGET`] of their due time, per second of
//! the window.
//!
//! The gate: at every offered load, goodput with budgets is at least
//! [`GATE_RATIO`] × goodput without them. Refusing work must never cost
//! more answers in time than it saves. A load at which *both* arms
//! deliver less than [`COLLAPSE_SHARE`] of what was offered has no
//! goodput left to lose; it is reported `collapsed` and its ratio, a
//! quotient of two small transients, is not gated. The 1× load must not
//! collapse. Results land in `BENCH_overload.json` with
//! `{median, iqr, n}` over [`REPS`] runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use casper_core::{CasperClient, ClientConfig, NetworkClient, PrivateHandle};
use casper_geometry::Rect;
use casper_grid::UserId;
use casper_loadgen::driver::{self, PhaseClock, PhaseLimits, QueryDone, Target, UpdatesDone};
use casper_loadgen::stack::{self, handle_of, Stack, TrustedTier};
use casper_loadgen::stats::{percentile, Summary};
use casper_loadgen::workload::{
    Op, OpSource, Pacing, PhaseStream, Population, Scale, Tier, WorkloadSpec, DRIVERS,
    PIPELINE_WINDOW,
};

/// The workload: the mixed stream of `mixed_durable`, durability off, so
/// the wire path and the plane are what saturates.
const SPEC: WorkloadSpec = WorkloadSpec {
    name: "overload",
    why: "80% updates / 20% queries, durability off, cache on: the wire path under overload",
    query_share: 0.2,
    tier: Tier::Sharded,
    cache: true,
    // Unused: every phase here is paced from the measured capacity.
    rate_ops_s: 0.0,
};
/// Seed of the population and the operation stream.
const SEED: u64 = 7;
/// Every operation's end-to-end budget, from its due time.
const BUDGET: Duration = Duration::from_millis(50);
/// Offered loads, as multiples of the measured capacity.
const LOADS: [f64; 3] = [1.0, 2.0, 4.0];
/// Length of each measured window.
const WINDOW: Duration = Duration::from_secs(2);
/// Repetitions of every (load, arm) pair.
const REPS: usize = 5;
/// Goodput with budgets over goodput without, at every load.
const GATE_RATIO: f64 = 0.9;
/// Share of the offered load below which an arm's goodput has collapsed.
const COLLAPSE_SHARE: f64 = 0.05;
/// Operations the closed-loop capacity phase may use up.
const CAPACITY_STREAM_OPS: usize = 1_000_000;

/// One driver's half of the stack, called the way `RemoteCasper`'s
/// pipeline calls it: trusted-tier mutation and cloak, then the wire.
struct WireTarget<'a> {
    tier: &'a TrustedTier,
    population: &'a Population,
    client: NetworkClient,
    start: Instant,
    budget: Option<Duration>,
    next_pseudonym: u64,
    window: Vec<(PrivateHandle, Rect)>,
}

impl WireTarget<'_> {
    /// Pins the deadline of an operation due at `due_ns`.
    fn arm(&mut self, due_ns: u64) {
        if let Some(budget) = self.budget {
            let due = self.start + Duration::from_nanos(due_ns);
            self.client.set_deadline(Some(due + budget));
        }
    }
}

impl Target for WireTarget<'_> {
    fn updates(&mut self, ops: &[Op], _first: u32, clock: &PhaseClock) -> UpdatesDone {
        self.arm(ops[0].due_ns);
        let mut failed = 0u32;
        self.window.clear();
        for (i, op) in ops.iter().enumerate() {
            let uid = UserId(u64::from(op.uid));
            let cloak = match self.tier.update(uid, op.pos) {
                Ok(_) => self.tier.cloak(uid),
                Err(_) => None,
            };
            match cloak {
                Some(region) => self.window.push((handle_of(op.uid), region.rect)),
                None => failed |= 1 << i,
            }
        }
        if self.client.push_updates(&self.window).is_err() {
            failed = u32::MAX >> (32 - ops.len());
        }
        UpdatesDone {
            done_ns: clock.now_ns(),
            failed,
        }
    }

    fn query(&mut self, op: &Op, _index: u32, clock: &PhaseClock) -> QueryDone {
        self.arm(op.due_ns);
        let uid = UserId(u64::from(op.uid));
        self.next_pseudonym += 1;
        let entries = self
            .tier
            .cloak(uid)
            .and_then(|region| self.client.query_nn(self.next_pseudonym, region.rect).ok());
        let done_ns = clock.now_ns();
        let pos = self.tier.service().position_of(uid);
        let ok = match (&entries, pos) {
            (Some(entries), Some(pos)) => {
                let nearest = self.population.targets.iter().map(|t| t.dist(pos));
                let best = nearest.fold(f64::INFINITY, f64::min);
                CasperClient::new()
                    .refine_nn_entries(pos, entries)
                    .is_some_and(|e| (e.mbr.min.dist(pos) - best).abs() < 1e-9)
            }
            _ => false,
        };
        QueryDone {
            done_ns,
            ok,
            candidates: entries.map_or(0, |e| e.len() as u32),
        }
    }
}

/// What one phase of both drivers did.
struct Phase {
    /// `(latency from due, ok)` of every executed operation.
    ops: Vec<(f64, bool)>,
    /// Latest completion, ns after the phase start.
    last_done_ns: u64,
}

/// Replays `stream` against `stack` with fresh connections carrying
/// `budget`, both drivers at once.
fn run_phase(
    stack: &Stack,
    population: &Population,
    stream: &PhaseStream,
    limits: PhaseLimits,
    budget: Option<Duration>,
) -> Phase {
    let config = ClientConfig {
        request_budget: budget,
        ..stack::client_config()
    };
    let start = Instant::now() + Duration::from_millis(20);
    let clock = PhaseClock::starting_at(start);
    let logs: Vec<driver::PhaseLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .per_driver
            .iter()
            .enumerate()
            .map(|(d, ops)| {
                let mut target = WireTarget {
                    tier: &stack.tier,
                    population,
                    client: NetworkClient::with_config(stack.server.addr(), config),
                    start,
                    budget,
                    next_pseudonym: (d as u64) << 48,
                    window: Vec::with_capacity(PIPELINE_WINDOW),
                };
                scope.spawn(move || {
                    clock.sleep_until(0);
                    driver::drive(ops, limits, &mut target, &clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        ops: Vec::new(),
        last_done_ns: 0,
    };
    for log in logs {
        for r in log.records {
            phase.last_done_ns = phase.last_done_ns.max(r.done_ns);
            phase.ops.push((r.latency_ms(), r.ok));
        }
    }
    phase
}

/// One open-loop run at `rate_ops_s`: goodput and the p99 latency from
/// due time of the answered operations.
fn open_loop(
    stack: &Stack,
    population: &Population,
    source: &mut OpSource<'_>,
    rate_ops_s: f64,
    budget: Option<Duration>,
) -> (f64, f64) {
    let count = (rate_ops_s * WINDOW.as_secs_f64()).round() as usize;
    let stream = PhaseStream::take(source, count, Pacing::Open { rate_ops_s });
    let limits = PhaseLimits {
        window_ns: WINDOW.as_nanos() as u64,
        slices: 10,
        closed: false,
        // Whatever starts later than this is past its budget already.
        grace_ns: BUDGET.as_nanos() as u64,
    };
    let phase = run_phase(stack, population, &stream, limits, budget);
    let budget_ms = BUDGET.as_secs_f64() * 1e3;
    let good = phase
        .ops
        .iter()
        .filter(|&&(ms, ok)| ok && ms <= budget_ms)
        .count();
    let mut answered: Vec<f64> = phase.ops.iter().filter(|op| op.1).map(|op| op.0).collect();
    answered.sort_by(f64::total_cmp);
    (
        good as f64 / WINDOW.as_secs_f64(),
        percentile(&answered, 0.99),
    )
}

fn summary_json(s: Summary) -> String {
    format!(
        "{{\"median\": {:.1}, \"iqr\": {:.1}, \"n\": {}}}",
        s.median, s.iqr, s.n
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scale = Scale::FULL;
    println!("=== wire-path overload: goodput with and without budgets ===");
    println!(
        "host cpus: {host_cpus}; users: {}; drivers: {DRIVERS}; budget: {BUDGET:?}; window: {WINDOW:?}",
        scale.users
    );
    let population = Population::build(scale, SEED);
    let stack = Stack::assemble(&SPEC, &population);
    assert_eq!(stack.setup_violations, 0, "set-up served a weak cloak");
    let mut source = OpSource::new(&population, &SPEC, SEED);

    // Closed-loop capacity, measured once per repetition.
    let capacities: Vec<f64> = (0..REPS)
        .map(|_| {
            let stream = PhaseStream::take(&mut source, CAPACITY_STREAM_OPS, Pacing::Closed);
            let limits = PhaseLimits {
                window_ns: WINDOW.as_nanos() as u64,
                slices: 10,
                closed: true,
                grace_ns: 0,
            };
            let phase = run_phase(&stack, &population, &stream, limits, None);
            assert!(phase.ops.iter().all(|op| op.1), "a closed-loop op failed");
            let elapsed_s = (phase.last_done_ns as f64 / 1e9).max(1e-3);
            phase.ops.len() as f64 / elapsed_s
        })
        .collect();
    let capacity = Summary::of(&capacities);
    println!(
        "capacity: {:.0} ops/s (iqr {:.0}, n {})",
        capacity.median, capacity.iqr, capacity.n
    );

    let mut points = Vec::new();
    let mut pass = true;
    for factor in LOADS {
        let rate = factor * capacity.median;
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let (mut p99_on, mut p99_off) = (Vec::new(), Vec::new());
        for rep in 0..REPS {
            // Alternate which arm runs first, so drift of the host's speed
            // hits both arms alike.
            for budgeted in [rep % 2 == 0, rep % 2 != 0] {
                let budget = budgeted.then_some(BUDGET);
                let (good, p99) = open_loop(&stack, &population, &mut source, rate, budget);
                if budgeted {
                    on.push(good);
                    p99_on.push(p99);
                } else {
                    off.push(good);
                    p99_off.push(p99);
                }
            }
        }
        let (on, off) = (Summary::of(&on), Summary::of(&off));
        let ratio = on.median / off.median.max(1.0);
        let floor = COLLAPSE_SHARE * rate;
        let collapsed = on.median < floor && off.median < floor;
        let ok = if factor == 1.0 {
            !collapsed && ratio >= GATE_RATIO
        } else {
            collapsed || ratio >= GATE_RATIO
        };
        pass &= ok;
        let (p99_on, p99_off) = (Summary::of(&p99_on), Summary::of(&p99_off));
        println!(
            "{factor}x ({rate:.0} ops/s offered): goodput with budgets {:.0}/s, without {:.0}/s \
             (ratio {ratio:.2}{}); answered p99 {:.1} ms vs {:.1} ms: {}",
            on.median,
            off.median,
            if collapsed { ", both collapsed" } else { "" },
            p99_on.median,
            p99_off.median,
            if ok { "ok" } else { "FAIL" },
        );
        points.push(format!(
            "    {{\"offered_x\": {factor}, \"offered_ops_s\": {rate:.1}, \
             \"goodput_budget_ops_s\": {}, \"goodput_no_budget_ops_s\": {}, \
             \"ratio\": {ratio:.4}, \"collapsed\": {collapsed}, \
             \"answered_p99_ms_budget\": {:.3}, \"answered_p99_ms_no_budget\": {:.3}}}",
            summary_json(on),
            summary_json(off),
            p99_on.median,
            p99_off.median
        ));
    }
    stack.shutdown();

    println!("gate (ratio >= {GATE_RATIO} at every load that did not collapse): {pass}");
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema_version\": {},\n  \"bench\": \"overload\",\n  \
         \"host_cpus\": {host_cpus},\n  \"users\": {},\n  \"targets\": {},\n  \
         \"query_share\": {},\n  \"drivers\": {DRIVERS},\n  \"budget_ms\": {},\n  \
         \"window_s\": {},\n  \"reps\": {REPS},\n  \"capacity_ops_s\": {},\n  \
         \"points\": [\n{}\n  ],\n  \"gate_ratio\": {GATE_RATIO},\n  \
         \"collapse_share\": {COLLAPSE_SHARE},\n  \"pass\": {pass}\n}}\n",
        casper_bench::SCHEMA_VERSION,
        scale.users,
        scale.targets,
        SPEC.query_share,
        BUDGET.as_millis(),
        WINDOW.as_secs(),
        summary_json(capacity),
        points.join(",\n"),
    );
    std::fs::write("BENCH_overload.json", &json).expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json");
}
