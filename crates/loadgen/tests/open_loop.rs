//! The timing rules of the load generator, proved against a stub target:
//! latency runs from the due time, so a stall charges everything queued
//! behind it; a driver that is behind fills pipeline windows; a closed
//! loop stops at its window; an open loop gives up after its grace.

use std::time::{Duration, Instant};

use casper_geometry::Point;
use casper_loadgen::driver::{drive, PhaseClock, PhaseLimits, QueryDone, Target, UpdatesDone};
use casper_loadgen::workload::{Op, OpKind, PIPELINE_WINDOW};

const MS: u64 = 1_000_000;

/// A target whose every call takes `service`, except that call number
/// `stall_at` takes `stall` on top. Records what it was asked to do.
struct Stub {
    service: Duration,
    stall_at: Option<usize>,
    stall: Duration,
    calls: usize,
    /// Wall time of every call, as a closed-loop harness would see it.
    service_ms: Vec<f64>,
    /// Length of every update window.
    windows: Vec<usize>,
}

impl Stub {
    fn new(service: Duration) -> Self {
        Self {
            service,
            stall_at: None,
            stall: Duration::ZERO,
            calls: 0,
            service_ms: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn serve(&mut self, clock: &PhaseClock) -> u64 {
        let start = Instant::now();
        std::thread::sleep(self.service);
        if self.stall_at == Some(self.calls) {
            std::thread::sleep(self.stall);
        }
        self.calls += 1;
        self.service_ms.push(start.elapsed().as_secs_f64() * 1e3);
        clock.now_ns()
    }
}

impl Target for Stub {
    fn updates(&mut self, ops: &[Op], _first: u32, clock: &PhaseClock) -> UpdatesDone {
        self.windows.push(ops.len());
        UpdatesDone {
            done_ns: self.serve(clock),
            failed: 0,
        }
    }

    fn query(&mut self, _op: &Op, _index: u32, clock: &PhaseClock) -> QueryDone {
        QueryDone {
            done_ns: self.serve(clock),
            ok: true,
            candidates: 1,
        }
    }
}

fn stream(kinds: impl IntoIterator<Item = OpKind>, spacing_ns: u64) -> Vec<Op> {
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Op {
            due_ns: i as u64 * spacing_ns,
            uid: i as u32,
            kind,
            pos: Point::new(0.5, 0.5),
        })
        .collect()
}

fn open(window_ms: u64) -> PhaseLimits {
    PhaseLimits {
        window_ns: window_ms * MS,
        slices: 10,
        closed: false,
        grace_ns: 1000 * MS,
    }
}

#[test]
fn a_stall_charges_every_operation_queued_behind_it() {
    // One query every 2 ms for 400 ms; each takes 0.2 ms, except that
    // the 50th call stalls for 50 ms.
    let ops = stream(std::iter::repeat_n(OpKind::Query, 200), 2 * MS);
    let mut stub = Stub::new(Duration::from_micros(200));
    stub.stall_at = Some(50);
    stub.stall = Duration::from_millis(50);
    let clock = PhaseClock::starting_at(Instant::now());
    let log = drive(&ops, open(400), &mut stub, &clock);

    assert_eq!(log.records.len(), 200);
    assert_eq!(log.not_started, 0);
    // What a closed-loop harness would report: one slow call.
    let slow_calls = stub.service_ms.iter().filter(|&&ms| ms >= 20.0).count();
    assert_eq!(slow_calls, 1, "only the stalled call itself was slow");
    // What the open-loop clock reports: the stalled operation *and* the
    // ones that came due while it was stuck. 50 ms of stall at one
    // arrival per 2 ms queues about 25; those due in its first 30 ms
    // (15 of them) each waited at least 20 ms.
    let late = log
        .records
        .iter()
        .filter(|r| r.latency_ms() >= 20.0)
        .count();
    assert!(
        late >= 12,
        "{late} operations saw the stall, expected >= 12"
    );
    // The operation due 10 ms into the stall waited for the rest of it.
    let behind = &log.records[55];
    assert!(
        behind.latency_ms() >= 35.0,
        "op 55 was due 10 ms into a 50 ms stall but reports {} ms",
        behind.latency_ms()
    );
    // Long before the stall, and once the queue has drained, latency is
    // service time again.
    assert!(log.records[10].latency_ms() < 10.0);
    assert!(log.records[199].latency_ms() < 10.0);
    // The backlog was seen, and the driver never slept late by much.
    assert!(log.backlog_max.iter().any(|&b| b >= 10));
    assert!(!log.sched_lag_ns.is_empty());
}

#[test]
fn a_driver_that_is_behind_fills_windows_but_never_across_a_query() {
    // 100 updates, a query, 10 updates — all due at once.
    let kinds = std::iter::repeat_n(OpKind::Update, 100)
        .chain([OpKind::Query])
        .chain(std::iter::repeat_n(OpKind::Update, 10));
    let ops = stream(kinds, 0);
    let mut stub = Stub::new(Duration::from_micros(100));
    let clock = PhaseClock::starting_at(Instant::now());
    let log = drive(&ops, open(1000), &mut stub, &clock);
    assert_eq!(log.records.len(), 111);
    assert_eq!(
        stub.windows,
        [PIPELINE_WINDOW, PIPELINE_WINDOW, PIPELINE_WINDOW, 4, 10]
    );
    // Every update of a window shares its completion stamp.
    assert!(log.records[..PIPELINE_WINDOW]
        .windows(2)
        .all(|w| w[0].done_ns == w[1].done_ns));
    assert_eq!(log.records[100].kind, OpKind::Query);
}

#[test]
fn a_driver_that_is_ahead_sleeps_and_sends_single_updates() {
    let ops = stream(std::iter::repeat_n(OpKind::Update, 20), 3 * MS);
    let mut stub = Stub::new(Duration::from_micros(100));
    let clock = PhaseClock::starting_at(Instant::now());
    let started = Instant::now();
    let log = drive(&ops, open(60), &mut stub, &clock);
    assert!(
        started.elapsed() >= Duration::from_millis(57),
        "the schedule was kept"
    );
    // (A hiccup of the host longer than the 3 ms spacing may pair two.)
    let singles = stub.windows.iter().filter(|&&w| w == 1).count();
    assert!(singles >= 15, "{:?}", stub.windows);
    assert!(log.records.iter().all(|r| r.done_ns >= r.due_ns));
    assert!(log.sched_lag_ns.len() >= 15);
}

#[test]
fn a_closed_loop_stops_at_its_window_and_an_open_loop_after_its_grace() {
    // Closed: 10 000 queries of 1 ms each cannot finish in 50 ms.
    let ops = stream(std::iter::repeat_n(OpKind::Query, 10_000), 0);
    let mut stub = Stub::new(Duration::from_millis(1));
    let clock = PhaseClock::starting_at(Instant::now());
    let closed = PhaseLimits {
        window_ns: 50 * MS,
        slices: 10,
        closed: true,
        grace_ns: 0,
    };
    let log = drive(&ops, closed, &mut stub, &clock);
    assert!(
        (10..=60).contains(&log.records.len()),
        "{}",
        log.records.len()
    );
    assert_eq!(log.not_started, 0, "a closed loop leaves nothing behind");

    // Open: 100 queries of 5 ms each, all due within 20 ms, 30 ms grace.
    let ops = stream(std::iter::repeat_n(OpKind::Query, 100), MS / 5);
    let mut stub = Stub::new(Duration::from_millis(5));
    let clock = PhaseClock::starting_at(Instant::now());
    let limits = PhaseLimits {
        window_ns: 20 * MS,
        slices: 10,
        closed: false,
        grace_ns: 30 * MS,
    };
    let log = drive(&ops, limits, &mut stub, &clock);
    assert!(log.not_started >= 80, "{} not started", log.not_started);
    assert_eq!(log.records.len() as u64 + log.not_started, 100);
}
