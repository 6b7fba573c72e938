//! The load generator proper: one thread per driver replaying its
//! pre-recorded stream against a [`Target`], open or closed loop.
//!
//! Open loop means the schedule is fixed before the phase starts. An
//! operation's latency runs from the moment it was *due*, not from the
//! moment a driver got round to it, so a stall in the target charges
//! every operation queued behind it (no coordinated omission). A driver
//! that is ahead of schedule sleeps until the next due time and never
//! spins; one that is behind executes everything already due, filling a
//! pipeline window with up to [`PIPELINE_WINDOW`] consecutive updates.

use std::time::{Duration, Instant};

use crate::workload::{Op, OpKind, PIPELINE_WINDOW};

/// Nanoseconds since a phase started, shared by its drivers.
#[derive(Debug, Clone, Copy)]
pub struct PhaseClock {
    start: Instant,
}

impl PhaseClock {
    /// A clock whose zero is `start`.
    pub fn starting_at(start: Instant) -> Self {
        Self { start }
    }

    /// Now, in ns since the phase started (0 before it has).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.start)
            .as_nanos() as u64
    }

    /// Sleeps until `ns` after the phase start.
    pub fn sleep_until(&self, ns: u64) {
        let target = self.start + Duration::from_nanos(ns);
        let left = target.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
    }
}

/// How one window of updates ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatesDone {
    /// Completion stamp shared by the window, ns since phase start.
    pub done_ns: u64,
    /// Bit `i` set = the `i`-th update of the window failed.
    pub failed: u32,
}

/// How one query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryDone {
    /// Completion stamp (before any oracle work), ns since phase start.
    pub done_ns: u64,
    /// Whether the answer arrived and passed every check made on it.
    pub ok: bool,
    /// Length of the candidate list the server shipped.
    pub candidates: u32,
}

/// What a driver drives. The real implementation is the assembled stack
/// (`crate::run::StackTarget`); the self-tests substitute a stub to
/// prove the timing rules.
pub trait Target {
    /// Executes `ops` — between 1 and [`PIPELINE_WINDOW`] consecutive
    /// updates of one driver's stream, `ops[0]` being operation number
    /// `first` of the phase — as one pipelined window.
    fn updates(&mut self, ops: &[Op], first: u32, clock: &PhaseClock) -> UpdatesDone;

    /// Executes one query, operation number `index` of the phase.
    fn query(&mut self, op: &Op, index: u32, clock: &PhaseClock) -> QueryDone;
}

/// One executed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// When it was due, ns since phase start.
    pub due_ns: u64,
    /// When it completed, ns since phase start.
    pub done_ns: u64,
    /// Update or query.
    pub kind: OpKind,
    /// Whether it succeeded and passed its checks.
    pub ok: bool,
    /// Candidate-list length (queries; 0 for updates).
    pub candidates: u32,
}

impl OpRecord {
    /// Due → done, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Everything one driver observed during one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    /// Executed operations, in execution order.
    pub records: Vec<OpRecord>,
    /// How late the driver woke each time it had slept until a due time.
    pub sched_lag_ns: Vec<u64>,
    /// Per slice of the window ([`PhaseLimits::slices`] of them): the
    /// most operations that were due but not yet picked up, seen whenever
    /// the driver looked.
    pub backlog_max: Vec<u32>,
    /// Operations never started because the phase's time ran out.
    pub not_started: u64,
}

/// When and how a phase ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLimits {
    /// Length of the measured window, ns.
    pub window_ns: u64,
    /// Equal slices the window is cut into for [`PhaseLog::backlog_max`].
    pub slices: usize,
    /// Closed loop: stop picking up work once the window has passed.
    /// Open loop: keep going until the stream is done, but give up on
    /// whatever has not been started `grace_ns` after the window.
    pub closed: bool,
    /// Open-loop grace after the window, ns.
    pub grace_ns: u64,
}

/// Replays `ops` (one driver's stream, in due order) against `target`.
pub fn drive<T: Target>(
    ops: &[Op],
    limits: PhaseLimits,
    target: &mut T,
    clock: &PhaseClock,
) -> PhaseLog {
    let mut log = PhaseLog {
        records: Vec::with_capacity(ops.len()),
        backlog_max: vec![0; limits.slices.max(1)],
        ..PhaseLog::default()
    };
    let slice_ns = (limits.window_ns / log.backlog_max.len() as u64).max(1);
    let mut next = 0usize;
    while next < ops.len() {
        let now = clock.now_ns();
        let out_of_time = if limits.closed {
            now >= limits.window_ns
        } else {
            now >= limits.window_ns + limits.grace_ns
        };
        if out_of_time {
            break;
        }
        let due = ops[next].due_ns;
        if due > now {
            clock.sleep_until(due);
            log.sched_lag_ns.push(clock.now_ns().saturating_sub(due));
            continue;
        }
        let due_now = ops[next..].partition_point(|o| o.due_ns <= now);
        let taken = match ops[next].kind {
            OpKind::Query => {
                let done = target.query(&ops[next], next as u32, clock);
                log.records.push(OpRecord {
                    due_ns: due,
                    done_ns: done.done_ns,
                    kind: OpKind::Query,
                    ok: done.ok,
                    candidates: done.candidates,
                });
                1
            }
            OpKind::Update => {
                let run = ops[next..next + due_now.min(PIPELINE_WINDOW)]
                    .iter()
                    .take_while(|o| o.kind == OpKind::Update)
                    .count();
                let window = &ops[next..next + run];
                let done = target.updates(window, next as u32, clock);
                log.records
                    .extend(window.iter().enumerate().map(|(i, op)| OpRecord {
                        due_ns: op.due_ns,
                        done_ns: done.done_ns,
                        kind: OpKind::Update,
                        ok: done.failed & (1 << i) == 0,
                        candidates: 0,
                    }));
                run
            }
        };
        let slice = ((now / slice_ns) as usize).min(log.backlog_max.len() - 1);
        let waiting = (due_now - taken) as u32;
        log.backlog_max[slice] = log.backlog_max[slice].max(waiting);
        next += taken;
    }
    if !limits.closed {
        log.not_started = (ops.len() - next) as u64;
    }
    log
}
