//! Overload control: deadlines, priority admission, circuit breaking, and
//! fail-private brownout.
//!
//! The anonymizer sits between millions of clients and the LBS server
//! (paper §3), so a flash crowd hits the cloaking tier first. This module
//! gives the request plane an explicit overload model:
//!
//! * [`Deadline`] — a budget carried with every request through
//!   [`PipelineCore`](crate::Casper), the server link, the typed engine and
//!   the wire frames (the 8 spare pad bytes of each 64-byte record), so
//!   doomed work is dropped early instead of computed late.
//! * **Admission control** — bounded per-shard queues in front of
//!   [`ParallelEngine`](crate::ParallelEngine) with CoDel-style
//!   shed-on-sojourn-time and [`Priority`] classes: continuous ticks are
//!   shed first, snapshot queries next, registrations/location updates
//!   last (dropping an update only costs freshness).
//! * [`CircuitBreaker`] — converts repeated timeouts on a connection into
//!   fast-fail [`Response::Overloaded`](crate::Response::Overloaded)
//!   replies with retry-after hints instead of letting every client burn
//!   its full timeout budget.
//! * [`BrownoutController`] — steps through declared degradation levels
//!   from p99 and queue-depth signals: stretch continuous-tick intervals,
//!   widen cache staleness tolerance, disable aggregate/category paths.
//!
//! **The hard invariant — fail private, not fail open.** No overload level
//! and no shedding decision ever touches the cloaking parameters: a
//! returned cloak always satisfies the user's (k, A_min) profile. Under
//! pressure the system degrades *utility* (latency, tick rate, candidate
//! freshness) or shed the request outright with an explicit
//! `Overloaded` reply — it never weakens privacy. The engine enforces this
//! mechanically (a cloak that somehow missed its profile is converted into
//! a shed, see `ParallelEngine::execute_with_deadline`) and
//! `tests/overload.rs` proves it under seeded flash crowds and stalled
//! shards.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::engine::Request;

/// A request deadline: the instant after which the answer is worthless.
///
/// `Deadline::none()` means "no budget" — the request is processed like any
/// pre-overload-era request. Deadlines travel across the wire as a
/// remaining-budget in milliseconds (see [`crate::wire::encode_with_budget`]),
/// so clocks never need to be synchronised between tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    expires: Option<Instant>,
}

impl Deadline {
    /// No deadline: the request may take as long as it takes.
    pub const fn none() -> Self {
        Deadline { expires: None }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            expires: Some(Instant::now() + budget),
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            expires: Some(instant),
        }
    }

    /// The expiry instant, if any.
    pub fn expires_at(&self) -> Option<Instant> {
        self.expires
    }

    /// Remaining budget; `None` when unbounded, `Some(ZERO)` when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.expires
            .map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// True when a bounded deadline has passed.
    pub fn is_expired(&self) -> bool {
        matches!(self.remaining(), Some(d) if d == Duration::ZERO)
    }

    /// Remaining budget in milliseconds for the wire: `0` means "no
    /// deadline"; a bounded-but-expired deadline is clamped to `1` so the
    /// receiver still sees it as bounded (and sheds it).
    pub fn budget_millis(&self) -> u64 {
        match self.remaining() {
            None => 0,
            Some(d) => (d.as_millis() as u64).max(1),
        }
    }

    /// Rebuild a deadline from a wire budget (`0` = none).
    pub fn from_budget_millis(ms: u64) -> Self {
        if ms == 0 {
            Deadline::none()
        } else {
            Deadline::within(Duration::from_millis(ms))
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

/// Priority class of a request, ordered by who is shed first under load.
///
/// Continuous-query ticks are pure freshness work — shedding one costs a
/// slightly staler monitor. Snapshot queries have a waiting user. Location
/// updates and registrations keep the anonymizer's view of the world
/// correct and are shed last (dropping one only costs freshness, but
/// dropping many erodes the grid counts every other user's cloak depends
/// on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Continuous-query re-evaluation ticks: shed first.
    Tick,
    /// Interactive snapshot queries (NN, range, admin counts).
    Query,
    /// Registrations, profile changes and location updates: shed last.
    Update,
}

impl Priority {
    /// Classify a typed request.
    pub fn of(req: &Request) -> Priority {
        match req {
            Request::QueryNn { .. }
            | Request::QueryNnPrivate { .. }
            | Request::NnCandidates { .. }
            | Request::NnPrivateCandidates { .. }
            | Request::AdminCount { .. }
            | Request::Metrics => Priority::Query,
            _ => Priority::Update,
        }
    }

    /// Fraction of the admission queue this class may fill before it is
    /// shed: ticks yield half the queue to better classes, queries three
    /// quarters, updates may use all of it.
    fn fill_limit(self) -> f64 {
        match self {
            Priority::Tick => 0.5,
            Priority::Query => 0.75,
            Priority::Update => 1.0,
        }
    }

    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Tick => "tick",
            Priority::Query => "query",
            Priority::Update => "update",
        }
    }
}

/// Why a request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The per-shard admission queue was full for this priority class.
    QueueFull,
    /// CoDel: queue sojourn time stayed above target for a full interval.
    Sojourn,
    /// The request's deadline had already passed.
    DeadlineExpired,
    /// A circuit breaker was open for the connection.
    BreakerOpen,
    /// The brownout level disables this request class entirely.
    Brownout,
    /// A produced cloak failed its (k, A_min) profile: fail private.
    FailPrivate,
}

impl ShedReason {
    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Sojourn => "sojourn",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::Brownout => "brownout",
            ShedReason::FailPrivate => "fail_private",
        }
    }
}

/// A shedding decision: the reason plus a retry-after hint for the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Why the request was not executed.
    pub reason: ShedReason,
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
}

/// Declared degradation levels the brownout controller steps through.
///
/// Each level names exactly what utility is given up; none of them touch
/// the (k, A_min) cloaking guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// Full service.
    #[default]
    Normal,
    /// Continuous ticks run at half rate (stride 2).
    Stretched,
    /// Ticks at quarter rate; continuous queries may reuse cached
    /// candidates past their version stamp (bounded staleness); aggregate
    /// and category-filtered paths are disabled.
    Stale,
    /// Essential traffic only: updates/cloaks and plain NN queries; ticks
    /// run at one-eighth rate; everything else is shed.
    Essential,
}

impl BrownoutLevel {
    /// All levels in escalation order.
    pub const ALL: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::Stretched,
        BrownoutLevel::Stale,
        BrownoutLevel::Essential,
    ];

    /// Numeric index (0 = normal) for gauges and ordering.
    pub fn index(self) -> u8 {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::Stretched => 1,
            BrownoutLevel::Stale => 2,
            BrownoutLevel::Essential => 3,
        }
    }

    /// Level from a numeric index, saturating at `Essential`.
    pub fn from_index(i: u8) -> BrownoutLevel {
        match i {
            0 => BrownoutLevel::Normal,
            1 => BrownoutLevel::Stretched,
            2 => BrownoutLevel::Stale,
            _ => BrownoutLevel::Essential,
        }
    }

    /// Continuous-query tick stride at this level: only every `stride`-th
    /// monitor is re-evaluated per tick.
    pub fn tick_stride(self) -> usize {
        match self {
            BrownoutLevel::Normal => 1,
            BrownoutLevel::Stretched => 2,
            BrownoutLevel::Stale => 4,
            BrownoutLevel::Essential => 8,
        }
    }

    /// Whether continuous queries may reuse cached candidates even when
    /// the candidate-cache version stamp has been invalidated.
    pub fn allow_stale_reuse(self) -> bool {
        self >= BrownoutLevel::Stale
    }

    /// Whether aggregate (`AdminCount`) and category-filtered query paths
    /// are still served at this level.
    pub fn category_paths_enabled(self) -> bool {
        self < BrownoutLevel::Stale
    }

    /// Stable label for telemetry and logs.
    pub fn label(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::Stretched => "stretched",
            BrownoutLevel::Stale => "stale",
            BrownoutLevel::Essential => "essential",
        }
    }

    fn step_up(self) -> BrownoutLevel {
        BrownoutLevel::from_index(self.index().saturating_add(1))
    }

    fn step_down(self) -> BrownoutLevel {
        BrownoutLevel::from_index(self.index().saturating_sub(1))
    }
}

/// Tuning for the [`BrownoutController`].
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// p99 queue-sojourn target; sustained excess is pressure.
    pub p99_target: Duration,
    /// Queue depth (fraction of capacity) above which the plane counts as
    /// pressured even when sojourn looks fine.
    pub depth_high_water: f64,
    /// How long pressure (or calm) must hold before stepping a level.
    pub step_hold: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            p99_target: Duration::from_millis(20),
            depth_high_water: 0.75,
            step_hold: Duration::from_millis(250),
        }
    }
}

/// Hysteretic controller stepping through [`BrownoutLevel`]s.
///
/// Feed it p99 sojourn and queue-depth observations; it steps one level up
/// after `step_hold` of sustained pressure and one level down after
/// `step_hold` of sustained calm, so short spikes don't oscillate the
/// system through its degradation ladder.
#[derive(Debug)]
pub struct BrownoutController {
    cfg: BrownoutConfig,
    level: BrownoutLevel,
    pressured_since: Option<Instant>,
    calm_since: Option<Instant>,
}

impl BrownoutController {
    /// A controller at `Normal` with the given tuning.
    pub fn new(cfg: BrownoutConfig) -> Self {
        BrownoutController {
            cfg,
            level: BrownoutLevel::Normal,
            pressured_since: None,
            calm_since: None,
        }
    }

    /// Current level.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Feed one observation; returns the (possibly stepped) level.
    pub fn observe(&mut self, now: Instant, p99: Duration, depth_frac: f64) -> BrownoutLevel {
        let pressured = p99 > self.cfg.p99_target || depth_frac > self.cfg.depth_high_water;
        if pressured {
            self.calm_since = None;
            let since = *self.pressured_since.get_or_insert(now);
            if now.saturating_duration_since(since) >= self.cfg.step_hold {
                self.level = self.level.step_up();
                self.pressured_since = Some(now);
            }
        } else {
            self.pressured_since = None;
            let since = *self.calm_since.get_or_insert(now);
            if now.saturating_duration_since(since) >= self.cfg.step_hold {
                self.level = self.level.step_down();
                self.calm_since = Some(now);
            }
        }
        self.level
    }
}

/// State of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fast-fail until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(500),
        }
    }
}

/// A per-connection circuit breaker.
///
/// Repeated timeouts against a peer mean every further attempt burns a
/// full timeout budget for nothing. After `failure_threshold` consecutive
/// failures the breaker opens and callers fast-fail with a retry-after
/// hint (the remaining cooldown); after the cooldown one probe is let
/// through — success closes the breaker, failure re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            trips: 0,
        }
    }

    /// Current state (open breakers report themselves half-open once the
    /// cooldown has elapsed).
    pub fn state(&self) -> BreakerState {
        match self.state {
            BreakerState::Open
                if self
                    .opened_at
                    .is_some_and(|t| t.elapsed() >= self.cfg.cooldown) =>
            {
                BreakerState::HalfOpen
            }
            s => s,
        }
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Gate a request: `Ok(())` lets it through, `Err(retry_after)` means
    /// fast-fail without touching the peer.
    pub fn check(&mut self, now: Instant) -> Result<(), Duration> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let opened = self.opened_at.unwrap_or(now);
                let elapsed = now.saturating_duration_since(opened);
                if elapsed >= self.cfg.cooldown {
                    self.state = BreakerState::HalfOpen;
                    Ok(())
                } else {
                    Err(self.cfg.cooldown - elapsed)
                }
            }
        }
    }

    /// Record a successful round trip: closes the breaker.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Record a failed round trip; may trip the breaker open.
    pub fn record_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            _ => self.consecutive_failures >= self.cfg.failure_threshold,
        };
        if trip {
            if self.state != BreakerState::Open {
                self.trips += 1;
            }
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
        }
    }
}

/// Tuning for the admission layer and its brownout controller.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Per-shard admission-queue capacity (jobs admitted but not yet
    /// executing). Must stay below the worker channel capacity so
    /// admission, not channel backpressure, is what blocks.
    pub queue_cap: usize,
    /// CoDel sojourn target: queues whose jobs wait longer than this are
    /// considered standing queues.
    pub target_sojourn: Duration,
    /// CoDel interval: how long sojourn must stay above target before
    /// shedding starts.
    pub codel_interval: Duration,
    /// Base retry-after hint handed to shed clients.
    pub retry_after: Duration,
    /// Brownout controller tuning.
    pub brownout: BrownoutConfig,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_cap: 256,
            target_sojourn: Duration::from_millis(5),
            codel_interval: Duration::from_millis(100),
            retry_after: Duration::from_millis(50),
            brownout: BrownoutConfig::default(),
        }
    }
}

/// CoDel control-law state for one shard queue.
#[derive(Debug, Default)]
struct CodelState {
    first_above: Option<Instant>,
    shedding: bool,
    shed_next: Option<Instant>,
    shed_count: u32,
}

impl CodelState {
    /// Feed one dequeue-time sojourn observation; returns true when this
    /// particular job should be shed. Sheds happen at a controlled
    /// cadence (the CoDel control law), never wholesale: most jobs keep
    /// running even while the queue is pressured, so the law keeps
    /// receiving the observations it needs to disengage once the
    /// standing backlog drains. `sheddable` is false for priorities the
    /// law must never drop; those still feed the observation but cannot
    /// consume a drop slot.
    fn on_dequeue(
        &mut self,
        now: Instant,
        sojourn: Duration,
        target: Duration,
        interval: Duration,
        sheddable: bool,
    ) -> bool {
        if sojourn < target {
            self.first_above = None;
            self.shedding = false;
            self.shed_count = 0;
            self.shed_next = None;
            return false;
        }
        let first = *self.first_above.get_or_insert(now);
        if !self.shedding {
            if sheddable && now.saturating_duration_since(first) >= interval {
                self.shedding = true;
                self.shed_count = 1;
                self.shed_next = Some(now + Self::backoff(interval, 1));
                return true;
            }
            return false;
        }
        match self.shed_next {
            Some(next) if sheddable && now >= next => {
                self.shed_count = self.shed_count.saturating_add(1);
                self.shed_next = Some(now + Self::backoff(interval, self.shed_count));
                true
            }
            _ => false,
        }
    }

    /// CoDel control law: drop interval shrinks with `1/sqrt(count)`.
    fn backoff(interval: Duration, count: u32) -> Duration {
        Duration::from_secs_f64(interval.as_secs_f64() / f64::from(count.max(1)).sqrt())
    }
}

/// One shard's admission gate: a depth counter plus CoDel state.
#[derive(Debug)]
struct ShardGate {
    depth: AtomicUsize,
    high_water: AtomicUsize,
    codel: Mutex<CodelState>,
}

impl ShardGate {
    fn new() -> Self {
        ShardGate {
            depth: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            codel: Mutex::new(CodelState::default()),
        }
    }
}

/// Coarse log-scale histogram of queue sojourn times (microsecond
/// buckets, powers of two). Decayed on every brownout poll so the p99
/// tracks recent behaviour, not the whole run.
#[derive(Debug)]
struct SojournWindow {
    buckets: [AtomicU64; 32],
}

impl SojournWindow {
    fn new() -> Self {
        SojournWindow {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_of(d: Duration) -> usize {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        (64 - us.leading_zeros() as usize).min(31)
    }

    fn observe(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound of the bucket holding quantile `q`, then halve every
    /// bucket (exponential decay).
    fn quantile_and_decay(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| {
                let v = b.load(Ordering::Relaxed);
                b.store(v / 2, Ordering::Relaxed);
                v
            })
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper_us = if i == 0 { 1 } else { 1u64 << i };
                return Duration::from_micros(upper_us);
            }
        }
        Duration::from_micros(1 << 31)
    }
}

/// Point-in-time counters of the overload subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests admitted past the gates.
    pub admitted: u64,
    /// Requests shed because a queue was full for their class.
    pub shed_queue_full: u64,
    /// Requests shed by the CoDel sojourn control law.
    pub shed_sojourn: u64,
    /// Requests shed because their deadline had already expired.
    pub shed_expired: u64,
    /// Requests shed because the brownout level disables their class.
    pub shed_brownout: u64,
    /// Cloaks converted to sheds by the fail-private guard.
    pub shed_fail_private: u64,
    /// Current brownout level index (0 = normal).
    pub brownout_level: u8,
    /// Deepest any admission queue has been.
    pub queue_high_water: usize,
}

impl OverloadStats {
    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_sojourn
            + self.shed_expired
            + self.shed_brownout
            + self.shed_fail_private
    }
}

/// Shared overload state attached to a `ParallelEngine`.
#[derive(Debug)]
pub(crate) struct OverloadState {
    pub(crate) cfg: OverloadConfig,
    gates: Vec<ShardGate>,
    level: AtomicU8,
    brownout: Mutex<BrownoutController>,
    sojourns: SojournWindow,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_sojourn: AtomicU64,
    shed_expired: AtomicU64,
    shed_brownout: AtomicU64,
    shed_fail_private: AtomicU64,
}

impl OverloadState {
    pub(crate) fn new(cfg: OverloadConfig, slots: usize) -> Self {
        let brownout = BrownoutController::new(cfg.brownout.clone());
        OverloadState {
            gates: (0..slots.max(1)).map(|_| ShardGate::new()).collect(),
            level: AtomicU8::new(0),
            brownout: Mutex::new(brownout),
            sojourns: SojournWindow::new(),
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_sojourn: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            shed_brownout: AtomicU64::new(0),
            shed_fail_private: AtomicU64::new(0),
            cfg,
        }
    }

    pub(crate) fn slot_of(&self, key: u64) -> usize {
        (key % self.gates.len() as u64) as usize
    }

    /// Current brownout level.
    pub(crate) fn level(&self) -> BrownoutLevel {
        BrownoutLevel::from_index(self.level.load(Ordering::Relaxed))
    }

    /// Force a brownout level (used by operators and tests); the
    /// controller keeps stepping from here on subsequent polls.
    pub(crate) fn set_level(&self, level: BrownoutLevel) {
        self.level.store(level.index(), Ordering::Relaxed);
        crate::tel::record_brownout_level(level);
    }

    /// Observe recent sojourn p99 + queue depth and step the controller.
    pub(crate) fn poll_brownout(&self) -> BrownoutLevel {
        let p99 = self.sojourns.quantile_and_decay(0.99);
        let max_depth = self
            .gates
            .iter()
            .map(|g| g.depth.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let frac = max_depth as f64 / self.cfg.queue_cap.max(1) as f64;
        let mut ctl = self.brownout.lock();
        // Re-sync the controller with any externally forced level.
        let forced = self.level();
        if ctl.level != forced {
            ctl.level = forced;
        }
        let level = ctl.observe(Instant::now(), p99, frac);
        drop(ctl);
        self.level.store(level.index(), Ordering::Relaxed);
        crate::tel::record_brownout_level(level);
        level
    }

    pub(crate) fn shed(&self, reason: ShedReason) -> Shed {
        let counter = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::Sojourn => &self.shed_sojourn,
            ShedReason::DeadlineExpired => &self.shed_expired,
            ShedReason::Brownout => &self.shed_brownout,
            ShedReason::FailPrivate => &self.shed_fail_private,
            // Breaker sheds are counted by the client/server stats.
            ShedReason::BreakerOpen => &self.shed_queue_full,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        crate::tel::record_shed(reason.label());
        let level = self.level();
        let scale = u32::from(level.index()) + 1;
        Shed {
            reason,
            retry_after: self.cfg.retry_after * scale,
        }
    }

    /// Gate a request at enqueue time. `Ok` increments the slot's depth —
    /// the matching `start` (or `cancel`) must run exactly once.
    pub(crate) fn admit(&self, slot: usize, pri: Priority, deadline: Deadline) -> Result<(), Shed> {
        if deadline.is_expired() {
            return Err(self.shed(ShedReason::DeadlineExpired));
        }
        let level = self.level();
        if level == BrownoutLevel::Essential && pri == Priority::Tick {
            return Err(self.shed(ShedReason::Brownout));
        }
        let gate = &self.gates[slot];
        let limit = ((self.cfg.queue_cap as f64) * pri.fill_limit()).ceil() as usize;
        let grew = gate
            .depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                (d < limit).then_some(d + 1)
            });
        match grew {
            Err(_) => Err(self.shed(ShedReason::QueueFull)),
            Ok(prev) => {
                gate.high_water.fetch_max(prev + 1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Called by the worker when an admitted job reaches the front of its
    /// queue. Feeds the CoDel law with the observed sojourn and makes the
    /// final shed-or-run call.
    pub(crate) fn start(
        &self,
        slot: usize,
        enqueued: Instant,
        pri: Priority,
        deadline: Deadline,
    ) -> Result<(), Shed> {
        let gate = &self.gates[slot];
        gate.depth.fetch_sub(1, Ordering::AcqRel);
        let now = Instant::now();
        let sojourn = now.saturating_duration_since(enqueued);
        self.sojourns.observe(sojourn);
        crate::tel::record_sojourn(sojourn);
        {
            let mut codel = gate.codel.lock();
            let drop_this = codel.on_dequeue(
                now,
                sojourn,
                self.cfg.target_sojourn,
                self.cfg.codel_interval,
                pri < Priority::Update,
            );
            if drop_this {
                return Err(self.shed(ShedReason::Sojourn));
            }
        }
        if deadline.is_expired() {
            return Err(self.shed(ShedReason::DeadlineExpired));
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        crate::tel::record_admitted();
        Ok(())
    }

    /// Undo an `admit` whose job will never run.
    #[allow(dead_code)]
    pub(crate) fn cancel(&self, slot: usize) {
        self.gates[slot].depth.fetch_sub(1, Ordering::AcqRel);
    }

    /// Count a fail-private conversion (cloak missed its profile).
    pub(crate) fn note_fail_private(&self) -> Shed {
        self.shed(ShedReason::FailPrivate)
    }

    pub(crate) fn stats(&self) -> OverloadStats {
        OverloadStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_sojourn: self.shed_sojourn.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            shed_brownout: self.shed_brownout.load(Ordering::Relaxed),
            shed_fail_private: self.shed_fail_private.load(Ordering::Relaxed),
            brownout_level: self.level.load(Ordering::Relaxed),
            queue_high_water: self
                .gates
                .iter()
                .map(|g| g.high_water.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_roundtrips() {
        assert_eq!(Deadline::none().budget_millis(), 0);
        assert!(Deadline::from_budget_millis(0).remaining().is_none());
        let d = Deadline::within(Duration::from_millis(500));
        let ms = d.budget_millis();
        assert!((400..=500).contains(&ms), "budget {ms}");
        let back = Deadline::from_budget_millis(ms);
        assert!(!back.is_expired());
        let expired = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_expired());
        assert_eq!(expired.budget_millis(), 1); // bounded, not "none"
    }

    #[test]
    fn breaker_trips_and_recovers() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        let t0 = Instant::now();
        assert!(b.check(t0).is_ok());
        b.record_failure(t0);
        b.record_failure(t0);
        assert!(b.check(t0).is_ok(), "below threshold stays closed");
        b.record_failure(t0);
        let retry = b.check(t0).unwrap_err();
        assert!(retry <= Duration::from_millis(20));
        assert_eq!(b.trips(), 1);
        // After cooldown: half-open probe allowed.
        let later = t0 + Duration::from_millis(25);
        assert!(b.check(later).is_ok());
        b.record_failure(later); // probe fails: re-open immediately
        assert!(b.check(later).is_err());
        let again = later + Duration::from_millis(25);
        assert!(b.check(again).is_ok());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn brownout_steps_with_hysteresis() {
        let cfg = BrownoutConfig {
            p99_target: Duration::from_millis(10),
            depth_high_water: 0.8,
            step_hold: Duration::from_millis(100),
        };
        let mut c = BrownoutController::new(cfg);
        let t0 = Instant::now();
        let hot = Duration::from_millis(50);
        assert_eq!(c.observe(t0, hot, 0.0), BrownoutLevel::Normal);
        // Sustained pressure steps up exactly one level per hold window.
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(c.observe(t1, hot, 0.0), BrownoutLevel::Stretched);
        let t2 = t1 + Duration::from_millis(120);
        assert_eq!(c.observe(t2, hot, 0.0), BrownoutLevel::Stale);
        // A momentary calm observation does not step down...
        let t3 = t2 + Duration::from_millis(10);
        assert_eq!(c.observe(t3, Duration::ZERO, 0.0), BrownoutLevel::Stale);
        // ...but sustained calm does.
        let t4 = t3 + Duration::from_millis(120);
        assert_eq!(c.observe(t4, Duration::ZERO, 0.0), BrownoutLevel::Stretched);
        // Depth alone also counts as pressure.
        let t5 = t4 + Duration::from_millis(120);
        c.observe(t5, Duration::ZERO, 0.95);
        let t6 = t5 + Duration::from_millis(120);
        assert_eq!(c.observe(t6, Duration::ZERO, 0.95), BrownoutLevel::Stale);
    }

    #[test]
    fn admission_respects_priority_fill_limits() {
        let cfg = OverloadConfig {
            queue_cap: 8,
            ..OverloadConfig::default()
        };
        let state = OverloadState::new(cfg, 1);
        // Ticks may only fill half the queue (4 of 8 slots).
        for _ in 0..4 {
            assert!(state.admit(0, Priority::Tick, Deadline::none()).is_ok());
        }
        let shed = state
            .admit(0, Priority::Tick, Deadline::none())
            .unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);
        // Queries still fit (limit 6)...
        for _ in 0..2 {
            assert!(state.admit(0, Priority::Query, Deadline::none()).is_ok());
        }
        assert!(state.admit(0, Priority::Query, Deadline::none()).is_err());
        // ...and updates use the full queue.
        for _ in 0..2 {
            assert!(state.admit(0, Priority::Update, Deadline::none()).is_ok());
        }
        assert!(state.admit(0, Priority::Update, Deadline::none()).is_err());
        let stats = state.stats();
        assert_eq!(stats.shed_queue_full, 3);
        assert_eq!(stats.queue_high_water, 8);
        // An expired deadline is shed before it ever takes a slot.
        let expired = Deadline::at(Instant::now() - Duration::from_millis(1));
        let shed = state.admit(0, Priority::Update, expired).unwrap_err();
        assert_eq!(shed.reason, ShedReason::DeadlineExpired);
    }

    #[test]
    fn codel_sheds_low_priority_after_standing_queue() {
        let cfg = OverloadConfig {
            queue_cap: 64,
            target_sojourn: Duration::from_millis(1),
            codel_interval: Duration::from_millis(5),
            ..OverloadConfig::default()
        };
        let state = OverloadState::new(cfg, 1);
        // Simulate a standing queue: a stream of jobs observed with
        // sojourns far above target across more than one interval.
        let mut shed = 0u32;
        let mut ran = 0u32;
        for _ in 0..50 {
            assert!(state.admit(0, Priority::Query, Deadline::none()).is_ok());
            let enq = Instant::now() - Duration::from_millis(20);
            match state.start(0, enq, Priority::Query, Deadline::none()) {
                Ok(()) => ran += 1,
                Err(s) => {
                    assert_eq!(s.reason, ShedReason::Sojourn);
                    shed += 1;
                }
            }
            // Updates feed the law but are never CoDel-shed, even while
            // the queue is pressured.
            assert!(state.admit(0, Priority::Update, Deadline::none()).is_ok());
            let enq = Instant::now() - Duration::from_millis(20);
            assert!(state
                .start(0, enq, Priority::Update, Deadline::none())
                .is_ok());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(shed > 0, "CoDel never engaged");
        assert!(
            ran > 0,
            "CoDel must shed at a cadence, not starve the class wholesale"
        );
        assert_eq!(state.stats().shed_sojourn, u64::from(shed));
        // Recovery: one sub-target sojourn disengages the law entirely.
        assert!(state.admit(0, Priority::Query, Deadline::none()).is_ok());
        assert!(state
            .start(0, Instant::now(), Priority::Query, Deadline::none())
            .is_ok());
        assert!(state.admit(0, Priority::Query, Deadline::none()).is_ok());
        let enq = Instant::now() - Duration::from_millis(20);
        // Above target again, but the interval clock restarts from zero.
        assert!(state
            .start(0, enq, Priority::Query, Deadline::none())
            .is_ok());
    }
}
