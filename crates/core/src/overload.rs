//! Overload control on the wire path: deadlines, circuit breaking, and
//! the reasons a request is refused instead of served.
//!
//! The anonymizer sits between millions of clients and the LBS server
//! (paper §3), so a flash crowd hits the cloaking tier first. The request
//! plane bounds the work it does for it in three places:
//!
//! * [`Deadline`] — a budget carried with every request through the
//!   trusted-tier pipeline, its server link and the wire frames (the 8
//!   spare pad bytes of each 64-byte record), so the client fast-fails
//!   doomed work before the socket and the server answers expired frames
//!   [`Response::Overloaded`](crate::Response::Overloaded) without
//!   touching the plane.
//! * [`CircuitBreaker`] — converts repeated timeouts on a connection into
//!   fast-fail `Overloaded` replies with retry-after hints instead of
//!   letting every client burn its full timeout budget.
//! * The reactor itself: a per-pass frame budget and a per-connection
//!   output cap bound what one connection can take (`reactor.rs`).
//!
//! **The hard invariant — fail private, not fail open.** No overload
//! decision ever touches the cloaking parameters. The trusted-tier
//! pipeline every façade shares releases a cloak to the server only when
//! it satisfies the user's `(k, A_min)` profile; a cloak that misses it
//! is refused with [`ShedReason::FailPrivate`] and audited `served:
//! false`.

use std::time::{Duration, Instant};

/// Retry-after hint of a request refused because its deadline had passed.
pub(crate) const RETRY_AFTER: Duration = Duration::from_millis(50);

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

/// Why a request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The request's deadline had already passed.
    DeadlineExpired,
    /// A produced cloak failed its (k, A_min) profile: fail private.
    FailPrivate,
}

impl ShedReason {
    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::FailPrivate => "fail_private",
        }
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
}
