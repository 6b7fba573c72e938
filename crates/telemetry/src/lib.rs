//! Unified telemetry for the Casper stack: a lock-free metrics registry,
//! causal span tracing, and the privacy audit log.
//!
//! The paper's evaluation is entirely metric-driven — cloaking time,
//! maintenance cost, candidate-list size, the Figure 17 per-component
//! breakdown — and a production deployment needs those same signals
//! *continuously*, not just in offline figure runs. This crate is the one
//! place they all land:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s (p50/p95/p99 queries), rendered as a Prometheus text
//!   page by [`Registry::render`] and as a `BENCH_*.json`-compatible blob
//!   by [`Registry::snapshot_json`]. Record paths are pure relaxed
//!   atomics.
//! * [`SpanStore`] — the one tracing model: causal span trees per trace
//!   (parent/child links, monotonic timestamps), head-sampled with
//!   tail-keep of slow, shed, or degraded traces, exportable as Chrome
//!   trace-event JSON ([`chrome_trace_json`]). Degraded queries and state
//!   transitions (recovery, promotion, a server restart) are flagged
//!   spans, so they are kept at any sample rate but 0.
//! * [`AuditLog`] / [`PrivacyAuditor`] — the privacy audit plane: one
//!   [`AuditRecord`] per cloak decision, replayable after a run to prove
//!   zero `(k, A_min)` violations.
//! * [`MetricsHttp`] — a tiny optional HTTP listener serving `/metrics`,
//!   `/flight` (the finished spans, one line each), `/trace`, and
//!   `/trace/<id>`.
//!
//! Instrumentation is always compiled in; span sample rate 0
//! ([`SpanStore::set_sample_rate`]) is the runtime off-switch for tracing.
//!
//! The process-wide instances live behind [`global`]; libraries use the
//! [`registry`] / [`spans`] / [`audit`] shortcuts so all components
//! aggregate into one page.

#![warn(missing_docs)]

mod audit;
mod export;
mod http;
mod metrics;
mod registry;
mod span;

pub use audit::{AuditLog, AuditRecord, AuditReport, PrivacyAuditor, DEFAULT_AUDIT_CAPACITY};
pub use export::chrome_trace_json;
pub use http::{MetricsHttp, PageFn};
pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::Registry;
pub use span::{
    boot_salt, next_trace_id, now_ns, FinishedTrace, SpanContext, SpanGuard, SpanRecord, SpanStore,
    DEFAULT_FINISHED_CAP, DEFAULT_PENDING_CAP, DEFAULT_SAMPLE_RATE, DEFAULT_SLOW_NS,
    DEFAULT_SPANS_PER_TRACE,
};

use std::sync::OnceLock;

/// The process-wide telemetry sinks: one registry, one span store, one
/// audit log.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The metrics registry every instrumented crate records into.
    pub registry: Registry,
    /// The span store every traced scope records into.
    pub spans: SpanStore,
    /// The audit log every cloak decision records into.
    pub audit: AuditLog,
}

/// The process-wide [`Telemetry`] instance (created on first use).
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::default)
}

/// Shortcut for `&global().registry`.
pub fn registry() -> &'static Registry {
    &global().registry
}

/// Shortcut for `&global().spans`.
pub fn spans() -> &'static SpanStore {
    &global().spans
}

/// Shortcut for `&global().audit`.
pub fn audit() -> &'static AuditLog {
    &global().audit
}
