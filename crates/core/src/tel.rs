//! Telemetry probes for the framework layer.
//!
//! Each probe caches its registry handle in a `OnceLock`, so the hot
//! paths (frame serving, retries, pipeline stages) pay only relaxed
//! atomic operations after the first observation. State transitions — a
//! recovery, a promotion, a server boot-id change — are filed as flagged
//! spans in [`casper_telemetry::spans`] ([`record_transition`]), under
//! the trace that caused them when one is current, so they can be
//! reconstructed after the fact from `/flight`.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use casper_telemetry::{registry, Counter, Gauge, Histogram, SpanContext};

/// One cached counter handle per call site.
macro_rules! cached_counter {
    ($name:literal, $help:literal) => {{
        static H: OnceLock<Arc<Counter>> = OnceLock::new();
        H.get_or_init(|| registry().counter($name, $help))
    }};
}

/// The handles of one labelled family seen so far, one per label value.
type LabelCache<T> = OnceLock<Mutex<Vec<(&'static str, Arc<T>)>>>;

/// The cached handle for `label` in `cache`; `register` creates it on the
/// label's first observation.
fn labelled<T>(
    cache: &'static LabelCache<T>,
    label: &'static str,
    register: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    let mut handles = crate::sync::lock(cache.get_or_init(|| Mutex::new(Vec::new())));
    if let Some((_, h)) = handles.iter().find(|(l, _)| *l == label) {
        return Arc::clone(h);
    }
    let h = register();
    handles.push((label, Arc::clone(&h)));
    h
}

// ---------------------------------------------------------------------
// Causal spans (bridge to the process-wide span store).

/// Opens a child span of the calling thread's current span (no-op
/// without an active context or with tracing disabled).
pub(crate) fn span(name: &'static str) -> casper_telemetry::SpanGuard<'static> {
    casper_telemetry::spans().child(name)
}

/// Opens the trace-root span for a request (ends the whole trace when
/// dropped).
pub(crate) fn span_root(trace_id: u64, name: &'static str) -> casper_telemetry::SpanGuard<'static> {
    casper_telemetry::spans().root(trace_id, name)
}

/// Opens a local root whose parent arrived by wire from another process.
pub(crate) fn span_remote_root(
    ctx: casper_telemetry::SpanContext,
    name: &'static str,
) -> casper_telemetry::SpanGuard<'static> {
    casper_telemetry::spans().remote_root(ctx, name)
}

/// The calling thread's current span context (for wire stamping and
/// cross-thread handoff).
pub(crate) fn span_current() -> Option<casper_telemetry::SpanContext> {
    casper_telemetry::spans().current()
}

/// Promotes a trace for tail-keep (shed / degraded / retried requests).
pub(crate) fn span_flag(trace_id: u64) {
    casper_telemetry::spans().flag(trace_id);
}

/// Files a state transition as a kept span named `name` with `outcome`
/// and `detail`, ending now and covering `took`. When a span is current
/// the transition joins that trace (a boot-id change seen inside a query
/// lands in the query's trace); otherwise it is a one-span trace of its
/// own. Either way the trace is flagged, so tail-keep retains it at every
/// sample rate but 0, which switches these records off with the rest of
/// tracing.
fn record_transition(name: &'static str, outcome: &'static str, took: Duration, detail: String) {
    let spans = casper_telemetry::spans();
    if !spans.enabled() {
        return;
    }
    let end = casper_telemetry::now_ns();
    let start = end.saturating_sub(took.as_nanos() as u64);
    let current = spans.current();
    // Without a current span the record is the root (parent 0) of a
    // fresh trace, ended right after.
    let ctx = current.unwrap_or_else(|| SpanContext {
        trace_id: casper_telemetry::next_trace_id(),
        span_id: 0,
        sampled: false,
    });
    spans.flag(ctx.trace_id);
    spans.record_manual(ctx, name, start, end, outcome, detail);
    if current.is_none() {
        spans.end_trace(ctx.trace_id);
    }
}

/// Times `f` (typically a lock acquisition) under a child span labelled
/// with the shard index.
pub(crate) fn with_lock_wait_span<T>(shard: usize, f: impl FnOnce() -> T) -> T {
    let mut g = span("shard_lock_wait");
    if g.is_active() {
        g.set_detail(format!("shard={shard}"));
    }
    let out = f();
    drop(g);
    out
}

// ---------------------------------------------------------------------
// The privacy audit plane.

/// Emits one cloak-decision audit record into the process-wide audit
/// log. `served` decisions that violate their own `(k, A_min)` profile
/// are what the post-hoc [`casper_telemetry::PrivacyAuditor`] hunts for;
/// shed decisions (`served = false`) document fail-private refusals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_cloak_audit(
    trace_id: u64,
    uid: u64,
    k_required: u32,
    k_achieved: u32,
    a_min: f64,
    area: f64,
    level: u8,
    served: bool,
    shed_reason: &'static str,
) {
    casper_telemetry::audit().record(casper_telemetry::AuditRecord {
        ts_ns: casper_telemetry::now_ns(),
        trace_id,
        uid,
        k_required,
        k_achieved,
        a_min,
        area,
        level,
        served,
        shed_reason,
    });
}

// ---------------------------------------------------------------------
// Pipeline stages (the Figure 17 breakdown, live).

/// Records one pipeline stage's latency into
/// `casper_stage_latency_ns{stage}` (`stage` ∈ anonymizer / query /
/// transmission).
pub(crate) fn record_stage(stage: &'static str, d: Duration) {
    static STAGES: LabelCache<Histogram> = OnceLock::new();
    labelled(&STAGES, stage, || {
        registry().histogram_with(
            "casper_stage_latency_ns",
            "Per-stage latency of the privacy-aware query pipeline, nanoseconds",
            &[("stage", stage)],
        )
    })
    .observe_duration(d);
}

/// Counts one degraded end-to-end query (its `query` span carries the
/// outcome and the reason).
pub(crate) fn record_degraded() {
    cached_counter!(
        "casper_queries_degraded_total",
        "End-to-end queries answered in degraded mode (transport down)"
    )
    .inc();
}

/// Counts one answered end-to-end query.
pub(crate) fn record_answered() {
    cached_counter!(
        "casper_queries_answered_total",
        "End-to-end queries answered with a full candidate list"
    )
    .inc();
}

// ---------------------------------------------------------------------
// Network client.

/// Counts a successful TCP (re)connect.
pub(crate) fn record_client_connect() {
    cached_counter!(
        "casper_net_client_connects_total",
        "Successful anonymizer-side TCP (re)connects"
    )
    .inc();
}

/// Counts an operation that entered the retry path.
pub(crate) fn record_client_retry() {
    cached_counter!(
        "casper_net_client_retries_total",
        "Anonymizer-side operations retried at least once"
    )
    .inc();
}

/// Counts `n` replayed cloaked regions.
pub(crate) fn record_client_replay(n: u64) {
    cached_counter!(
        "casper_net_client_replayed_total",
        "Cloaked regions replayed: to a restarted server, or after a failed push"
    )
    .add(n);
}

/// Records a detected server restart (boot-id change): counter + a
/// `replay` transition span in the trace of the operation that saw it,
/// since a replay storm is exactly what an operator wants to find there.
pub(crate) fn record_boot_change(dirtied: usize) {
    cached_counter!(
        "casper_net_boot_changes_total",
        "Server restarts detected through a boot-id change in an ack"
    )
    .inc();
    record_transition(
        "net",
        "replay",
        Duration::ZERO,
        format!("boot id changed; {dirtied} tracked regions marked for replay"),
    );
}

// ---------------------------------------------------------------------
// Network server (mirrors `NetStats`).

/// Cached registry handles mirroring the server's [`crate::net::NetStats`]
/// counters, incremented at the same sites, plus the reactor's wakeups
/// (registry-only).
pub(crate) struct NetServerTel {
    pub accepted: Arc<Counter>,
    pub rejected_connections: Arc<Counter>,
    pub active: Arc<Gauge>,
    pub frames: Arc<Counter>,
    pub oversize_frames: Arc<Counter>,
    pub checksum_failures: Arc<Counter>,
    pub wire_errors: Arc<Counter>,
    pub protocol_errors: Arc<Counter>,
    pub stale_updates: Arc<Counter>,
    pub connection_errors: Arc<Counter>,
    pub half_frame_disconnects: Arc<Counter>,
    pub overloaded_replies: Arc<Counter>,
    pub reactor_wakeups: Arc<Counter>,
}

/// The process-wide server-side mirror handles.
pub(crate) fn net_server() -> &'static NetServerTel {
    static T: OnceLock<NetServerTel> = OnceLock::new();
    T.get_or_init(|| {
        let r = registry();
        NetServerTel {
            accepted: r.counter(
                "casper_net_server_accepted_total",
                "Connections accepted by the networked server",
            ),
            rejected_connections: r.counter(
                "casper_net_server_rejected_total",
                "Connections closed immediately by the connection cap",
            ),
            active: r.gauge(
                "casper_net_server_active_connections",
                "Connections currently being served",
            ),
            frames: r.counter(
                "casper_net_server_frames_total",
                "Well-formed frames served",
            ),
            oversize_frames: r.counter(
                "casper_net_server_oversize_frames_total",
                "Frames rejected for advertising a payload over the cap",
            ),
            checksum_failures: r.counter(
                "casper_net_server_checksum_failures_total",
                "Frames rejected for a CRC mismatch",
            ),
            wire_errors: r.counter(
                "casper_net_server_wire_errors_total",
                "Frames that failed to decode",
            ),
            protocol_errors: r.counter(
                "casper_net_server_protocol_errors_total",
                "Protocol violations (unexpected message kinds, ...)",
            ),
            stale_updates: r.counter(
                "casper_net_server_stale_updates_total",
                "Cloaked updates discarded as stale by sequence number",
            ),
            connection_errors: r.counter(
                "casper_net_server_connection_errors_total",
                "Connections that terminated with an error",
            ),
            half_frame_disconnects: r.counter(
                "casper_net_server_half_frame_disconnects_total",
                "Clean client disconnects that fell mid-frame (not protocol errors)",
            ),
            overloaded_replies: r.counter(
                "casper_net_server_overloaded_replies_total",
                "Requests answered with an explicit overload shed instead of being served",
            ),
            reactor_wakeups: r.counter(
                "casper_net_server_reactor_wakeups_total",
                "Returns from the reactor's poll: socket readiness or a wake-socket poke",
            ),
        }
    })
}

// ---------------------------------------------------------------------
// Overload control (fail-private refusals, breakers).

/// Counts one refused request by reason
/// (`casper_overload_shed_total{reason=...}`).
pub(crate) fn record_shed(reason: &'static str) {
    static REASONS: LabelCache<Counter> = OnceLock::new();
    labelled(&REASONS, reason, || {
        registry().counter_with(
            "casper_overload_shed_total",
            "Requests refused instead of served, by reason",
            &[("reason", reason)],
        )
    })
    .inc();
}

/// Counts a circuit-breaker event (`casper_breaker_events_total{event=...}`:
/// `open` when a breaker trips, `fast_fail` per request it rejects).
pub(crate) fn record_breaker(event: &'static str) {
    static EVENTS: LabelCache<Counter> = OnceLock::new();
    labelled(&EVENTS, event, || {
        registry().counter_with(
            "casper_breaker_events_total",
            "Client circuit-breaker events, by kind",
            &[("event", event)],
        )
    })
    .inc();
}

// ---------------------------------------------------------------------
// Sharded anonymizer.

/// Refreshes the per-shard load gauge.
pub(crate) fn record_shard_state(shard: usize, users: usize) {
    registry()
        .gauge_with(
            "casper_shard_users",
            "Registered users per anonymizer shard",
            &[("shard", shard_label(shard))],
        )
        .set(users as i64);
}

/// Leak-free label strings for small shard indexes ("0".."63" are
/// interned statically; larger fleets get a leaked string once per shard,
/// bounded by the shard count).
fn shard_label(shard: usize) -> &'static str {
    const SMALL: [&str; 64] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
        "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29", "30", "31",
        "32", "33", "34", "35", "36", "37", "38", "39", "40", "41", "42", "43", "44", "45", "46",
        "47", "48", "49", "50", "51", "52", "53", "54", "55", "56", "57", "58", "59", "60", "61",
        "62", "63",
    ];
    if shard < SMALL.len() {
        SMALL[shard]
    } else {
        Box::leak(shard.to_string().into_boxed_str())
    }
}

// ---------------------------------------------------------------------
// Durability (WAL, checkpoints, recovery).

/// Records one WAL group-commit flush of `bytes` bytes.
pub(crate) fn wal_flush(bytes: u64) {
    cached_counter!(
        "casper_wal_flushes_total",
        "WAL group-commit flushes (append + fsync round-trips)"
    )
    .inc();
    cached_counter!("casper_wal_bytes_total", "Bytes appended to the WAL").add(bytes);
}

/// Records one checkpoint written, with its size.
pub(crate) fn checkpoint_written(bytes: u64) {
    cached_counter!(
        "casper_checkpoints_total",
        "Anonymizer checkpoints written (WAL rotations)"
    )
    .inc();
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "casper_checkpoint_bytes",
            "Size of written anonymizer checkpoints, bytes",
        )
    })
    .observe(bytes);
}

/// Records a completed recovery: duration histogram, replay/truncation
/// counters, and a transition span covering the recovery that an
/// operator can correlate with the §8 replay storm that follows a
/// boot-epoch change.
pub(crate) fn recovery_done(report: &crate::durability::RecoveryReport) {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "casper_recovery_duration_ns",
            "Wall-clock duration of trusted-tier crash recovery, nanoseconds",
        )
    })
    .observe_duration(report.duration);
    cached_counter!(
        "casper_recovery_records_replayed_total",
        "WAL records replayed during recovery"
    )
    .add(report.replayed as u64);
    cached_counter!(
        "casper_recovery_truncated_bytes_total",
        "Torn WAL-tail bytes discarded during recovery"
    )
    .add(report.truncated_bytes);
    record_transition(
        "durability",
        "recovered",
        report.duration,
        format!(
            "epoch {}: checkpoint {:?} + {} replayed, {} bytes torn",
            report.boot_epoch, report.checkpoint_seq, report.replayed, report.truncated_bytes
        ),
    );
}

// ---------------------------------------------------------------------
// Replication (WAL shipping, failover).

/// Counts an endpoint rotation by a multi-endpoint client.
pub(crate) fn record_client_failover() {
    cached_counter!(
        "casper_net_client_failovers_total",
        "Endpoint rotations by multi-endpoint clients after a failed attempt"
    )
    .inc();
}

/// Publishes the primary's replication lag (locally committed ops not
/// yet durably acked by the standby).
pub(crate) fn replication_lag(ops: u64) {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| {
        registry().gauge(
            "casper_replication_lag_ops",
            "Operations committed on the primary but not yet durably acked by the standby",
        )
    })
    .set(ops as i64);
}

/// Counts one shipped replication frame and the records it carried
/// (a zero-record frame is a heartbeat).
pub(crate) fn record_replication_ship(records: usize) {
    cached_counter!(
        "casper_replication_frames_total",
        "Replication frames shipped to the standby (including heartbeats)"
    )
    .inc();
    cached_counter!(
        "casper_replication_records_total",
        "WAL records shipped to the standby"
    )
    .add(records as u64);
}

/// Counts a `Replicate` frame the standby answered with a gap: its chain
/// ended below the frame's first record, so nothing in it was applied.
pub(crate) fn record_replication_gap() {
    cached_counter!(
        "casper_replication_gaps_total",
        "Replication frames the standby answered with a gap (nothing applied, sender rewinds)"
    )
    .inc();
}

/// Records a standby promotion: counter + transition span carrying the
/// new epoch, the signal an operator correlates with the client replay
/// storm.
pub(crate) fn record_promotion(epoch: u64) {
    cached_counter!(
        "casper_replication_promotions_total",
        "Standby self-promotions after heartbeat silence"
    )
    .inc();
    record_transition(
        "replication",
        "promoted",
        Duration::ZERO,
        format!("standby promoted to primary at epoch {epoch}"),
    );
}

/// Counts a primary fencing itself after seeing a higher ack epoch.
pub(crate) fn record_fenced() {
    cached_counter!(
        "casper_replication_fenced_total",
        "Primaries that fenced themselves after a standby promotion superseded their epoch"
    )
    .inc();
}

// ---------------------------------------------------------------------
// Continuous queries (qp-cache incremental maintenance).

/// Counts continuous-query refresh outcomes
/// (`casper_continuous_refreshes_total{outcome=...}`): `reuse` = cached
/// candidates still valid, `reevaluate` = region changed, `stale` = a
/// covered target changed while the region stayed put.
pub(crate) fn record_continuous(outcome: &'static str) {
    static OUTCOMES: LabelCache<Counter> = OnceLock::new();
    labelled(&OUTCOMES, outcome, || {
        registry().counter_with(
            "casper_continuous_refreshes_total",
            "Continuous-query refresh outcomes under incremental maintenance",
            &[("outcome", outcome)],
        )
    })
    .inc();
}

// ---------------------------------------------------------------------
// Fault injection.

/// Counts one injected fault of the given kind
/// (`casper_chaos_injected_total{kind=...}`).
pub(crate) fn record_injected_fault(kind: &'static str) {
    static KINDS: LabelCache<Counter> = OnceLock::new();
    labelled(&KINDS, kind, || {
        registry().counter_with(
            "casper_chaos_injected_total",
            "Faults injected by the chaos proxy, by kind",
            &[("kind", kind)],
        )
    })
    .inc();
}
