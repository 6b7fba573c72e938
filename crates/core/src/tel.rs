//! Telemetry probes for the framework layer.
//!
//! Each probe caches its registry handle in a `OnceLock`, so the hot
//! paths (frame serving, retries, pipeline stages) pay only relaxed
//! atomic operations after the first observation. Flight-recorder events
//! go to [`casper_telemetry::flight`] so a degraded query, a shard
//! quarantine, or a boot-id-change replay can be reconstructed after the
//! fact.

// The cached registry handles are `OnceLock<Mutex<Vec<(label, Arc<_>)>>>`
// by design: splitting them into named aliases would scatter one probe's
// state across the file without making any call site simpler.
#![allow(clippy::type_complexity)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use casper_telemetry::{flight, registry, Counter, Gauge, Histogram};

/// One cached counter handle per call site.
macro_rules! cached_counter {
    ($name:literal, $help:literal) => {{
        static H: OnceLock<Arc<Counter>> = OnceLock::new();
        H.get_or_init(|| registry().counter($name, $help))
    }};
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

/// Adopts a captured context on the calling thread (worker pools; only
/// the overload admission queue hops threads today).
pub(crate) fn span_adopt(ctx: casper_telemetry::SpanContext) -> casper_telemetry::ContextGuard {
    casper_telemetry::spans().adopt(ctx)
}

/// Promotes a trace for tail-keep (shed / degraded / retried requests).
pub(crate) fn span_flag(trace_id: u64) {
    casper_telemetry::spans().flag(trace_id);
}

/// Records a span with explicit endpoints under `ctx` (intervals measured
/// before the recording thread had any context, e.g. admission sojourn).
pub(crate) fn span_manual(
    ctx: casper_telemetry::SpanContext,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    outcome: &'static str,
    detail: String,
) {
    casper_telemetry::spans().record_manual(ctx, name, start_ns, end_ns, outcome, detail);
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
    brownout: u8,
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
        brownout,
        served,
        shed_reason,
    });
}

// ---------------------------------------------------------------------
// Pipeline stages (the Figure 17 breakdown, live).

/// Records one pipeline-stage span: latency histogram plus flight event.
pub(crate) fn record_stage(trace_id: u64, stage: &'static str, outcome: &'static str, d: Duration) {
    stage_histogram(stage).observe_duration(d);
    flight().record(trace_id, stage, outcome, d, "");
}

/// The per-stage latency histogram (`stage` ∈ anonymizer / query /
/// transmission / end_to_end / net_query / net_flush).
pub(crate) fn stage_histogram(stage: &'static str) -> Arc<Histogram> {
    static STAGES: OnceLock<parking_lot::Mutex<Vec<(&'static str, Arc<Histogram>)>>> =
        OnceLock::new();
    let stages = STAGES.get_or_init(|| parking_lot::Mutex::new(Vec::new()));
    let mut stages = stages.lock();
    if let Some((_, h)) = stages.iter().find(|(s, _)| *s == stage) {
        return Arc::clone(h);
    }
    let h = registry().histogram_with(
        "casper_stage_latency_ns",
        "Per-stage latency of the privacy-aware query pipeline, nanoseconds",
        &[("stage", stage)],
    );
    stages.push((stage, Arc::clone(&h)));
    h
}

/// Counts one degraded end-to-end query and leaves its trace in the
/// flight recorder.
pub(crate) fn record_degraded(trace_id: u64, pending: usize, error: &str) {
    cached_counter!(
        "casper_queries_degraded_total",
        "End-to-end queries answered in degraded mode (transport down)"
    )
    .inc();
    flight().record(
        trace_id,
        "pipeline",
        "degraded",
        Duration::ZERO,
        format!("{pending} pending updates; {error}"),
    );
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
// RemoteCasper pending buffer (satellite 1: the latest-wins blind spot).

/// Updates the pending-queue gauges after a queue mutation.
pub(crate) fn record_pending_depth(depth: usize) {
    static DEPTH: OnceLock<Arc<Gauge>> = OnceLock::new();
    static HIGH: OnceLock<Arc<Gauge>> = OnceLock::new();
    DEPTH
        .get_or_init(|| {
            registry().gauge(
                "casper_pending_updates",
                "Cloaked updates queued while the transport is down",
            )
        })
        .set(depth as i64);
    HIGH.get_or_init(|| {
        registry().gauge(
            "casper_pending_updates_high_water",
            "Highest pending-update queue depth seen",
        )
    })
    .max_of(depth as i64);
}

/// Counts a pending update silently replaced by a newer one for the same
/// user (latest-wins coalescing).
pub(crate) fn record_pending_overwrite() {
    cached_counter!(
        "casper_pending_overwritten_total",
        "Queued cloaked updates replaced by a newer one for the same user before transmission"
    )
    .inc();
}

/// Counts a pending update evicted because the queue hit its cap.
pub(crate) fn record_pending_drop() {
    cached_counter!(
        "casper_pending_dropped_total",
        "Queued cloaked updates evicted because the pending buffer was full"
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
        "Cloaked regions replayed to a restarted server"
    )
    .add(n);
}

/// Records a detected server restart (boot-id change): counter + flight
/// event, since a replay storm is exactly what an operator wants to see
/// in the recorder.
pub(crate) fn record_boot_change(dirtied: usize) {
    cached_counter!(
        "casper_net_boot_changes_total",
        "Server restarts detected through a boot-id change in an ack"
    )
    .inc();
    flight().record(
        0,
        "net",
        "replay",
        Duration::ZERO,
        format!("boot id changed; {dirtied} tracked regions marked for replay"),
    );
}

// ---------------------------------------------------------------------
// Network server (mirrors `NetStats`).

/// Cached registry handles mirroring the server's [`crate::net::NetStats`]
/// counters, incremented at the same sites.
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
        }
    })
}

// ---------------------------------------------------------------------
// Overload control (admission gates, brownout, breakers).

/// Counts one shed request by reason
/// (`casper_overload_shed_total{reason=...}`).
pub(crate) fn record_shed(reason: &'static str) {
    static REASONS: OnceLock<parking_lot::Mutex<Vec<(&'static str, Arc<Counter>)>>> =
        OnceLock::new();
    let reasons = REASONS.get_or_init(|| parking_lot::Mutex::new(Vec::new()));
    let mut reasons = reasons.lock();
    if let Some((_, c)) = reasons.iter().find(|(k, _)| *k == reason) {
        c.inc();
        return;
    }
    let c = registry().counter_with(
        "casper_overload_shed_total",
        "Requests shed by the overload subsystem, by reason",
        &[("reason", reason)],
    );
    c.inc();
    reasons.push((reason, c));
}

/// Counts one request admitted past the overload gates.
pub(crate) fn record_admitted() {
    cached_counter!(
        "casper_overload_admitted_total",
        "Requests admitted past the overload gates and executed"
    )
    .inc();
}

/// Records one observed admission-queue sojourn time.
pub(crate) fn record_sojourn(d: Duration) {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "casper_overload_sojourn_ns",
            "Admission-queue sojourn time of executed requests, nanoseconds",
        )
    })
    .observe_duration(d);
}

/// Publishes the brownout level now in force.
pub(crate) fn record_brownout_level(level: crate::overload::BrownoutLevel) {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| {
        registry().gauge(
            "casper_brownout_level",
            "Brownout degradation level in force (0 = normal, 3 = essential)",
        )
    })
    .set(i64::from(level.index()));
}

/// Counts a circuit-breaker event (`casper_breaker_events_total{event=...}`:
/// `open` when a breaker trips, `fast_fail` per request it rejects).
pub(crate) fn record_breaker(event: &'static str) {
    static EVENTS: OnceLock<parking_lot::Mutex<Vec<(&'static str, Arc<Counter>)>>> =
        OnceLock::new();
    let events = EVENTS.get_or_init(|| parking_lot::Mutex::new(Vec::new()));
    let mut events = events.lock();
    if let Some((_, c)) = events.iter().find(|(k, _)| *k == event) {
        c.inc();
        return;
    }
    let c = registry().counter_with(
        "casper_breaker_events_total",
        "Client circuit-breaker events, by kind",
        &[("event", event)],
    );
    c.inc();
    events.push((event, c));
}

/// Counts a pending cloaked update expired by its deadline before it
/// could be flushed (satellite 1: the latest-wins queue also ages out).
pub(crate) fn record_pending_expired() {
    cached_counter!(
        "casper_pending_expired_total",
        "Queued cloaked updates expired by age before transmission"
    )
    .inc();
}

// ---------------------------------------------------------------------
// Sharded anonymizer.

/// Refreshes the per-shard load/online gauges.
pub(crate) fn record_shard_state(shard: usize, users: usize, online: bool) {
    let shard_label = shard_label(shard);
    registry()
        .gauge_with(
            "casper_shard_users",
            "Registered users per anonymizer shard",
            &[("shard", shard_label)],
        )
        .set(users as i64);
    registry()
        .gauge_with(
            "casper_shard_online",
            "Shard availability (1 = serving, 0 = quarantined)",
            &[("shard", shard_label)],
        )
        .set(i64::from(online));
}

/// Records a quarantine/restore transition: gauge flip + flight event.
pub(crate) fn record_shard_transition(shard: usize, users: usize, online: bool) {
    record_shard_state(shard, users, online);
    cached_counter!(
        "casper_shard_transitions_total",
        "Shard quarantine/restore transitions"
    )
    .inc();
    flight().record(
        0,
        "shard",
        if online { "restore" } else { "quarantine" },
        Duration::ZERO,
        format!("shard {shard}, {users} users affected"),
    );
}

/// Updates the parked-user gauge (users waiting for a shard to return).
pub(crate) fn record_parked(parked: usize) {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| {
        registry().gauge(
            "casper_shard_parked_users",
            "User updates parked while their home shard is quarantined",
        )
    })
    .set(parked as i64);
}

/// Counts a parked update dropped because the parking buffer was full.
pub(crate) fn record_parked_drop() {
    cached_counter!(
        "casper_shard_parked_dropped_total",
        "Parked user updates evicted because the parking buffer was full"
    )
    .inc();
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
/// counters, and a flight-recorder event an operator can correlate with
/// the §8 replay storm that follows a boot-epoch change.
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
    flight().record(
        0,
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

/// Records a standby promotion: counter + flight event carrying the new
/// epoch, the signal an operator correlates with the client replay storm.
pub(crate) fn record_promotion(epoch: u64) {
    cached_counter!(
        "casper_replication_promotions_total",
        "Standby self-promotions after heartbeat silence"
    )
    .inc();
    flight().record(
        0,
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
    static OUTCOMES: OnceLock<parking_lot::Mutex<Vec<(&'static str, Arc<Counter>)>>> =
        OnceLock::new();
    let outcomes = OUTCOMES.get_or_init(|| parking_lot::Mutex::new(Vec::new()));
    let mut outcomes = outcomes.lock();
    if let Some((_, c)) = outcomes.iter().find(|(k, _)| *k == outcome) {
        c.inc();
        return;
    }
    let c = registry().counter_with(
        "casper_continuous_refreshes_total",
        "Continuous-query refresh outcomes under incremental maintenance",
        &[("outcome", outcome)],
    );
    c.inc();
    outcomes.push((outcome, c));
}

// ---------------------------------------------------------------------
// Fault injection.

/// Counts one injected fault of the given kind
/// (`casper_chaos_injected_total{kind=...}`).
#[cfg(feature = "faults")]
pub(crate) fn record_injected_fault(kind: &'static str) {
    static KINDS: OnceLock<parking_lot::Mutex<Vec<(&'static str, Arc<Counter>)>>> = OnceLock::new();
    let kinds = KINDS.get_or_init(|| parking_lot::Mutex::new(Vec::new()));
    let mut kinds = kinds.lock();
    if let Some((_, c)) = kinds.iter().find(|(k, _)| *k == kind) {
        c.inc();
        return;
    }
    let c = registry().counter_with(
        "casper_chaos_injected_total",
        "Faults injected by the chaos proxy, by kind",
        &[("kind", kind)],
    );
    c.inc();
    kinds.push((kind, c));
}
