//! Failover cost: client-visible downtime and replication lag across
//! seeded primary kills.
//!
//! ```text
//! cargo run --release -p casper-bench --bin failover
//! ```
//!
//! Each run assembles a full replica pair — a `ReplicatedAnonymizer`
//! primary streaming its WAL to a hot `Standby` behind a real
//! `NetworkServer` — drives a registration/movement workload while
//! sampling replication lag, then kills the primary (process and
//! serving plane together) and measures, with a two-endpoint
//! `NetworkClient` in the loop:
//!
//! * **downtime_ms** — last acknowledged client update before the kill
//!   to the first acknowledged update against the promoted standby;
//!   the headline availability number (CI gates its p99 at 2 s).
//! * **promotion_ms** — kill to the standby's self-promotion (heartbeat
//!   silence detection plus the durable epoch bump).
//! * **lag_ops** — ops committed locally but not yet durably acked by
//!   the standby, sampled after every workload op.
//!
//! After every failover the promoted population is re-cloaked and each
//! decision recorded in the privacy audit plane; the run fails if any
//! served region violates its `(k, A_min)` profile, and the log is
//! dumped as `AUDIT_failover.jsonl` for the post-hoc `privacy_audit`
//! gate. Results land in `BENCH_failover.json` (schema v1).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use casper_core::durability::{DurabilityConfig, DurableAnonymizer, MemStorage};
use casper_core::engine::AnonymizerService;
use casper_core::net::ServerConfig;
use casper_core::{
    CasperServer, ClientConfig, DurabilityMode, NetworkClient, NetworkServer, PrivateHandle,
    ReplicatedAnonymizer, ReplicationConfig, RetryPolicy, ShardedAnonymizer, Standby,
};
use casper_geometry::{Point, Rect};
use casper_grid::{Profile, UserId};
use casper_qp::FilterCount;
use casper_telemetry::{now_ns, AuditRecord, PrivacyAuditor};
use rand::{rngs::StdRng, Rng, SeedableRng};

const RUNS: u64 = 24;
const USERS_PER_RUN: u64 = 60;
const MOVES_PER_RUN: usize = 120;

type Durable = DurableAnonymizer<ShardedAnonymizer, MemStorage>;

fn recover(storage: &Arc<MemStorage>) -> Arc<Durable> {
    let (d, _) = DurableAnonymizer::recover(
        Arc::clone(storage),
        DurabilityConfig {
            checkpoint_every: Some(64),
        },
        || ShardedAnonymizer::new(6, 1),
    )
    .expect("bootstrap");
    Arc::new(d)
}

fn repl_cfg() -> ReplicationConfig {
    ReplicationConfig {
        mode: DurabilityMode::StandbyFsync,
        heartbeat_interval: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(100),
        ack_timeout: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(100),
        io_timeout: Duration::from_millis(50),
        reconnect_backoff: Duration::from_millis(5),
    }
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(150),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        retry: RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(5),
            multiplier: 1.5,
            max_delay: Duration::from_millis(25),
            jitter: 0.2,
        },
        jitter_seed: 17,
        ..ClientConfig::default()
    }
}

struct RunResult {
    downtime_ms: f64,
    promotion_ms: f64,
    lag_samples: Vec<u64>,
    promoted_users: usize,
}

/// Re-cloaks the promoted population and records every decision in the
/// audit plane. Returns the number of served regions.
fn audit_promoted_state(durable: &Durable) -> usize {
    let audit = casper_telemetry::audit();
    let mut served = 0usize;
    for uid in durable.user_ids() {
        let profile = durable.profile_of(uid).expect("registered user");
        match durable.cloak(uid) {
            Some(region) => {
                served += 1;
                audit.record(AuditRecord {
                    ts_ns: now_ns(),
                    trace_id: 0,
                    uid: uid.0,
                    k_required: profile.k,
                    k_achieved: region.user_count,
                    a_min: profile.a_min,
                    area: region.rect.area(),
                    level: region.level,
                    served: true,
                    shed_reason: "",
                });
            }
            None => audit.record(AuditRecord {
                ts_ns: now_ns(),
                trace_id: 0,
                uid: uid.0,
                k_required: profile.k,
                k_achieved: 0,
                a_min: profile.a_min,
                area: 0.0,
                level: 255,
                served: false,
                shed_reason: "post_failover_unavailable",
            }),
        }
    }
    served
}

fn run_failover(seed: u64) -> RunResult {
    let cfg = repl_cfg();

    let standby_storage = Arc::new(MemStorage::new());
    let standby_durable = recover(&standby_storage);
    let s2 = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig::default(),
    )
    .expect("standby server");
    let standby = Standby::attach(Arc::clone(&standby_durable), Arc::clone(s2.plane()), cfg);

    let primary_storage = Arc::new(MemStorage::new());
    let primary_durable = recover(&primary_storage);
    let primary_epoch = primary_durable.boot_epoch();
    let s1 = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig {
            boot_id: Some(primary_epoch),
            ..ServerConfig::default()
        },
    )
    .expect("primary server");
    let primary = ReplicatedAnonymizer::new(Arc::clone(&primary_durable), s2.addr(), cfg);

    // Workload with lag sampling.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut lag_samples = Vec::with_capacity(USERS_PER_RUN as usize + MOVES_PER_RUN);
    for i in 0..USERS_PER_RUN {
        let profile = Profile::new(rng.gen_range(1u32..=6), rng.gen_range(0.0..0.02));
        let pos = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        primary
            .try_register(UserId(i + 1), profile, pos)
            .expect("register");
        lag_samples.push(primary.lag() as u64);
    }
    for _ in 0..MOVES_PER_RUN {
        let uid = UserId(rng.gen_range(1..=USERS_PER_RUN));
        let pos = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        primary.try_update_location(uid, pos).expect("move");
        lag_samples.push(primary.lag() as u64);
    }

    // NOTE: the primary ships to the *standby's* server; s1 exists as
    // the primary's client-facing plane. The failover measurement needs
    // both endpoints registered at the client before the kill.
    let mut client = NetworkClient::with_endpoints(vec![s1.addr(), s2.addr()], client_cfg());
    let region = Rect::from_coords(0.2, 0.2, 0.4, 0.4);
    client
        .push_update(PrivateHandle(1), region)
        .expect("pre-kill client update");
    let last_ok = Instant::now();

    // Kill the primary node: replication sender and serving plane die
    // together.
    drop(primary);
    s1.shutdown();
    let killed = Instant::now();

    // Promotion latency.
    let promoted = loop {
        if standby.is_promoted() {
            break Instant::now();
        }
        assert!(
            killed.elapsed() < Duration::from_secs(10),
            "seed {seed}: standby never promoted"
        );
        std::thread::sleep(Duration::from_millis(1));
    };

    // Client-visible downtime: last pre-kill success to first
    // post-failover success.
    let first_ok = loop {
        if client.push_update(PrivateHandle(1), region).is_ok() {
            break Instant::now();
        }
        assert!(
            killed.elapsed() < Duration::from_secs(10),
            "seed {seed}: client never recovered"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(
        client.server_boot(),
        Some(standby_durable.boot_epoch()),
        "seed {seed}: resumed acks must carry the promoted epoch"
    );

    let promoted_users = audit_promoted_state(&standby_durable);
    drop(standby);
    s2.shutdown();

    RunResult {
        downtime_ms: first_ok.duration_since(last_ok).as_secs_f64() * 1e3,
        promotion_ms: promoted.duration_since(killed).as_secs_f64() * 1e3,
        lag_samples,
        promoted_users,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mode_repl = repl_cfg();
    println!("=== failover: client-visible downtime across seeded primary kills ===");
    println!(
        "runs: {RUNS}; users/run: {USERS_PER_RUN}; moves/run: {MOVES_PER_RUN}; \
         mode: {:?}; heartbeat {} ms / timeout {} ms",
        mode_repl.mode,
        mode_repl.heartbeat_interval.as_millis(),
        mode_repl.heartbeat_timeout.as_millis()
    );

    let mut downtimes = Vec::new();
    let mut promotions = Vec::new();
    let mut lags: Vec<u64> = Vec::new();
    let mut total_promoted_users = 0usize;
    for seed in 0..RUNS {
        let r = run_failover(seed);
        println!(
            "run {seed:>2}: downtime {:7.1} ms, promotion {:6.1} ms, peak lag {:>3} ops, \
             {} users promoted",
            r.downtime_ms,
            r.promotion_ms,
            r.lag_samples.iter().max().copied().unwrap_or(0),
            r.promoted_users
        );
        downtimes.push(r.downtime_ms);
        promotions.push(r.promotion_ms);
        lags.extend(r.lag_samples);
        total_promoted_users += r.promoted_users;
    }
    downtimes.sort_by(f64::total_cmp);
    promotions.sort_by(f64::total_cmp);
    lags.sort_unstable();
    let lag_f: Vec<f64> = lags.iter().map(|&l| l as f64).collect();

    let down_p50 = percentile(&downtimes, 50.0);
    let down_p90 = percentile(&downtimes, 90.0);
    let down_p99 = percentile(&downtimes, 99.0);
    let promo_p50 = percentile(&promotions, 50.0);
    let promo_p99 = percentile(&promotions, 99.0);
    let lag_p50 = percentile(&lag_f, 50.0);
    let lag_p99 = percentile(&lag_f, 99.0);
    let lag_max = lags.last().copied().unwrap_or(0);

    println!(
        "downtime_ms: p50 {down_p50:.1}, p90 {down_p90:.1}, p99 {down_p99:.1} (gate: p99 <= 2000)"
    );
    println!("promotion_ms: p50 {promo_p50:.1}, p99 {promo_p99:.1}");
    println!("replication lag (ops): p50 {lag_p50:.0}, p99 {lag_p99:.0}, max {lag_max}");

    // The privacy audit over every promoted population: zero served
    // violations, dumped for the post-hoc CI gate.
    let audit = casper_telemetry::audit();
    std::fs::write("AUDIT_failover.jsonl", audit.render_jsonl())
        .expect("write AUDIT_failover.jsonl");
    let report = PrivacyAuditor::audit(&audit.dump());
    print!("{report}");
    println!("wrote AUDIT_failover.jsonl ({} records)", audit.len());
    assert!(
        report.is_clean(),
        "a promoted standby served a privacy-violating region"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema_version\": {},\n  \"bench\": \"failover\",\n  \"runs\": {RUNS},\n  \
         \"users_per_run\": {USERS_PER_RUN},\n  \"moves_per_run\": {MOVES_PER_RUN},\n  \
         \"mode\": \"standby-fsync\",\n  \"heartbeat_interval_ms\": {},\n  \
         \"heartbeat_timeout_ms\": {},\n  \"downtime_ms\": {{\"p50\": {down_p50:.2}, \
         \"p90\": {down_p90:.2}, \"p99\": {down_p99:.2}}},\n  \
         \"promotion_ms\": {{\"p50\": {promo_p50:.2}, \"p99\": {promo_p99:.2}}},\n  \
         \"replication_lag_ops\": {{\"p50\": {lag_p50:.1}, \"p99\": {lag_p99:.1}, \
         \"max\": {lag_max}}},\n  \"promoted_users_total\": {total_promoted_users},\n  \
         \"privacy_violations\": {},\n  \"audit_records\": {}\n}}\n",
        casper_bench::SCHEMA_VERSION,
        mode_repl.heartbeat_interval.as_millis(),
        mode_repl.heartbeat_timeout.as_millis(),
        report.violations.len(),
        report.total,
    );
    std::fs::write("BENCH_failover.json", &json).expect("write BENCH_failover.json");
    println!("wrote BENCH_failover.json");
}
