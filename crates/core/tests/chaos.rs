//! Chaos tests: drive real update + query traffic through the
//! deterministic fault-injection proxy at several seeded fault rates and
//! prove the resilient client heals around every injected failure —
//! zero client-visible errors, candidate lists identical to a fault-free
//! run, and a final server private-region state equal to the fault-free
//! run.
//!
//! The client's overload surface against a dead or black-holed peer is
//! tested here too: an expired deadline fails fast before the socket, the
//! circuit breaker fast-fails after repeated timeouts, and a retry gives
//! up when the remaining budget cannot cover another attempt.

use std::time::{Duration, Instant};

use casper_core::faults::{ChaosProxy, FaultConfig};
use casper_core::net::{ClientConfig, NetworkClient, NetworkServer};
use casper_core::overload::BreakerConfig;
use casper_core::{CasperServer, NetError, PrivateHandle, RetryPolicy};
use casper_geometry::{Point, Rect};
use casper_index::ObjectId;
use casper_qp::FilterCount;

fn targets() -> Vec<(ObjectId, Point)> {
    (0..100u64)
        .map(|i| {
            (
                ObjectId(i),
                Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
            )
        })
        .collect()
}

/// Deterministic cloaked region for update number `round` of `handle`.
fn update_region(handle: u64, round: u64) -> Rect {
    let x = ((handle * 7 + round * 13) % 90) as f64 / 100.0;
    let y = ((handle * 11 + round * 3) % 90) as f64 / 100.0;
    Rect::from_coords(x, y, x + 0.06, y + 0.06)
}

/// Deterministic region for query number `i`.
fn query_region(i: u64) -> Rect {
    let x = ((i * 17) % 60) as f64 / 100.0 + 0.1;
    let y = ((i * 29) % 60) as f64 / 100.0 + 0.1;
    Rect::from_coords(x, y, x + 0.2, y + 0.2)
}

/// A client tuned for a lossy link: tight read timeout (a dropped
/// response should cost milliseconds, not seconds) and a deep retry
/// budget. Spurious timeouts are harmless — retries are idempotent.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(25),
        write_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 40,
            base_delay: Duration::from_millis(2),
            multiplier: 1.3,
            max_delay: Duration::from_millis(20),
            jitter: 0.2,
        },
        jitter_seed: 0x7E57,
        ..ClientConfig::default()
    }
}

/// Runs `updates` cloaked updates over `handles` handles with one query
/// per five updates, all through a chaos proxy at `faults`, comparing
/// every candidate list and the final private-region state against an
/// in-process mirror server applying the identical update stream.
fn run_chaos_workload(faults: FaultConfig, handles: u64, updates: u64, queries: u64) {
    let mut backend = CasperServer::new();
    backend.load_public_targets(targets());
    let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
    let proxy = ChaosProxy::spawn(server.addr(), faults).unwrap();
    let mut client = NetworkClient::with_config(proxy.addr(), chaos_client_config());

    let mut mirror = CasperServer::new();
    mirror.load_public_targets(targets());

    let per_query = updates / queries.max(1);
    let mut queries_run = 0u64;
    for u in 0..updates {
        let handle = u % handles;
        let round = u / handles;
        let region = update_region(handle, round);
        // Zero client-visible errors: every update must come back Ok.
        client
            .push_update(PrivateHandle(handle), region)
            .unwrap_or_else(|e| panic!("update {u} failed through chaos: {e}"));
        mirror.upsert_private_region(PrivateHandle(handle), region);
        if per_query > 0 && u % per_query == per_query - 1 && queries_run < queries {
            let region = query_region(queries_run);
            let got = client
                .query_nn(queries_run, region)
                .unwrap_or_else(|e| panic!("query {queries_run} failed through chaos: {e}"));
            let mut got: Vec<u64> = got.iter().map(|e| e.id.0).collect();
            let (want, _) = mirror.nn_public(&region, FilterCount::Four);
            let mut want: Vec<u64> = want.candidates.iter().map(|e| e.id.0).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "query {queries_run}: candidates diverged from fault-free run"
            );
            queries_run += 1;
        }
    }
    assert_eq!(queries_run, queries, "workload did not run every query");

    // The server's final private-region state equals the fault-free run:
    // same handles, same regions, nothing lost, nothing stale.
    let mut net_state = server.with_server(|s| s.private_entries());
    let mut mirror_state = mirror.private_entries();
    net_state.sort_by_key(|e| e.id.0);
    mirror_state.sort_by_key(|e| e.id.0);
    assert_eq!(net_state.len(), mirror_state.len());
    for (a, b) in net_state.iter().zip(&mirror_state) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.mbr, b.mbr, "handle {}: region diverged", a.id.0);
    }

    let injected = proxy.injected();
    let stats = client.stats();
    if faults.drop_frame + faults.corrupt_frame + faults.truncate_frame + faults.disconnect > 0.0 {
        assert!(injected > 0, "chaos config injected nothing");
        assert!(
            stats.retries > 0 || stats.connects > 1,
            "faults were injected but the client never healed: {stats:?}"
        );
    }
    // The per-kind tally decomposes the aggregate exactly.
    let tally = proxy.tally();
    assert_eq!(
        tally.total(),
        injected,
        "per-kind tally must sum to the aggregate count"
    );
    // Every injected fault and every observed retry also lands in the
    // telemetry registry. The registry is process-global and other chaos
    // tests run in parallel, so the registry can only be *at least* this
    // proxy's contribution.
    let reg = casper_telemetry::registry();
    for (kind, count) in [
        ("drop", tally.drops),
        ("corrupt", tally.corrupts),
        ("truncate", tally.truncates),
        ("disconnect", tally.disconnects),
        ("delay", tally.delays),
    ] {
        if count == 0 {
            continue;
        }
        let counter = reg.counter_with(
            "casper_chaos_injected_total",
            "Faults injected by the chaos proxy, by kind",
            &[("kind", kind)],
        );
        assert!(
            counter.get() >= count,
            "registry saw {} injected {kind} faults, proxy tallied {count}",
            counter.get()
        );
    }
    if stats.retries > 0 {
        let retries = reg.counter(
            "casper_net_client_retries_total",
            "Anonymizer-side operations retried at least once",
        );
        assert!(
            retries.get() >= stats.retries,
            "registry retries {} < client-observed {}",
            retries.get(),
            stats.retries
        );
    }
    proxy.shutdown();
    server.shutdown();
}

/// The acceptance workload: 10% frame drop plus random mid-stream
/// disconnects at a fixed seed, 1,000 updates and 200 queries.
#[test]
fn chaos_ten_percent_drop_with_disconnects() {
    run_chaos_workload(
        FaultConfig {
            seed: 0xCA5_0001,
            drop_frame: 0.10,
            disconnect: 0.01,
            ..FaultConfig::default()
        },
        25,
        1000,
        200,
    );
}

/// Mild chaos across every fault kind, including detectable corruption
/// and torn (truncated) frames.
#[test]
fn chaos_mild_mixed_faults() {
    run_chaos_workload(
        FaultConfig {
            seed: 0xCA5_0002,
            drop_frame: 0.02,
            corrupt_frame: 0.02,
            truncate_frame: 0.01,
            disconnect: 0.01,
            delay_frame: 0.05,
            delay: Duration::from_millis(2),
        },
        20,
        300,
        60,
    );
}

/// Aggressive chaos: nearly a quarter of all frames are damaged.
#[test]
fn chaos_aggressive_mixed_faults() {
    run_chaos_workload(
        FaultConfig {
            seed: 0xCA5_0003,
            drop_frame: 0.12,
            corrupt_frame: 0.05,
            truncate_frame: 0.03,
            disconnect: 0.03,
            ..FaultConfig::default()
        },
        20,
        300,
        60,
    );
}

/// Corrupted frames are *detected* (CRC) server-side and surface in the
/// hardened server's error accounting rather than decoding into bogus
/// regions.
#[test]
fn chaos_corruption_is_detected_not_absorbed() {
    let mut backend = CasperServer::new();
    backend.load_public_targets(targets());
    let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
    let proxy = ChaosProxy::spawn(
        server.addr(),
        FaultConfig {
            seed: 0xCA5_0004,
            corrupt_frame: 0.25,
            ..FaultConfig::default()
        },
    )
    .unwrap();
    let mut client = NetworkClient::with_config(proxy.addr(), chaos_client_config());
    for u in 0..200u64 {
        let handle = u % 10;
        client
            .push_update(PrivateHandle(handle), update_region(handle, u / 10))
            .unwrap();
    }
    let stats = server.stats();
    assert!(
        stats.checksum_failures > 0,
        "corruption at 25% never tripped the CRC: {stats:?}"
    );
    // And despite it, state is exactly the fault-free state.
    assert_eq!(server.with_server(|s| s.private_count()), 10);
    proxy.shutdown();
    server.shutdown();
}

/// The pipelined client through chaos: windows of 4 and 32 frames in
/// flight across a lossy link, updates shipped as pipelined batches and
/// queries acting as barriers. The contract is the same as lockstep —
/// zero client-visible errors, candidate lists identical to a
/// fault-free mirror, and final private-region state equal to the
/// mirror — because retries re-deliver only the unacked window suffix
/// and per-handle seqs make any over-delivery idempotent.
#[test]
fn chaos_pipelined_windows_zero_visible_errors() {
    for window in [4usize, 32] {
        let mut backend = CasperServer::new();
        backend.load_public_targets(targets());
        let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
        let proxy = ChaosProxy::spawn(
            server.addr(),
            FaultConfig {
                seed: 0xCA5_0005 ^ window as u64,
                drop_frame: 0.05,
                corrupt_frame: 0.02,
                truncate_frame: 0.01,
                disconnect: 0.02,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let mut config = chaos_client_config();
        config.pipeline_window = window;
        let mut client = NetworkClient::with_config(proxy.addr(), config);

        let mut mirror = CasperServer::new();
        mirror.load_public_targets(targets());

        for round in 0..12u64 {
            let batch: Vec<(PrivateHandle, Rect)> = (0..20u64)
                .map(|h| (PrivateHandle(h), update_region(h, round)))
                .collect();
            client.push_updates(&batch).unwrap_or_else(|e| {
                panic!("window {window} round {round} failed through chaos: {e}")
            });
            for &(h, r) in &batch {
                mirror.upsert_private_region(h, r);
            }
            if round % 3 == 2 {
                let q = query_region(round);
                let got = client
                    .query_nn(round, q)
                    .unwrap_or_else(|e| panic!("window {window} query failed: {e}"));
                let mut got: Vec<u64> = got.iter().map(|e| e.id.0).collect();
                let (want, _) = mirror.nn_public(&q, FilterCount::Four);
                let mut want: Vec<u64> = want.candidates.iter().map(|e| e.id.0).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "window {window}: candidates diverged");
            }
        }

        let mut net_state = server.with_server(|s| s.private_entries());
        let mut mirror_state = mirror.private_entries();
        net_state.sort_by_key(|e| e.id.0);
        mirror_state.sort_by_key(|e| e.id.0);
        assert_eq!(net_state, mirror_state, "window {window}: state diverged");
        assert!(
            proxy.injected() > 0,
            "window {window}: chaos injected nothing"
        );
        proxy.shutdown();
        server.shutdown();
    }
}

/// Budget check at the first hop: a deadline that has already expired
/// fails fast on the client — no connect, no frame, no server work.
/// Clearing the deadline restores normal service.
#[test]
fn expired_deadline_fails_fast_before_touching_the_wire() {
    let backend = casper_core::CasperServer::new();
    let server = NetworkServer::spawn(backend, casper_qp::FilterCount::Four).unwrap();
    // Lazy connect: the socket is only opened by the first real attempt.
    let mut client = NetworkClient::with_config(
        server.addr(),
        ClientConfig {
            retry: RetryPolicy::no_retry(),
            ..ClientConfig::default()
        },
    );
    let region = Rect::from_coords(0.1, 0.1, 0.2, 0.2);

    client.set_deadline(Some(Instant::now() - Duration::from_millis(5)));
    let err = client
        .push_update(casper_core::PrivateHandle(1), region)
        .unwrap_err();
    let NetError::GaveUp { remaining_budget } = err else {
        panic!("expired budget must surface as GaveUp, got {err:?}");
    };
    assert_eq!(remaining_budget, Duration::ZERO);
    assert_eq!(client.stats().gave_up, 1);
    assert!(
        !client.is_connected(),
        "dead work must not even open the socket"
    );
    assert_eq!(
        server.with_server(|s| s.private_count()),
        0,
        "shed work must not touch the plane"
    );

    // Clearing the deadline restores service.
    client.set_deadline(None);
    client
        .push_update(casper_core::PrivateHandle(1), region)
        .unwrap();
    assert_eq!(server.with_server(|s| s.private_count()), 1);
    server.shutdown();
}

/// Repeated timeouts trip the client breaker open; the next operation
/// fast-fails in microseconds instead of burning another full timeout.
#[test]
fn breaker_fast_fails_after_repeated_timeouts() {
    let backend = casper_core::CasperServer::new();
    let server = NetworkServer::spawn(backend, casper_qp::FilterCount::Four).unwrap();
    // A black-hole proxy: every frame is swallowed, so every operation
    // times out at the read timeout.
    let black_hole = FaultConfig {
        seed: 3,
        drop_frame: 1.0,
        ..FaultConfig::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), black_hole).unwrap();
    let read_timeout = Duration::from_millis(80);
    let mut client = NetworkClient::with_config(
        proxy.addr(),
        ClientConfig {
            read_timeout,
            write_timeout: read_timeout,
            retry: RetryPolicy::no_retry(),
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(5),
            }),
            ..ClientConfig::default()
        },
    );
    let region = Rect::from_coords(0.2, 0.2, 0.3, 0.3);
    for handle in 0..2 {
        let err = client
            .push_update(casper_core::PrivateHandle(handle), region)
            .unwrap_err();
        assert!(
            matches!(err, NetError::Io(_)),
            "black-holed op should time out, got {err:?}"
        );
    }
    // Third operation: the breaker is open — fast-fail, no socket work.
    let t = Instant::now();
    let err = client
        .push_update(casper_core::PrivateHandle(9), region)
        .unwrap_err();
    let elapsed = t.elapsed();
    assert!(
        matches!(err, NetError::Overloaded { .. }),
        "open breaker must fast-fail Overloaded, got {err:?}"
    );
    assert!(
        elapsed < read_timeout / 2,
        "fast-fail took {elapsed:?}, breaker is not short-circuiting"
    );
    assert_eq!(client.stats().breaker_fast_fails, 1);
    proxy.shutdown();
    server.shutdown();
}

/// Deadline-aware retry: when the remaining budget cannot cover the
/// backoff sleep plus another attempt, the client surfaces `GaveUp` with
/// the unusable remainder instead of sleeping into a dead deadline.
#[test]
fn retry_gives_up_when_budget_cannot_cover_another_attempt() {
    // A port with no listener: connects fail instantly.
    let dead = {
        let l = std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        l.local_addr().unwrap()
    };
    let mut client = NetworkClient::with_config(
        dead,
        ClientConfig {
            connect_timeout: Duration::from_millis(20),
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_millis(20),
            retry: RetryPolicy {
                max_retries: 4,
                base_delay: Duration::from_millis(30),
                multiplier: 2.0,
                max_delay: Duration::from_millis(200),
                jitter: 0.0,
            },
            request_budget: Some(Duration::from_millis(80)),
            ..ClientConfig::default()
        },
    );
    let t = Instant::now();
    let err = client
        .push_update(
            casper_core::PrivateHandle(1),
            Rect::from_coords(0.1, 0.1, 0.2, 0.2),
        )
        .unwrap_err();
    // First attempt fails fast (connection refused); the first retry
    // would sleep 30 ms and risk 60 ms of timeouts against an 80 ms
    // budget — the client must give up instead.
    let NetError::GaveUp { remaining_budget } = err else {
        panic!("expected GaveUp, got {err:?}");
    };
    assert!(remaining_budget <= Duration::from_millis(80));
    assert_eq!(client.stats().gave_up, 1);
    assert!(
        t.elapsed() < Duration::from_millis(80),
        "giving up must not burn the full budget sleeping"
    );
}
