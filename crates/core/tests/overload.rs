//! Overload-control acceptance tests: a seeded flash crowd at roughly
//! ten times the admission capacity, with one shard stalled, must never
//! produce a cloak that violates its user's `(k, A_min)` profile — every
//! degraded outcome is an explicit [`Response::Overloaded`] shed — and
//! the latency of *admitted* requests must stay within a small multiple
//! of the unloaded baseline (sheds keep the queues from standing).
//!
//! Also covered here: the deadline budget crossing the wire, the client
//! circuit breaker fast-failing a dead peer, deadline-aware retry give-up,
//! the brownout ladder, continuous-tick striding, and pending-update TTL
//! expiry — the full request-plane overload surface.
#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use casper_anonymizer::AdaptiveAnonymizer;
use casper_core::faults::{ChaosProxy, FaultConfig, FlashCrowd, StormEvent};
use casper_core::net::{ClientConfig, NetworkClient, NetworkServer};
use casper_core::overload::{BreakerConfig, BrownoutLevel, Deadline, OverloadConfig, Priority};
use casper_core::{
    Casper, Category, ContinuousSet, NetError, ParallelEngine, RemoteCasper, Request, Response,
    RetryPolicy, ShardedAnonymizer,
};
use casper_geometry::{Point, Rect};
use casper_grid::{Profile, UserId};
use casper_index::ObjectId;

const PROFILES: [Profile; 3] = [
    Profile { k: 2, a_min: 0.0 },
    Profile { k: 4, a_min: 0.0 },
    Profile { k: 6, a_min: 1e-4 },
];

fn grid_targets(n_per_axis: u64) -> Vec<(ObjectId, Point)> {
    let step = 1.0 / n_per_axis as f64;
    (0..n_per_axis * n_per_axis)
        .map(|i| {
            (
                ObjectId(i),
                Point::new(
                    (i % n_per_axis) as f64 * step + step / 2.0,
                    (i / n_per_axis) as f64 * step + step / 2.0,
                ),
            )
        })
        .collect()
}

fn p99(samples: &mut [Duration]) -> Duration {
    assert!(!samples.is_empty(), "no samples for p99");
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Panics unless `resp` is an outcome the overload contract allows for a
/// registered user: real work done, or an explicit shed. A cloak is
/// additionally checked against the user's profile — the fail-private
/// invariant under test.
fn assert_contract(engine: &ParallelEngine<ShardedAnonymizer>, uid: UserId, resp: &Response) {
    match resp {
        Response::Maintained(_) | Response::Outcome(Some(_)) | Response::Overloaded { .. } => {}
        Response::Cloaked(Some(region)) => {
            let profile = engine
                .anonymizer()
                .profile_of(uid)
                .expect("registered user has a profile");
            assert!(
                region.user_count >= profile.k,
                "privacy violation for {uid:?}: k'={} < k={}",
                region.user_count,
                profile.k
            );
            assert!(
                region.rect.area() >= profile.a_min - 1e-12,
                "privacy violation for {uid:?}: area {} < A_min {}",
                region.rect.area(),
                profile.a_min
            );
        }
        other => panic!("implicit degradation for {uid:?}: {other:?}"),
    }
}

/// Population of the flash-crowd tests.
const USERS: u64 = 240;

/// Registers the seeded flash-crowd population, spread over the whole
/// unit square (all shards).
fn seed_population(engine: &ParallelEngine<ShardedAnonymizer>) {
    let seedfill = FlashCrowd::new(7, USERS, USERS)
        .with_hotspot(Point::new(0.5, 0.5), 0.5)
        .with_profiles(PROFILES.len());
    for ev in seedfill {
        let StormEvent::Register { uid, at, profile } = ev else {
            panic!("seed phase emits registrations only");
        };
        let resp = engine.submit(Request::Register {
            uid: UserId(uid),
            profile: PROFILES[profile],
            pos: at,
        });
        assert!(matches!(resp, Response::Maintained(_)));
    }
}

/// One storm thread's schedule: `n` seeded cloak / query / update
/// requests against the seeded population, converging on the hotspot.
fn storm_requests(seed: u64, n: usize) -> impl Iterator<Item = (UserId, Request)> {
    FlashCrowd::new(seed, USERS, USERS + n as u64)
        .with_hotspot(Point::new(0.5, 0.5), 0.5)
        .with_query_ratio(0.6)
        .skip(USERS as usize)
        .filter_map(|ev| match ev {
            StormEvent::Query { uid } if uid % 2 == 0 => {
                Some((UserId(uid), Request::Cloak { uid: UserId(uid) }))
            }
            StormEvent::Query { uid } => Some((
                UserId(uid),
                Request::QueryNn {
                    uid: UserId(uid),
                    filters: None,
                    category: None,
                },
            )),
            StormEvent::Update { uid, to } => Some((
                UserId(uid),
                Request::UpdateLocation {
                    uid: UserId(uid),
                    pos: to,
                },
            )),
            StormEvent::Register { .. } => None,
        })
}

/// The tentpole acceptance test: seeded 10× flash crowd + one stalled
/// shard. Zero `(k, A_min)` violations, explicit sheds only, and the p99
/// of admitted probe queries within 3× the unloaded baseline.
#[test]
fn flash_crowd_with_stalled_shard_sheds_explicitly_and_fails_private() {
    const STORM_THREADS: usize = 8;
    const BATCHES: usize = 4;
    const BATCH: usize = 100;

    let engine = ParallelEngine::sharded(8, 2, 8).with_overload(OverloadConfig {
        queue_cap: 12,
        target_sojourn: Duration::from_millis(1),
        codel_interval: Duration::from_millis(5),
        retry_after: Duration::from_millis(5),
        ..OverloadConfig::default()
    });
    engine.load_targets(grid_targets(10));
    seed_population(&engine);

    // Unloaded baseline: sequential snapshot queries, no storm, no stall.
    let mut baseline = Vec::with_capacity(300);
    for i in 0..300u64 {
        let t = Instant::now();
        let resp = engine.execute_with_deadline(
            Request::QueryNn {
                uid: UserId((i * 7) % USERS),
                filters: None,
                category: None,
            },
            Deadline::within(Duration::from_millis(50)),
        );
        assert!(
            matches!(resp, Response::Outcome(Some(_))),
            "unloaded baseline query {i} degraded: {resp:?}"
        );
        baseline.push(t.elapsed());
    }
    // Floor the baseline at 2 ms: sub-millisecond baselines would make a
    // 3× bound measure OS scheduling jitter instead of overload control.
    let baseline_p99 = p99(&mut baseline).max(Duration::from_millis(2));

    // Stall one populated shard: alive, slow — the CoDel worst case.
    let stalled = engine.anonymizer().shard_of(Point::new(0.51, 0.52));
    engine
        .anonymizer()
        .set_shard_delay(stalled, Duration::from_micros(150));

    // The storm: STORM_THREADS threads each firing BATCHES pipelined
    // batches of BATCH requests — roughly 10× what the 16-deep gates
    // admit — plus one closed-loop probe thread measuring admitted
    // latency. Everything is checked against the overload contract.
    //
    // The privacy and explicit-shed invariants are strict on every
    // round. The *latency* acceptance is a performance bound measured
    // on a shared CI box where sibling test binaries can steal both
    // cores mid-window, so it gets up to three rounds: pass if any
    // round's admitted p99 is within bound.
    let mut rounds = Vec::new();
    for round in 0..3u64 {
        let mut probe_latencies: Vec<Duration> = Vec::new();
        let mut probe_admitted = 0u64;
        let mut probe_shed = 0u64;
        std::thread::scope(|s| {
            let mut storm_handles = Vec::new();
            for t in 0..STORM_THREADS {
                let engine = &engine;
                storm_handles.push(s.spawn(move || {
                    let mut checked: Vec<(UserId, Response)> = Vec::new();
                    let mut batch: Vec<(Request, Deadline)> = Vec::with_capacity(BATCH);
                    let mut uids: Vec<UserId> = Vec::with_capacity(BATCH);
                    for (uid, req) in storm_requests(1000 + round * 100 + t as u64, BATCHES * BATCH)
                    {
                        uids.push(uid);
                        batch.push((req, Deadline::within(Duration::from_millis(50))));
                        if batch.len() == BATCH {
                            let responses =
                                engine.execute_batch_with_deadline(std::mem::take(&mut batch));
                            checked.extend(std::mem::take(&mut uids).into_iter().zip(responses));
                        }
                    }
                    if !batch.is_empty() {
                        let responses =
                            engine.execute_batch_with_deadline(std::mem::take(&mut batch));
                        checked.extend(uids.into_iter().zip(responses));
                    }
                    checked
                }));
            }
            // Closed-loop probe: one snapshot query at a time, during the storm.
            let probe = s.spawn(|| {
                let mut admitted_lat = Vec::with_capacity(1000);
                let (mut admitted, mut shed) = (0u64, 0u64);
                for i in 0..1000u64 {
                    let t = Instant::now();
                    let resp = engine.execute_with_deadline(
                        Request::QueryNn {
                            uid: UserId((i * 11) % USERS),
                            filters: None,
                            category: None,
                        },
                        Deadline::within(Duration::from_millis(50)),
                    );
                    let lat = t.elapsed();
                    match resp {
                        Response::Overloaded { retry_after } => {
                            shed += 1;
                            assert!(retry_after > Duration::ZERO, "shed without a retry hint");
                        }
                        Response::Outcome(Some(_)) => {
                            admitted += 1;
                            admitted_lat.push(lat);
                        }
                        other => panic!("probe got implicit degradation: {other:?}"),
                    }
                }
                (admitted_lat, admitted, shed)
            });
            for h in storm_handles {
                for (uid, resp) in h.join().expect("storm thread panicked") {
                    assert_contract(&engine, uid, &resp);
                }
            }
            let (lat, admitted, shed) = probe.join().expect("probe thread panicked");
            probe_latencies = lat;
            probe_admitted = admitted;
            probe_shed = shed;
        });

        // Strict, every round: work was admitted, the storm shed, probes
        // were not starved, and the population survived intact.
        let stats = engine.overload_stats().expect("overload installed");
        assert!(stats.admitted > 0, "nothing was admitted");
        assert!(
            stats.shed_total() > 0,
            "a 10× storm against 12-deep gates must shed: {stats:?}"
        );
        assert!(
            probe_admitted > 0,
            "every probe shed ({probe_shed} sheds): admission is starving the closed loop"
        );
        assert_eq!(engine.anonymizer().user_count(), USERS as usize);
        engine.anonymizer().check_invariants().unwrap();

        let admitted_p99 = p99(&mut probe_latencies);
        rounds.push((admitted_p99, probe_admitted, probe_shed));
        if admitted_p99 <= baseline_p99 * 3 {
            break;
        }
    }

    // Latency acceptance: admitted probes' p99 within 3× the unloaded
    // baseline. Shed-on-sojourn is what makes this hold — admitted work
    // never waits behind a standing queue.
    let best = rounds
        .iter()
        .map(|r| r.0)
        .min()
        .expect("at least one round ran");
    assert!(
        best <= baseline_p99 * 3,
        "admitted p99 exceeded 3× unloaded baseline {baseline_p99:?} in every round: \
         {rounds:?} (p99, admitted, shed) — admission control is not protecting \
         admitted work"
    );
}

/// The runtime off-switch: an engine built without `with_overload` has
/// no admission gate, so the same flash crowd — same seeds, same stalled
/// shard — is served in full and never answered `Overloaded`.
#[test]
fn engine_without_overload_never_sheds_under_the_flash_crowd() {
    let engine = ParallelEngine::sharded(8, 2, 8);
    assert!(engine.overload_stats().is_none());
    engine.load_targets(grid_targets(10));
    seed_population(&engine);
    let stalled = engine.anonymizer().shard_of(Point::new(0.51, 0.52));
    engine
        .anonymizer()
        .set_shard_delay(stalled, Duration::from_micros(150));

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let engine = &engine;
            s.spawn(move || {
                let (uids, batch): (Vec<UserId>, Vec<(Request, Deadline)>) =
                    storm_requests(1000 + t, 200)
                        .map(|(uid, req)| (uid, (req, Deadline::none())))
                        .unzip();
                let responses = engine.execute_batch_with_deadline(batch);
                assert_eq!(responses.len(), uids.len());
                for (uid, resp) in uids.into_iter().zip(responses) {
                    assert!(
                        !matches!(resp, Response::Overloaded { .. }),
                        "shed without an overload subsystem: {resp:?}"
                    );
                    assert_contract(engine, uid, &resp);
                }
            });
        }
    });
    assert_eq!(engine.anonymizer().user_count(), USERS as usize);
}

/// Every rung of the brownout ladder keeps the fail-private invariant:
/// cloaks still satisfy their profiles, disabled paths shed explicitly,
/// and at `Essential` tick-class work is refused at admission.
#[test]
fn brownout_ladder_never_weakens_privacy() {
    let engine = ParallelEngine::sharded(8, 1, 4).with_overload(OverloadConfig::default());
    engine.load_targets(grid_targets(8));
    for i in 0..120u64 {
        engine.submit(Request::Register {
            uid: UserId(i),
            profile: PROFILES[(i % 3) as usize],
            pos: Point::new((i % 12) as f64 / 12.0 + 0.04, (i / 12) as f64 / 10.0 + 0.05),
        });
    }
    for level in BrownoutLevel::ALL {
        engine.set_brownout_level(level);
        assert_eq!(engine.brownout_level(), level);
        // Cloaks: always either profile-true or an explicit shed.
        for i in 0..120u64 {
            let resp =
                engine.execute_with_deadline(Request::Cloak { uid: UserId(i) }, Deadline::none());
            assert_contract(&engine, UserId(i), &resp);
            assert!(
                !matches!(resp, Response::Overloaded { .. }),
                "unloaded cloak shed at {level:?}"
            );
        }
        // Aggregate and category-filtered paths stop at `Stale`.
        let admin = engine
            .execute_with_deadline(Request::AdminCount { area: Rect::unit() }, Deadline::none());
        let category = engine.execute_with_deadline(
            Request::QueryNn {
                uid: UserId(3),
                filters: None,
                category: Some(Category(1)),
            },
            Deadline::none(),
        );
        if level.category_paths_enabled() {
            assert!(matches!(admin, Response::Count(_)), "{level:?}: {admin:?}");
            assert!(
                matches!(category, Response::Outcome(Some(_))),
                "{level:?}: {category:?}"
            );
        } else {
            assert!(
                matches!(admin, Response::Overloaded { .. }),
                "{level:?} must shed aggregates: {admin:?}"
            );
            assert!(
                matches!(category, Response::Overloaded { .. }),
                "{level:?} must shed category queries: {category:?}"
            );
        }
        // Tick-class work is refused outright at `Essential`.
        let tick = engine.submit_classified(
            Request::QueryNn {
                uid: UserId(5),
                filters: None,
                category: None,
            },
            Deadline::none(),
            Priority::Tick,
        );
        if level == BrownoutLevel::Essential {
            assert!(
                matches!(tick, Response::Overloaded { .. }),
                "essential level must shed ticks: {tick:?}"
            );
        } else {
            assert!(matches!(tick, Response::Outcome(Some(_))));
        }
    }
    engine.set_brownout_level(BrownoutLevel::Normal);
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

/// Brownout striding in the continuous-query plane: at `Stale` only every
/// fourth monitor is re-evaluated per tick; the rest are served from
/// their cached (k-anonymously produced) candidates. Every monitor still
/// gets an answer every tick.
#[test]
fn continuous_ticks_stride_under_brownout() {
    let mut casper = Casper::new(AdaptiveAnonymizer::adaptive(8));
    casper.load_targets(grid_targets(8));
    let mut set = ContinuousSet::new();
    for i in 0..8u64 {
        casper.register_user(
            UserId(i),
            Profile::new(1, 0.0),
            Point::new(i as f64 / 8.0 + 0.06, 0.5),
        );
        set.register(UserId(i));
    }
    // One Normal tick refreshes every monitor and seeds the candidates.
    let answers = casper.tick_continuous(&mut set);
    assert_eq!(answers.len(), 8);
    assert!(answers.iter().all(|(_, a)| a.is_some()));
    // Stationary monitors mostly *reuse* their cached candidates on a
    // refresh; a refresh is either a re-evaluation or a reuse.
    let refreshes_after_seed = set.total_reevaluations() + set.total_reuses();
    assert_eq!(set.stale_serves(), 0);

    set.set_brownout_level(BrownoutLevel::Stale); // stride 4
    let mut stale_answered = 0usize;
    for _ in 0..4 {
        let answers = casper.tick_continuous(&mut set);
        assert_eq!(answers.len(), 8, "striding must not drop monitors");
        stale_answered += answers.iter().filter(|(_, a)| a.is_some()).count();
    }
    // 4 ticks × 8 monitors at stride 4 → 8 refreshes, 24 stale serves.
    assert_eq!(
        set.total_reevaluations() + set.total_reuses() - refreshes_after_seed,
        8
    );
    assert_eq!(set.stale_serves(), 24);
    assert_eq!(stale_answered, 32, "stale serves still answer");

    // Back to Normal: full rate resumes, stale serving stops.
    set.set_brownout_level(BrownoutLevel::Normal);
    let before = set.stale_serves();
    casper.tick_continuous(&mut set);
    assert_eq!(set.stale_serves(), before);
}

/// Pending-update TTL: updates parked while the server is unreachable
/// expire instead of being delivered dead — the server keeps the
/// previous k-anonymous region, so only freshness is lost.
#[test]
fn pending_updates_expire_by_ttl() {
    let dead = {
        let l = std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        l.local_addr().unwrap()
    };
    let fast = ClientConfig {
        connect_timeout: Duration::from_millis(10),
        read_timeout: Duration::from_millis(10),
        write_timeout: Duration::from_millis(10),
        retry: RetryPolicy::no_retry(),
        ..ClientConfig::default()
    };
    let mut remote = RemoteCasper::with_config(AdaptiveAnonymizer::adaptive(8), dead, fast)
        .with_pending_ttl(Duration::from_millis(30));
    remote.register_user(UserId(1), Profile::new(1, 0.0), Point::new(0.3, 0.3));
    assert_eq!(
        remote.pending_updates(),
        1,
        "unreachable server parks the cloak"
    );
    std::thread::sleep(Duration::from_millis(40));
    // The next pipeline activity expires the stale entry before queueing.
    remote.register_user(UserId(2), Profile::new(1, 0.0), Point::new(0.6, 0.6));
    assert_eq!(remote.expired_updates(), 1, "aged-out update must expire");
    assert_eq!(remote.pending_updates(), 1, "only the fresh update remains");
}
