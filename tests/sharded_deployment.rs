//! Integration test: the sharded anonymizer behind a mobility-driven
//! workload keeps the single-node guarantees while distributing users
//! across shard pyramids.

use casper::core::ShardedAnonymizer;
use casper::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn sharded_city_keeps_all_guarantees_under_movement() {
    let mut rng = StdRng::seed_from_u64(1);
    let network = NetworkBuilder::new().build(&mut rng);
    let mut generator = MovingObjectGenerator::new(network, 600, &mut rng);

    let sharded = ShardedAnonymizer::new(9, 2); // 16 shards
    let mut profiles = Vec::new();
    for i in 0..600 {
        let profile = Profile::new(rng.gen_range(1..=30), 0.0);
        profiles.push(profile);
        sharded.register(UserId(i as u64), profile, generator.object(i).position());
    }
    assert_eq!(sharded.user_count(), 600);
    // Users are actually spread over multiple shards.
    let populated = (0..16).filter(|&i| sharded.shard_population(i) > 0).count();
    assert!(populated > 4, "only {populated} shards populated");

    for _tick in 0..8 {
        let updates = generator.tick(1.0, &mut rng);
        let mut positions = vec![Point::ORIGIN; 600];
        for (i, pos) in updates {
            sharded.update_location(UserId(i as u64), pos);
            positions[i] = pos;
        }
        // Sample guarantees every tick.
        for i in (0..600).step_by(53) {
            let region = sharded.cloak_user(UserId(i as u64)).unwrap();
            assert!(
                region.user_count >= profiles[i].k,
                "tick {_tick} user {i}: {} < k={}",
                region.user_count,
                profiles[i].k
            );
            assert!(region.rect.contains(positions[i]), "tick {_tick} user {i}");
        }
    }
    // Population conserved across all the migrations.
    assert_eq!(sharded.user_count(), 600);
    let total: usize = (0..16).map(|i| sharded.shard_population(i)).sum();
    assert_eq!(total, 600);
}

#[test]
fn sharded_and_single_node_regions_both_satisfy_same_profiles() {
    let mut rng = StdRng::seed_from_u64(2);
    let sharded = ShardedAnonymizer::new(8, 1);
    let mut single = AdaptivePyramid::new(8);
    for i in 0..300u64 {
        let p = Point::new(rng.gen(), rng.gen());
        let prof = Profile::new(rng.gen_range(1..=40), rng.gen_range(0.0..0.002));
        sharded.register(UserId(i), prof, p);
        single.register(UserId(i), prof, p);
    }
    for i in 0..300u64 {
        let a = sharded.cloak_user(UserId(i)).unwrap();
        let b = single.cloak_user(UserId(i)).unwrap();
        let prof = single.profile_of(UserId(i)).unwrap();
        assert!(a.user_count >= prof.k, "sharded broke k for {i}");
        assert!(b.user_count >= prof.k, "single broke k for {i}");
        assert!(a.area() >= prof.a_min - 1e-12);
        assert!(b.area() >= prof.a_min - 1e-12);
    }
}

/// Registers `n` users on a deterministic grid and returns, per shard,
/// the uids homed there. Every user gets the same small profile so
/// sibling cloaks never need cross-shard escalation.
fn populate_shards(sharded: &ShardedAnonymizer, n: u64) -> (Vec<Vec<u64>>, Vec<Point>) {
    let mut homes: Vec<Vec<u64>> = vec![Vec::new(); sharded.shard_count()];
    let mut positions = Vec::with_capacity(n as usize);
    let side = (n as f64).sqrt().ceil() as u64;
    for uid in 0..n {
        let pos = Point::new(
            (uid % side) as f64 / side as f64 + 0.5 / side as f64,
            (uid / side) as f64 / side as f64 + 0.5 / side as f64,
        );
        sharded.register(UserId(uid), Profile::new(2, 0.0), pos);
        homes[sharded.shard_of(pos)].push(uid);
        positions.push(pos);
    }
    (homes, positions)
}

/// Satellite of the overload work: one shard stalled hard must not
/// block the seven sibling threads — per-shard locking keeps slow
/// shards' pain local, so one slow shard cannot hold the wire path's
/// reactors hostage for users elsewhere.
#[test]
fn storm_with_stalled_shard_does_not_block_siblings() {
    use std::time::{Duration, Instant};

    let sharded = ShardedAnonymizer::new(8, 2); // 16 shards
    let (homes, positions) = populate_shards(&sharded, 320);

    let stalled = sharded.shard_of(Point::new(0.03, 0.03));
    assert!(
        !homes[stalled].is_empty(),
        "stalled shard must be populated"
    );
    sharded.set_shard_delay(stalled, Duration::from_millis(2));

    std::thread::scope(|s| {
        // One thread hammers the stalled shard; it alone eats the delay.
        let slow_uids = &homes[stalled];
        let sharded_ref = &sharded;
        let positions = &positions;
        s.spawn(move || {
            for i in 0..100usize {
                let uid = slow_uids[i % slow_uids.len()];
                sharded_ref.update_location(UserId(uid), positions[uid as usize]);
            }
        });
        // Seven sibling threads, each pinned to a non-stalled shard,
        // must finish in interactive time despite the neighbour's stall.
        let sibling_shards: Vec<usize> = (0..sharded.shard_count())
            .filter(|&i| i != stalled && !homes[i].is_empty())
            .take(7)
            .collect();
        let mut handles = Vec::new();
        for &shard in &sibling_shards {
            let uids = &homes[shard];
            handles.push(s.spawn(move || {
                let start = Instant::now();
                for i in 0..200usize {
                    let uid = uids[i % uids.len()];
                    sharded_ref.update_location(UserId(uid), positions[uid as usize]);
                    let region = sharded_ref
                        .cloak_user(UserId(uid))
                        .expect("sibling cloak must succeed during the stall");
                    assert!(region.user_count >= 2, "sibling broke k during stall");
                }
                start.elapsed()
            }));
        }
        for h in handles {
            let elapsed = h.join().expect("sibling thread panicked");
            assert!(
                elapsed < Duration::from_secs(2),
                "sibling thread took {elapsed:?}: stalled shard is blocking siblings"
            );
        }
    });
    sharded.set_shard_delay(stalled, Duration::ZERO);
    assert_eq!(sharded.user_count(), 320);
    sharded.check_invariants().unwrap();
}

/// An outage loses no registered user: every cloak the client could not
/// deliver stays owed (no cap, no expiry), a user who moves during the
/// outage is owed only their newest region, and everything owed reaches
/// the server once it comes back.
#[test]
fn an_outage_loses_no_registered_user() {
    use casper::core::net::{ClientConfig, NetworkServer, ServerConfig};
    use casper::core::{AnonymizerService, RemoteCasper, RetryPolicy};
    use std::time::Duration;

    // Grab a concrete port, then leave it unbound: connects fail fast.
    let addr = {
        let l = std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        l.local_addr().unwrap()
    };
    // While the server is down every connect is refused at once, so the
    // 10 ms connect timeout keeps the outage fast. The read and write
    // timeouts stay at their defaults: they only bound the flush after
    // the server is back, which one scheduler stall must not fail.
    let fast = ClientConfig {
        connect_timeout: Duration::from_millis(10),
        retry: RetryPolicy::no_retry(),
        pipeline_window: 32,
        ..ClientConfig::default()
    };
    // More users than a buffer capped at 10 000 regions would keep.
    const USERS: u64 = 10_001;
    let mut remote = RemoteCasper::with_config(AdaptivePyramid::new(8), addr, fast);
    for uid in 0..USERS {
        remote.register_user(
            UserId(uid),
            Profile::new(1, 0.0),
            Point::new(
                (uid % 100) as f64 / 100.0 + 0.005,
                (uid / 100) as f64 / 101.0 + 0.005,
            ),
        );
    }
    assert_eq!(remote.pending_updates(), USERS as usize);
    // Moving an owed user twice still owes one region: the newest.
    let cloak_of_5 = |remote: &RemoteCasper<_>| remote.anonymizer().cloak(UserId(5)).unwrap().rect;
    remote.move_user(UserId(5), Point::new(0.9, 0.9));
    let first_move = cloak_of_5(&remote);
    remote.move_user(UserId(5), Point::new(0.2, 0.8));
    let current = cloak_of_5(&remote);
    assert_ne!(first_move, current, "the two moves must cloak differently");
    assert_eq!(remote.pending_updates(), USERS as usize);

    // The server comes back on the very same port: every owed cloak
    // arrives, user 5's as its current one.
    let server = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig {
            bind: addr,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(remote.flush_pending().unwrap(), USERS as usize);
    assert_eq!(remote.pending_updates(), 0);
    assert_eq!(server.with_server(|s| s.private_count()), USERS as usize);
    let stored_5 = server.with_server(|s| {
        s.private_entries()
            .into_iter()
            .find(|e| e.id == ObjectId(5))
            .map(|e| e.mbr)
    });
    assert_eq!(
        stored_5,
        Some(current),
        "user 5 must hold its current cloak"
    );
    server.shutdown();
}

/// Quarantining a shard mid-storm parks its updates without blocking
/// sibling shards, and restore replays the parked work.
#[test]
fn quarantine_during_storm_parks_without_blocking_siblings() {
    use std::time::Duration;

    let sharded = ShardedAnonymizer::new(8, 2); // 16 shards
    let (homes, positions) = populate_shards(&sharded, 320);
    let quarantined = sharded.shard_of(Point::new(0.97, 0.97));
    assert!(!homes[quarantined].is_empty());

    std::thread::scope(|s| {
        let sharded_ref = &sharded;
        let positions = &positions;
        // Two threads hammer the soon-to-be-quarantined shard's users.
        for t in 0..2usize {
            let uids = &homes[quarantined];
            s.spawn(move || {
                for i in 0..300usize {
                    let uid = uids[(i + t) % uids.len()];
                    sharded_ref.update_location(UserId(uid), positions[uid as usize]);
                    std::thread::sleep(Duration::from_micros(100));
                }
            });
        }
        // Six threads serve sibling shards and must stay fully correct.
        let siblings: Vec<usize> = (0..sharded.shard_count())
            .filter(|&i| i != quarantined && !homes[i].is_empty())
            .take(6)
            .collect();
        for &shard in &siblings {
            let uids = &homes[shard];
            s.spawn(move || {
                for i in 0..200usize {
                    let uid = uids[i % uids.len()];
                    sharded_ref.update_location(UserId(uid), positions[uid as usize]);
                    let region = sharded_ref
                        .cloak_user(UserId(uid))
                        .expect("sibling cloak must succeed during quarantine");
                    assert!(region.user_count >= 2);
                }
            });
        }
        // Mid-storm: take the shard offline. Its updates park from here.
        std::thread::sleep(Duration::from_millis(5));
        sharded.quarantine_shard(quarantined);
        assert!(!sharded.shard_online(quarantined));
    });

    assert!(
        sharded.parked_updates() > 0,
        "quarantined shard saw updates: they must have parked"
    );
    let replayed = sharded.restore_shard(quarantined);
    assert!(sharded.shard_online(quarantined));
    assert!(replayed > 0, "restore must replay the parked updates");
    assert_eq!(sharded.user_count(), 320);
    sharded.check_invariants().unwrap();
    // Quarantine refused/parked work; it never corrupted the population.
    for &uid in &homes[quarantined] {
        let region = sharded.cloak_user(UserId(uid)).unwrap();
        assert!(region.user_count >= 2);
    }
}

#[test]
fn escalated_cloaks_remain_grid_aligned() {
    // Quality requirement survives sharding: even escalated regions are
    // global pyramid cells (possibly unions), never data-dependent boxes.
    let sharded = ShardedAnonymizer::new(8, 2);
    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..100u64 {
        sharded.register(
            UserId(i),
            Profile::new(90, 0.0), // forces escalation (shards hold < 90)
            Point::new(rng.gen(), rng.gen()),
        );
    }
    for i in 0..100u64 {
        let region = sharded.cloak_user(UserId(i)).unwrap();
        assert!(region.user_count >= 90);
        let level = region.level;
        let n = (1u64 << level) as f64;
        for v in [
            region.rect.min.x,
            region.rect.min.y,
            region.rect.max.x,
            region.rect.max.y,
        ] {
            let scaled = v * n;
            assert!(
                (scaled - scaled.round()).abs() < 1e-9,
                "user {i}: boundary {v} not grid-aligned at level {level}"
            );
        }
    }
}
