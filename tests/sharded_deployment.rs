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
