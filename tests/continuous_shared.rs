//! Continuous-query regression: incremental maintenance must be
//! indistinguishable from re-running every query from scratch.
//!
//! A [`ContinuousSet`] of monitors — a stationary co-located cluster
//! plus commuters drifting across the space — is ticked through dozens
//! of movement rounds with periodic target churn. After **every** tick,
//! every incremental answer is compared against a from-scratch snapshot
//! query for the same user; they must agree on the exact entry, bit for
//! bit. The trajectories are chosen so the run provably contains
//! cell-boundary crossings (region changes), in-cell micro-movement
//! (reuse), and dependency-region invalidations (target churn) — all
//! three maintenance paths.

use casper::prelude::*;

const TICKS: usize = 40;
const COMMUTERS: u64 = 6;
const CLUSTER: u64 = 4;

fn entry_bits(e: &Entry) -> (u64, [u64; 4]) {
    (
        e.id.0,
        [
            e.mbr.min.x.to_bits(),
            e.mbr.min.y.to_bits(),
            e.mbr.max.x.to_bits(),
            e.mbr.max.y.to_bits(),
        ],
    )
}

fn coord(seed: u64) -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
    s ^= s >> 33;
    s = s.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    s ^= s >> 33;
    (s >> 11) as f64 / (1u64 << 53) as f64
}

/// Commuter `c` at tick `t`: a diagonal drift of ~1.6% of the space per
/// tick. The lowest pyramid cell of `basic(8)` is 1/256 wide, so every
/// commuter crosses a cell boundary several times over the run.
fn commuter_pos(c: u64, t: usize) -> Point {
    let step = 0.016 * t as f64;
    Point::new(
        (0.05 + 0.1 * c as f64 + step).rem_euclid(1.0),
        (0.10 + 0.07 * c as f64 + step * 0.7).rem_euclid(1.0),
    )
}

#[test]
fn incremental_equals_from_scratch_every_tick() {
    let mut casper = Casper::new(BasicAnonymizer::basic(8));
    casper
        .load_targets((0..800u64).map(|i| (ObjectId(i), Point::new(coord(i), coord(i ^ 0xBEEF)))));

    // A co-located stationary cluster (shared cloaked region) ...
    for i in 0..CLUSTER {
        casper.register_user(
            UserId(100 + i),
            Profile::new(1, 0.0),
            Point::new(0.4401 + i as f64 * 1e-4, 0.4401),
        );
    }
    // ... and commuters that drift across cell boundaries.
    for c in 0..COMMUTERS {
        casper.register_user(UserId(200 + c), Profile::new(1, 0.0), commuter_pos(c, 0));
    }

    let mut set = ContinuousSet::new();
    for i in 0..CLUSTER {
        set.register(UserId(100 + i));
    }
    for c in 0..COMMUTERS {
        set.register(UserId(200 + c));
    }

    let mut region_changes = 0u64;
    let mut last_regions: Vec<Option<Rect>> = vec![None; set.len()];

    for t in 1..=TICKS {
        // Movement phase: commuters drift, the cluster stays put.
        for c in 0..COMMUTERS {
            casper.move_user(UserId(200 + c), commuter_pos(c, t));
        }
        // Target churn every 5th tick: a delivery van relocates right
        // through the busiest part of the space, and one tick later an
        // old target disappears for good.
        if t % 5 == 0 {
            casper
                .server_mut()
                .upsert_public_target(ObjectId(10_000), Point::new(coord(t as u64), 0.44));
        }
        if t % 5 == 1 && t > 1 {
            casper.server_mut().remove_public_target(ObjectId(t as u64));
        }

        // Track how often cloaked regions actually changed, so the run
        // demonstrably contains cell crossings.
        for (slot, m) in set.monitors().iter().enumerate() {
            let now = casper.anonymizer().cloak_region_of(m.uid).map(|c| c.rect);
            if last_regions[slot].is_some() && now != last_regions[slot] {
                region_changes += 1;
            }
            last_regions[slot] = now;
        }

        // Incremental tick, then the from-scratch oracle per user.
        let incremental = casper.tick_continuous(&mut set);
        for (uid, got) in incremental {
            let snapshot = casper.query_nn(uid).expect("registered user").exact;
            assert_eq!(
                got.map(|e| entry_bits(&e)),
                snapshot.map(|e| entry_bits(&e)),
                "tick {t}: incremental answer for {uid:?} diverged from a \
                 from-scratch snapshot query"
            );
        }
    }

    // The run must have exercised all three maintenance paths.
    assert!(
        region_changes > 0,
        "trajectories never crossed a cell boundary — test lost its teeth"
    );
    assert!(
        set.total_reuses() > 0,
        "nothing was ever reused — incremental maintenance is not incremental"
    );
    let floor = set.len() as u64; // every monitor evaluates at least once
    assert!(
        set.total_reevaluations() > floor,
        "no re-evaluation beyond the first tick despite churn and movement"
    );
    // Co-location must pay: the cluster shares computations through the
    // candidate cache, so hits accumulate across the run.
    let stats = casper.cache_stats().expect("cache on by default");
    assert!(stats.hits > 0, "co-located cluster never hit the cache");
}

/// The version stamp must catch churn that the region heuristic alone
/// cannot: a stationary set where only *targets* move.
#[test]
fn stationary_set_follows_target_churn_exactly() {
    let mut casper = Casper::new(BasicAnonymizer::basic(8));
    casper.load_targets(
        (0..200u64).map(|i| (ObjectId(i), Point::new(coord(i ^ 0x77), coord(i ^ 0x99)))),
    );
    for i in 0..5u64 {
        casper.register_user(
            UserId(i),
            Profile::new(1, 0.0),
            Point::new(0.61 + 0.05 * i as f64, 0.37),
        );
    }
    let mut set = ContinuousSet::new();
    for i in 0..5u64 {
        set.register(UserId(i));
    }
    casper.tick_continuous(&mut set);

    for round in 0..12u64 {
        // The roving target hops around; stationary monitors must track
        // it exactly whenever it lands near them.
        let p = Point::new(coord(round ^ 0x1234), coord(round ^ 0x4321));
        casper.server_mut().upsert_public_target(ObjectId(5_000), p);
        let answers = casper.tick_continuous(&mut set);
        for (uid, got) in answers {
            let snapshot = casper.query_nn(uid).unwrap().exact;
            assert_eq!(
                got.map(|e| entry_bits(&e)),
                snapshot.map(|e| entry_bits(&e)),
                "round {round}: stationary monitor {uid:?} served a stale answer"
            );
        }
    }
}
