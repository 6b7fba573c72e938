//! Privacy-property tests: what the untrusted server can and cannot learn.
//!
//! The paper's four anonymizer requirements (Section 4) translate into
//! testable statements:
//!
//! * **accuracy** — `k' >= k` and `A' >= A_min` whenever feasible;
//! * **quality** — the cloaked region is a pure function of (cell,
//!   profile): two users in the same cell with the same profile are
//!   indistinguishable, and the region never depends on the position
//!   *within* the cell (no reverse engineering);
//! * **pseudonymity** — every query carries a fresh wire pseudonym
//!   (checked where the pseudonym is minted, in `casper-core`'s
//!   `pipeline::tests`);
//! * **flexibility** — profiles change at runtime and take effect
//!   immediately.

use casper::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn populated(seed: u64, n: u64) -> CompletePyramid {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = CompletePyramid::new(8);
    for i in 0..n {
        a.register(
            UserId(i),
            Profile::new(rng.gen_range(1..=50), 0.0),
            Point::new(rng.gen(), rng.gen()),
        );
    }
    a
}

#[test]
fn accuracy_k_and_area_floor_hold() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut a = CompletePyramid::new(8);
    for i in 0..500 {
        a.register(
            UserId(i),
            Profile::new(rng.gen_range(1..=100), rng.gen_range(0.0..0.01)),
            Point::new(rng.gen(), rng.gen()),
        );
    }
    for i in 0..500 {
        let uid = UserId(i);
        let region = a.cloak_user(uid).unwrap();
        let profile = a.profile_of(uid).unwrap();
        assert!(region.user_count >= profile.k, "user {i}");
        assert!(region.area() >= profile.a_min - 1e-12, "user {i}");
    }
}

#[test]
fn quality_region_is_independent_of_position_within_cell() {
    // Two users in the same lowest-level cell with identical profiles
    // receive identical regions, whatever their exact offsets: an
    // adversary seeing the region learns nothing beyond the cell.
    let mut a = CompletePyramid::new(6); // cells are 1/32 wide
    let profile = Profile::new(2, 0.0);
    // Same lowest-level cell (cell width = 1/32 ≈ 0.031).
    a.register(UserId(1), profile, Point::new(0.4002, 0.4002));
    a.register(UserId(2), profile, Point::new(0.4060, 0.4055));
    let r1 = a.cloak_user(UserId(1)).unwrap();
    let r2 = a.cloak_user(UserId(2)).unwrap();
    assert_eq!(r1.rect, r2.rect);
    assert_eq!(r1.user_count, r2.user_count);
}

#[test]
fn quality_region_boundaries_are_grid_aligned() {
    // Every cloaked region is composed of pre-defined pyramid cells, so
    // its corners lie on the grid of some level — never on data-dependent
    // coordinates (the CliqueCloak leak Casper avoids).
    let a = populated(2, 300);
    for i in 0..300 {
        let region = a.cloak_user(UserId(i)).unwrap();
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
                "user {i}: boundary {v} not aligned to level {level}"
            );
        }
    }
}

#[test]
fn cliquecloak_leaks_what_casper_does_not() {
    // Contrast test: the baseline's MBR boundary passes through exact
    // user positions; Casper's regions never do (except with probability
    // 0 — grid lines are position-independent).
    use casper::baselines::{CliqueCloak, CloakRequest};
    let mut cc = CliqueCloak::new();
    let p1 = Point::new(0.412_345, 0.467_89);
    let p2 = Point::new(0.444_444, 0.490_12);
    cc.submit(CloakRequest {
        uid: 1,
        pos: p1,
        k: 2,
        tolerance: 0.2,
    });
    let group = cc
        .submit(CloakRequest {
            uid: 2,
            pos: p2,
            k: 2,
            tolerance: 0.2,
        })
        .unwrap();
    // The baseline's region boundary reveals both exact positions.
    assert_eq!(group.region.min, Point::new(p1.x.min(p2.x), p1.y.min(p2.y)));
    // Casper's region for the same user is grid-aligned and strictly
    // larger than a point.
    let mut a = CompletePyramid::new(8);
    a.register(UserId(1), Profile::new(1, 0.0), p1);
    let region = a.cloak_user(UserId(1)).unwrap().rect;
    assert!(region.contains(p1));
    assert!(region.min != p1 && region.max != p1);
}

#[test]
fn flexibility_profile_changes_take_effect_immediately() {
    let mut a = populated(4, 1_000);
    let before = a.cloak_user(UserId(0)).unwrap();
    a.update_profile(UserId(0), Profile::new(500, 0.0));
    let after = a.cloak_user(UserId(0)).unwrap();
    assert!(after.user_count >= 500);
    assert!(after.area() >= before.area());
    // And back.
    a.update_profile(UserId(0), Profile::new(1, 0.0));
    let relaxed = a.cloak_user(UserId(0)).unwrap();
    assert!(relaxed.area() <= after.area());
}

#[test]
fn server_side_regions_never_degenerate_to_points() {
    // Even a k = 1 user's stored region is a full grid cell: the exact
    // point never reaches the server.
    let mut casper = Casper::new(CompletePyramid::new(9));
    casper.register_user(
        UserId(1),
        Profile::new(1, 0.0),
        Point::new(0.123_456, 0.654_321),
    );
    let stored = casper.admin_count(&Rect::unit());
    assert_eq!(stored.max_count(), 1);
    let region = stored.overlapping[0].mbr;
    assert!(region.area() >= 1.0 / 4f64.powi(8) - 1e-15);
    assert!(region.contains(Point::new(0.123_456, 0.654_321)));
}

/// Nor can a peer publish one over the wire: a zero-area region (an
/// exact point) or one far outside the space, sent as a raw frame to a
/// live server, is refused with a protocol error, stored nowhere, and
/// counted by no range query, and the server keeps serving.
#[test]
fn hostile_regions_from_the_wire_are_refused_not_stored() {
    use casper::core::codec::encode_frame;
    use casper::core::wire::{encode, Message};
    use casper::core::{NetworkClient, NetworkServer};
    use std::io::{Read as _, Write as _};
    use std::time::Duration;

    let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
    let hostile = [
        Rect::point(Point::new(0.123_456, 0.654_321)),
        Rect::from_coords(-1e300, -1e300, 1e300, 1e300),
    ];
    for (handle, region) in hostile.into_iter().enumerate() {
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frame = encode_frame(&encode(&Message::CloakedUpdate {
            handle: handle as u64,
            seq: 1,
            region,
        }));
        raw.write_all(&frame).unwrap();
        // An accepted update is acknowledged; a refused one closes the
        // connection without a reply.
        let mut reply = [0u8; 1];
        let read = raw.read(&mut reply).unwrap_or(0);
        assert_eq!(read, 0, "the server acknowledged {region:?}");
    }
    assert_eq!(server.stats().protocol_errors, hostile.len() as u64);
    assert_eq!(server.with_server(|s| s.private_count()), 0);
    let counted = server.with_server(|s| s.range_private(&Rect::unit()));
    assert_eq!((counted.definite, counted.overlapping.len()), (0, 0));
    // The server still serves a well-behaved client.
    let mut client = NetworkClient::connect(server.addr()).unwrap();
    assert!(client
        .query_nn(1, Rect::from_coords(0.4, 0.4, 0.6, 0.6))
        .is_ok());
    server.shutdown();
}

#[test]
fn adaptive_structure_gives_the_same_guarantees() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut a = AdaptivePyramid::new(8);
    for i in 0..400 {
        a.register(
            UserId(i),
            Profile::new(rng.gen_range(1..=60), rng.gen_range(0.0..0.005)),
            Point::new(rng.gen(), rng.gen()),
        );
    }
    for i in 0..400 {
        let region = a.cloak_user(UserId(i)).unwrap();
        let profile = a.profile_of(UserId(i)).unwrap();
        assert!(region.user_count >= profile.k);
        assert!(region.area() >= profile.a_min - 1e-12);
    }
}

/// The audit records of `uid`: every one must be a fail-private refusal
/// of a `k = 5` profile, never a served region.
fn assert_refused_only(uid: UserId, expected: usize) {
    let records: Vec<_> = casper::telemetry::audit()
        .dump()
        .into_iter()
        .filter(|r| r.uid == uid.0)
        .collect();
    assert_eq!(records.len(), expected, "{records:?}");
    for rec in &records {
        assert!(!rec.served, "an infeasible cloak was released: {rec:?}");
        assert_eq!(rec.shed_reason, "fail_private");
        assert_eq!(rec.k_required, 5);
        assert!(rec.k_achieved < rec.k_required, "{rec:?}");
        assert!(!rec.is_violation());
    }
}

/// Fail private, not fail open, on both façades of the one pipeline. A
/// user whose `k` exceeds the whole population can only be cloaked to a
/// region with `k' < k`. That region must never cross to the server:
/// not as the user's stored region, not as a query. The query answers
/// `None`, and the audit log records each refusal as `served: false`,
/// `fail_private`.
#[test]
fn infeasible_cloak_is_refused_fail_private_on_both_facades() {
    // Outside every other test's uid range: the audit log is
    // process-global.
    const LONELY_LOCAL: UserId = UserId(91_000);
    const LONELY_REMOTE: UserId = UserId(92_000);
    let infeasible = Profile::new(5, 0.0);
    let lookups = |c: &Casper<CompletePyramid>| {
        let s = c.cache_stats().expect("the candidate cache is on");
        s.hits + s.misses + s.stale
    };

    // In process: nothing reaches the plane's private store or its
    // query processor (every candidate query consults the cache).
    let mut local = Casper::new(CompletePyramid::new(7));
    local.load_targets([(ObjectId(1), Point::new(0.5, 0.5))]);
    local.register_user(LONELY_LOCAL, infeasible, Point::new(0.3, 0.3));
    assert_eq!(local.server().private_count(), 0, "the region was stored");
    let before = lookups(&local);
    assert!(
        local.query_nn(LONELY_LOCAL).is_none(),
        "the query was answered"
    );
    assert_eq!(lookups(&local), before, "the query reached the server");
    assert_refused_only(LONELY_LOCAL, 2);
    // The instruments can see a released cloak.
    local.register_user(UserId(91_001), Profile::new(1, 0.0), Point::new(0.7, 0.7));
    assert!(local.query_nn(UserId(91_001)).is_some());
    assert_eq!(local.server().private_count(), 1);
    assert!(lookups(&local) > before);

    // Over the wire: not one frame reaches the live server.
    let mut backend = CasperServer::new();
    backend.load_public_targets([(ObjectId(1), Point::new(0.5, 0.5))]);
    let server = casper::core::NetworkServer::spawn(backend, FilterCount::Four).unwrap();
    let mut remote = casper::core::RemoteCasper::new(CompletePyramid::new(7), server.addr());
    remote.register_user(LONELY_REMOTE, infeasible, Point::new(0.3, 0.3));
    assert!(
        remote.query_nn(LONELY_REMOTE).is_none(),
        "the query was sent"
    );
    assert_eq!(
        remote.pending_updates(),
        0,
        "the region is owed to the server"
    );
    assert_eq!(server.stats().frames, 0, "a frame reached the server");
    assert_eq!(server.with_server(|s| s.private_count()), 0);
    assert_refused_only(LONELY_REMOTE, 2);
    remote.register_user(UserId(92_001), Profile::new(1, 0.0), Point::new(0.7, 0.7));
    assert!(server.stats().frames > 0);
    server.shutdown();
}
