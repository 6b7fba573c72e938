//! Integration test: the concurrent request plane under real thread
//! contention.
//!
//! Eight owner threads hammer one shared [`ShardedAnonymizer`] and one
//! shared [`ServerPlane`] — the serving path the TCP server's reactors
//! and the benchmark's drivers take, minus the socket — with interleaved
//! register / update / cloak / query commands. Every cloaked region that
//! comes back is re-checked for the paper's guarantees:
//!
//! * **k-anonymity** — `user_count >= k` (Section 5, Algorithm 1);
//! * **minimum area** — `area >= A_min`;
//! * **grid alignment** — the region is a union of pyramid cells, so
//!   its coordinates are integral multiples of `1/2^level`;
//! * **containment** — the region covers the user's exact position.
//!
//! All four hold on every iteration: an update is applied to its shard
//! before it returns, so the owner's next cloak is taken from where the
//! user really is.

use std::sync::Arc;

use casper::core::engine::ServerPlane;
use casper::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const GLOBAL_HEIGHT: u8 = 8;
const SHARD_LEVEL: u8 = 2; // 16 shards
const OWNERS: usize = 8;
const UIDS_PER_OWNER: u64 = 40;
const ITERS: usize = 120;
const BACKGROUND: u64 = 64;

/// A cloaked region is a union of one or two same-level pyramid cells,
/// so all four coordinates must sit on the level's grid lines.
fn grid_aligned(rect: &Rect, level: u8) -> bool {
    let scale = (1u64 << level) as f64;
    [rect.min.x, rect.min.y, rect.max.x, rect.max.y]
        .iter()
        .all(|v| {
            let scaled = v * scale;
            (scaled - scaled.round()).abs() < 1e-9
        })
}

/// The trusted tier and the server plane, shared by every thread and
/// called directly: a mutation is applied at the anonymizer and the
/// user's fresh cloak is upserted into the plane under a plane-minted
/// sequence number.
struct Deployment {
    anonymizer: ShardedAnonymizer,
    plane: ServerPlane,
}

impl Deployment {
    fn new() -> Self {
        Self {
            anonymizer: ShardedAnonymizer::new(GLOBAL_HEIGHT, SHARD_LEVEL),
            plane: ServerPlane::new(CasperServer::new(), FilterCount::Four, 1),
        }
    }

    fn push(&self, uid: UserId, region: Rect) -> Response {
        self.plane.execute(Request::UpsertRegion {
            handle: uid.0,
            seq: 0,
            region,
        })
    }

    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> Response {
        self.anonymizer.register(uid, profile, pos);
        let region = self
            .anonymizer
            .cloak(uid)
            .expect("a registered user cloaks");
        self.push(uid, region.rect)
    }

    fn update(&self, uid: UserId, pos: Point) -> Response {
        self.anonymizer.update_location(uid, pos);
        let region = self
            .anonymizer
            .cloak(uid)
            .expect("a registered user cloaks");
        self.push(uid, region.rect)
    }

    /// A private NN query: cloak, Algorithm 2 on the plane, refinement.
    fn query(&self, uid: UserId, pseudonym: u64) -> Option<Entry> {
        let region = self.anonymizer.cloak(uid)?.rect;
        let Response::Candidates { entries, .. } = self.plane.execute(Request::NnCandidates {
            pseudonym,
            region,
            filters: None,
            category: None,
        }) else {
            panic!("the plane answers a candidate query with candidates");
        };
        CasperClient::new().refine_nn_entries(self.anonymizer.position_of(uid)?, &entries)
    }
}

fn acked(resp: &Response) -> bool {
    matches!(resp, Response::RegionAck { applied: true, .. })
}

#[test]
fn eight_threads_keep_every_guarantee() {
    let engine = Arc::new(Deployment::new());

    let mut rng = StdRng::seed_from_u64(11);
    engine
        .plane
        .write()
        .load_public_targets((0..400u64).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));

    // Background population spread over the space so small k values are
    // always satisfiable.
    for i in 0..BACKGROUND {
        let resp = engine.register(
            UserId(1_000_000 + i),
            Profile::new(1, 0.0),
            Point::new(rng.gen(), rng.gen()),
        );
        assert!(acked(&resp));
    }

    let mut owners = Vec::new();
    for t in 0..OWNERS {
        let engine = Arc::clone(&engine);
        owners.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(40 + t as u64);
            let base = t as u64 * UIDS_PER_OWNER;

            // Each owner registers a disjoint uid range, then loops
            // interleaved update / cloak / query commands over it.
            for u in 0..UIDS_PER_OWNER {
                let profile =
                    Profile::new(rng.gen_range(2..=8), if u % 3 == 0 { 1e-3 } else { 0.0 });
                let resp =
                    engine.register(UserId(base + u), profile, Point::new(rng.gen(), rng.gen()));
                assert!(acked(&resp));
            }

            for i in 0..ITERS {
                let uid = UserId(base + rng.gen_range(0..UIDS_PER_OWNER));
                let pos = Point::new(rng.gen(), rng.gen());
                let resp = engine.update(uid, pos);
                assert!(acked(&resp));

                let Some(region) = engine.anonymizer.cloak(uid) else {
                    panic!("owner {t}: cloak of registered user {uid:?} failed");
                };
                let profile = engine.anonymizer.profile_of(uid).expect("profile");
                assert!(
                    region.user_count >= profile.k,
                    "owner {t} iter {i}: k-anonymity broken: {} < k={}",
                    region.user_count,
                    profile.k
                );
                assert!(
                    region.rect.area() + 1e-12 >= profile.a_min,
                    "owner {t} iter {i}: area {} < A_min {}",
                    region.rect.area(),
                    profile.a_min
                );
                assert!(
                    grid_aligned(&region.rect, region.level),
                    "owner {t} iter {i}: {:?} not aligned to level {}",
                    region.rect,
                    region.level
                );

                // Only this owner moves `uid`, so its position is the one
                // just written, and the region must cover it.
                let p = engine.anonymizer.position_of(uid).expect("position");
                assert!(
                    p.dist(pos) < 1e-12,
                    "owner {t} iter {i}: the update to {pos:?} was not applied ({p:?})"
                );
                assert!(
                    region.rect.contains(p),
                    "owner {t} iter {i}: region {:?} misses {p:?}",
                    region.rect
                );

                if i % 10 == 0 {
                    let exact = engine.query(uid, (t * ITERS + i) as u64);
                    assert!(
                        exact.is_some(),
                        "owner {t} iter {i}: refinement found no candidate"
                    );
                }
            }
        }));
    }

    for owner in owners {
        owner.join().expect("owner thread panicked");
    }

    // Population conserved across every migration.
    let expected = BACKGROUND as usize + OWNERS * UIDS_PER_OWNER as usize;
    assert_eq!(engine.anonymizer.user_count(), expected);
    let total: usize = (0..engine.anonymizer.shard_count())
        .map(|i| engine.anonymizer.shard_population(i))
        .sum();
    assert_eq!(total, expected);
}

/// The batch entry point, [`AnonymizerService::cloak_many`] (what the
/// benchmark's drivers cloak a window of users with), against the
/// single-request path under contention.
#[test]
fn batch_entry_points_agree_with_the_request_plane_under_contention() {
    let engine = Arc::new(Deployment::new());
    let mut rng = StdRng::seed_from_u64(23);

    let users: Vec<(UserId, Profile, Point)> = (0..500u64)
        .map(|i| {
            (
                UserId(i),
                Profile::new(rng.gen_range(1..=10), 0.0),
                Point::new(rng.gen(), rng.gen()),
            )
        })
        .collect();
    for &(uid, profile, pos) in &users {
        engine.anonymizer.register(uid, profile, pos);
    }
    let registered = push_batch(&engine, &users.iter().map(|u| u.0).collect::<Vec<_>>());
    assert_eq!(registered, 500);

    // Two threads feed update batches while a third cloaks via the
    // single-request path; afterwards the batch cloaks must satisfy the
    // same profiles.
    let mut feeders = Vec::new();
    for f in 0..2u64 {
        let engine = Arc::clone(&engine);
        feeders.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(70 + f);
            for _ in 0..20 {
                let batch: Vec<(UserId, Point)> = (0..250)
                    .map(|_| {
                        (
                            UserId(rng.gen_range(0..500)),
                            Point::new(rng.gen(), rng.gen()),
                        )
                    })
                    .collect();
                for &(uid, pos) in &batch {
                    engine.anonymizer.update_location(uid, pos);
                }
                let uids: Vec<UserId> = batch.iter().map(|&(uid, _)| uid).collect();
                assert_eq!(push_batch(&engine, &uids), 250);
            }
        }));
    }
    let mut singles = 0usize;
    while feeders.iter().any(|h| !h.is_finished()) {
        let uid = UserId(rng.gen_range(0..500));
        if engine.anonymizer.cloak(uid).is_some() {
            singles += 1;
        }
    }
    for f in feeders {
        f.join().expect("feeder thread panicked");
    }
    assert!(singles > 0, "the single-request path never got a cloak in");

    let uids: Vec<UserId> = (0..500).map(UserId).collect();
    let regions = engine.anonymizer.cloak_many(&uids);
    for (uid, region) in uids.iter().zip(&regions) {
        let region = region.as_ref().expect("every registered user cloaks");
        let profile = engine.anonymizer.profile_of(*uid).expect("profile");
        assert!(region.user_count >= profile.k);
        assert!(grid_aligned(&region.rect, region.level));
        let pos = engine.anonymizer.position_of(*uid).expect("position");
        assert!(region.rect.contains(pos));
    }
    assert_eq!(engine.anonymizer.user_count(), 500);
}

/// Cloaks `uids` in one batch and upserts every region; returns how many
/// the plane acknowledged.
fn push_batch(engine: &Deployment, uids: &[UserId]) -> usize {
    engine
        .anonymizer
        .cloak_many(uids)
        .into_iter()
        .zip(uids)
        .map(|(region, &uid)| engine.push(uid, region.expect("a registered user cloaks").rect))
        .filter(|resp| matches!(resp, Response::RegionAck { .. }))
        .count()
}
