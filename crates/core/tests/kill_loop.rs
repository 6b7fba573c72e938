//! Kill-loop crash-recovery acceptance suite.
//!
//! Each scenario drives a mixed register / move / re-profile /
//! deregister / cloak workload against a [`DurableAnonymizer`] over the
//! fault-injecting [`MemStorage`], crashes the store at a seeded write
//! budget (tearing and bit-flipping the unsynced tail), restarts, and
//! recovers — with injected read faults during recovery for good
//! measure. After every recovery the suite asserts the durability
//! contract:
//!
//! * **No acked op lost** — every operation whose call returned `Ok`
//!   before the crash is present (`report.last_seq` covers its seq).
//! * **Exact state** — the recovered service matches an in-memory
//!   oracle replay of exactly the ops the log retained (acked ops plus
//!   possibly the one in-flight op whose torn record survived whole).
//! * **Invariants hold** — [`verify_recovery`]: census, deep structure
//!   checks, and re-cloaking still satisfies every `(k, A_min)`.
//!
//! Three backends × 34 seeds × 2 crash rounds = 204 seeded crash
//! points, plus a dedicated crash-*during*-recovery loop. Everything is
//! deterministic: a failing seed replays bit-identically.

use std::collections::HashMap;
use std::sync::Arc;

use casper_core::durability::storage::FaultPlan;
use casper_core::durability::wal::WalOp;
use casper_core::durability::{
    same_population, verify_recovery, CheckInvariants, DurabilityConfig, DurableAnonymizer,
    MemStorage,
};
use casper_core::engine::AnonymizerService;
use casper_core::ShardedAnonymizer;
use casper_geometry::Point;
use casper_grid::{AdaptivePyramid, CompletePyramid, Profile, UserId};
use parking_lot::RwLock;
use rand::{rngs::StdRng, Rng, SeedableRng};

const UID_SPACE: u64 = 30;

fn gen_op(rng: &mut StdRng) -> WalOp {
    let uid = UserId(rng.gen_range(1u64..=UID_SPACE));
    let pos = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let profile = Profile::new(rng.gen_range(1u32..=6), rng.gen_range(0.0..0.02));
    match rng.gen_range(0u32..10) {
        0..=4 => WalOp::Register { uid, profile, pos },
        5..=7 => WalOp::UpdateLocation { uid, pos },
        8 => WalOp::UpdateProfile { uid, profile },
        _ => WalOp::Deregister { uid },
    }
}

fn issue<A, S>(d: &DurableAnonymizer<A, S>, op: &WalOp) -> bool
where
    A: AnonymizerService,
    S: casper_core::durability::Storage + ?Sized,
{
    match *op {
        WalOp::Register { uid, profile, pos } => d.try_register(uid, profile, pos).is_ok(),
        WalOp::UpdateLocation { uid, pos } => d.try_update_location(uid, pos).is_ok(),
        WalOp::UpdateProfile { uid, profile } => d.try_update_profile(uid, profile).is_ok(),
        WalOp::Deregister { uid } => d.try_deregister(uid).is_ok(),
    }
}

/// The oracle: folds an op prefix into the final per-user state, with
/// the same semantics as the real services (re-registration overwrites,
/// updates of unknown users are no-ops).
fn fold(ops: &[WalOp]) -> HashMap<u64, (Profile, Point)> {
    let mut m = HashMap::new();
    for op in ops {
        match *op {
            WalOp::Register { uid, profile, pos } => {
                m.insert(uid.0, (profile, pos));
            }
            WalOp::UpdateLocation { uid, pos } => {
                if let Some(e) = m.get_mut(&uid.0) {
                    e.1 = pos;
                }
            }
            WalOp::UpdateProfile { uid, profile } => {
                if let Some(e) = m.get_mut(&uid.0) {
                    e.0 = profile;
                }
            }
            WalOp::Deregister { uid } => {
                m.remove(&uid.0);
            }
        }
    }
    m
}

fn assert_matches_model<A>(seed: u64, svc: &A, model: &HashMap<u64, (Profile, Point)>)
where
    A: AnonymizerService + ?Sized,
{
    let mut got: Vec<u64> = svc.user_ids().iter().map(|u| u.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = model.keys().copied().collect();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "seed {seed}: recovered population differs from oracle"
    );
    for (&uid, &(profile, pos)) in model {
        let got_pos = svc.position_of(UserId(uid)).expect("oracle user missing");
        assert_eq!(
            (got_pos.x.to_bits(), got_pos.y.to_bits()),
            (pos.x.to_bits(), pos.y.to_bits()),
            "seed {seed}: position of user {uid} diverged"
        );
        let got_prof = svc.profile_of(UserId(uid)).expect("oracle profile missing");
        assert_eq!(
            (got_prof.k, got_prof.a_min.to_bits()),
            (profile.k, profile.a_min.to_bits()),
            "seed {seed}: profile of user {uid} diverged"
        );
    }
}

fn recovery_plan(seed: u64, round: u64) -> FaultPlan {
    FaultPlan {
        seed: seed.wrapping_mul(1_000_003) ^ round,
        crash_after_writes: None,
        read_fault: 0.4,
        flip_torn_tail: true,
    }
}

/// One full kill-loop scenario: `rounds` crash points, then a final
/// clean restart that is cross-checked against a from-scratch replica.
fn run_scenario<A, F>(seed: u64, rounds: u64, make: F)
where
    A: AnonymizerService + CheckInvariants,
    F: Fn() -> A,
{
    let storage = Arc::new(MemStorage::new());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919).wrapping_add(13));
    let cfg = DurabilityConfig {
        checkpoint_every: Some(16),
    };
    // `oplog[i]` is the op that carries WAL seq `i + 1` under the
    // current disk state; acked ops are always a prefix of it. The one
    // op in flight at a crash also consumed a seq — recovery decides
    // (via `report.last_seq`) whether its torn record survived, and the
    // log is truncated to match.
    let mut oplog: Vec<WalOp> = Vec::new();
    let mut acked: usize = 0;

    for round in 0..rounds {
        let (d, report) =
            DurableAnonymizer::recover(storage.clone(), cfg, &make).expect("recovery failed");
        assert!(
            report.last_seq as usize >= acked,
            "seed {seed} round {round}: acked op lost — {} acked, recovered only to seq {}",
            acked,
            report.last_seq
        );
        assert!(
            report.last_seq as usize <= oplog.len(),
            "seed {seed} round {round}: recovered past the attempted history"
        );
        oplog.truncate(report.last_seq as usize);
        acked = oplog.len();
        assert_matches_model(seed, &d, &fold(&oplog));
        verify_recovery(&d, 32).unwrap_or_else(|e| {
            panic!("seed {seed} round {round}: post-recovery verification failed: {e}")
        });

        // Arm this round's crash: everything on disk is synced at this
        // point, so the plan swap tears nothing by itself.
        let budget = rng.gen_range(3u64..90);
        storage.crash_restart(FaultPlan {
            seed: seed.wrapping_mul(31).wrapping_add(round),
            crash_after_writes: Some(budget),
            read_fault: 0.0,
            flip_torn_tail: true,
        });

        let n_ops = rng.gen_range(20usize..60);
        for _ in 0..n_ops {
            let op = gen_op(&mut rng);
            oplog.push(op);
            if issue(&d, &op) {
                acked = oplog.len();
            } else {
                // Crashed mid-op: the process would be dead now. The op
                // stays in `oplog` with its consumed seq; recovery will
                // tell us whether its record survived the tear.
                break;
            }
            if rng.gen_bool(0.2) {
                let _ = d.cloak(UserId(rng.gen_range(1u64..=UID_SPACE)));
            }
        }
        drop(d);
        // Power cut + reboot; next round recovers under read faults.
        storage.crash_restart(recovery_plan(seed, round));
    }

    // Final clean restart: full verification and an independent replica
    // cross-check through `same_population`.
    let (d, report) =
        DurableAnonymizer::recover(storage, cfg, &make).expect("final recovery failed");
    assert!(
        report.last_seq as usize >= acked,
        "seed {seed}: acked op lost at final restart"
    );
    oplog.truncate(report.last_seq as usize);
    let model = fold(&oplog);
    assert_matches_model(seed, &d, &model);
    verify_recovery(&d, usize::MAX)
        .unwrap_or_else(|e| panic!("seed {seed}: final verification failed: {e}"));
    let replica = make();
    for (&uid, &(profile, pos)) in &model {
        replica.register(UserId(uid), profile, pos);
    }
    same_population(&d, &replica)
        .unwrap_or_else(|e| panic!("seed {seed}: replica cross-check failed: {e}"));
}

#[test]
fn kill_loop_complete_pyramid() {
    for seed in 0..34 {
        run_scenario(seed, 2, || RwLock::new(CompletePyramid::new(6)));
    }
}

#[test]
fn kill_loop_adaptive_pyramid() {
    for seed in 100..134 {
        run_scenario(seed, 2, || RwLock::new(AdaptivePyramid::new(6)));
    }
}

#[test]
fn kill_loop_sharded() {
    for seed in 200..234 {
        run_scenario(seed, 2, || ShardedAnonymizer::new(6, 2));
    }
}

/// Crashing *during recovery itself* must also be survivable: recovery
/// only ever repairs torn garbage and bumps the boot epoch, so a
/// half-finished recovery followed by another crash still converges.
#[test]
fn crash_during_recovery_is_survivable() {
    for seed in 0..20u64 {
        let storage = Arc::new(MemStorage::new());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let cfg = DurabilityConfig {
            checkpoint_every: Some(8),
        };
        let make = || RwLock::new(AdaptivePyramid::new(6));

        // Build some durable history, then crash mid-workload.
        let (d, _) = DurableAnonymizer::recover(storage.clone(), cfg, make).unwrap();
        let mut oplog = Vec::new();
        let mut acked = 0usize;
        storage.crash_restart(FaultPlan {
            seed,
            crash_after_writes: Some(rng.gen_range(10u64..60)),
            read_fault: 0.0,
            flip_torn_tail: true,
        });
        for _ in 0..40 {
            let op = gen_op(&mut rng);
            oplog.push(op);
            if issue(&d, &op) {
                acked = oplog.len();
            } else {
                break;
            }
        }
        drop(d);

        // Reboot into a storage that keeps crashing during recovery.
        let mut attempts = 0;
        let (d, report) = loop {
            attempts += 1;
            assert!(attempts <= 16, "seed {seed}: recovery never converged");
            storage.crash_restart(FaultPlan {
                seed: seed.wrapping_mul(97).wrapping_add(attempts),
                // Recovery needs a handful of writes (epoch bump, tail
                // repair, WAL rotation); a tiny budget makes the first
                // attempts die mid-recovery before one gets through.
                crash_after_writes: if attempts < 3 { Some(attempts) } else { None },
                read_fault: 0.3,
                flip_torn_tail: true,
            });
            match DurableAnonymizer::recover(storage.clone(), cfg, make) {
                Ok(pair) => break pair,
                Err(_) => continue,
            }
        };
        assert!(
            report.last_seq as usize >= acked,
            "seed {seed}: acked op lost across interrupted recoveries"
        );
        oplog.truncate(report.last_seq as usize);
        assert_matches_model(seed, &d, &fold(&oplog));
        verify_recovery(&d, usize::MAX).unwrap();
    }
}
