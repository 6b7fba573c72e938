//! Failover chaos acceptance suite (DESIGN §16).
//!
//! Extends the PR 5 kill loop from *crash safety* to *availability*:
//! each scenario assembles a full replica pair — primary
//! [`ReplicatedAnonymizer`] streaming its WAL to a hot [`Standby`]
//! behind a real [`NetworkServer`] — drives a seeded workload, then
//! kills one component at a seeded point:
//!
//! * **primary kill** — the primary process dies (sender thread and
//!   serving plane with it); the standby must detect heartbeat silence,
//!   promote, and serve, and a multi-endpoint client must fail over and
//!   resume within a bounded window.
//! * **standby kill** — the standby dies; the primary must degrade to
//!   local durability (`synced = false`) without losing a single op or
//!   blocking writes.
//! * **link kill** — a [`ChaosProxy`] carrying the replication stream
//!   is severed; the pair splits — the isolated standby promotes, the
//!   still-alive primary degrades — and both sides must retain every
//!   op they acknowledged.
//!
//! After every kill the suite asserts the availability contract:
//!
//! * **No synced ack lost** — every op acknowledged at the standby
//!   horizon (`Committed::synced`) is present on the surviving replica.
//! * **Bit-exact state** — the survivor matches an in-memory oracle
//!   replay of exactly the op prefix its WAL covers (`to_bits`
//!   equality on every position and profile).
//! * **Zero privacy violations** — re-cloaking the survivor's whole
//!   population still satisfies every `(k, A_min)` profile
//!   ([`verify_recovery`]): failover never fails open.
//! * **Bounded client downtime** — a [`NetworkClient`] with both
//!   endpoints resumes acknowledged updates against the promoted
//!   standby well inside the suite's 5 s ceiling (typical: one
//!   heartbeat timeout plus a few retries).
//!
//! 36 seeds × 3 kill kinds = 108 seeded kills, all deterministic in
//! their workload and kill point (wall-clock timing of promotion is
//! real, so runs are not bit-identical in *time*, only in *state*).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use casper_core::durability::wal::WalOp;
use casper_core::durability::{verify_recovery, DurabilityConfig, DurableAnonymizer, MemStorage};
use casper_core::engine::AnonymizerService;
use casper_core::faults::{ChaosProxy, FaultConfig};
use casper_core::net::ServerConfig;
use casper_core::{
    CasperServer, ClientConfig, DurabilityMode, NetworkClient, NetworkServer, PrivateHandle,
    ReplicatedAnonymizer, ReplicationConfig, RetryPolicy, Standby,
};
use casper_geometry::{Point, Rect};
use casper_grid::{AdaptivePyramid, Profile, UserId};
use casper_qp::FilterCount;
use rand::{rngs::StdRng, Rng, SeedableRng};

const UID_SPACE: u64 = 24;

type Pyramid = RwLock<AdaptivePyramid>;
type Durable = DurableAnonymizer<Pyramid, MemStorage>;

fn recover(storage: &Arc<MemStorage>) -> Arc<Durable> {
    let (d, _) = DurableAnonymizer::recover(
        Arc::clone(storage),
        DurabilityConfig {
            checkpoint_every: Some(16),
        },
        || RwLock::new(AdaptivePyramid::new(6)),
    )
    .expect("recovery on a fresh store cannot fail");
    Arc::new(d)
}

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

/// The oracle: folds an op prefix into final per-user state with the
/// same semantics as the real services.
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

fn assert_matches_model(ctx: &str, svc: &Durable, model: &HashMap<u64, (Profile, Point)>) {
    let mut got: Vec<u64> = svc.user_ids().iter().map(|u| u.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = model.keys().copied().collect();
    want.sort_unstable();
    assert_eq!(got, want, "{ctx}: population differs from oracle");
    for (&uid, &(profile, pos)) in model {
        let got_pos = svc.position_of(UserId(uid)).expect("oracle user missing");
        assert_eq!(
            (got_pos.x.to_bits(), got_pos.y.to_bits()),
            (pos.x.to_bits(), pos.y.to_bits()),
            "{ctx}: position of user {uid} diverged"
        );
        let got_prof = svc.profile_of(UserId(uid)).expect("oracle profile missing");
        assert_eq!(
            (got_prof.k, got_prof.a_min.to_bits()),
            (profile.k, profile.a_min.to_bits()),
            "{ctx}: profile of user {uid} diverged"
        );
    }
}

fn eventually(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..600 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Every scenario spins a multi-threaded replica pair (two servers, a
/// sender, a monitor, sometimes a proxy). Run on parallel test threads
/// on a small CI host — debug build, two cores — the stacked scheduler
/// delay can stall heartbeats past the death detector, which the
/// scenarios rightly flag as a spurious promotion. One scenario at a
/// time keeps the timing honest; total wall clock is the sum either
/// way.
static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

fn repl_cfg(seed: u64) -> ReplicationConfig {
    ReplicationConfig {
        mode: if seed.is_multiple_of(2) {
            DurabilityMode::StandbyFsync
        } else {
            DurabilityMode::StandbyReceived
        },
        heartbeat_interval: Duration::from_millis(5),
        // Generous relative to the 5 ms interval: the detector must
        // never fire from debug-build scheduling jitter while the
        // primary lives, only from the scenario's actual kill.
        heartbeat_timeout: Duration::from_millis(450),
        ack_timeout: Duration::from_millis(80),
        connect_timeout: Duration::from_millis(50),
        io_timeout: Duration::from_millis(25),
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
        jitter_seed: 7,
        ..ClientConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kill {
    Primary,
    Standby,
    Link,
}

/// One full failover scenario. See the module docs for the contract
/// each kill kind asserts.
fn run_scenario(seed: u64, kill: Kill) {
    let ctx = format!("seed {seed} kill {kill:?}");
    let cfg = repl_cfg(seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(kill as u64));

    // Standby node: durable store + wire plane + failover monitor.
    let standby_storage = Arc::new(MemStorage::new());
    let standby_durable = recover(&standby_storage);
    let s2 = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig::default(),
    )
    .expect("standby server");
    let standby = Standby::attach(Arc::clone(&standby_durable), Arc::clone(s2.plane()), cfg);

    // The replication link, through a severable proxy for link kills.
    let mut proxy = match kill {
        Kill::Link => {
            Some(ChaosProxy::spawn(s2.addr(), FaultConfig::default()).expect("chaos proxy"))
        }
        _ => None,
    };
    let ship_to = proxy.as_ref().map_or_else(|| s2.addr(), ChaosProxy::addr);

    // Primary node: its serving plane echoes the durable boot epoch in
    // acks so §8 restart detection spans the whole replica pair.
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
    let mut primary = Some(ReplicatedAnonymizer::new(
        Arc::clone(&primary_durable),
        ship_to,
        cfg,
    ));
    let mut s1 = Some(s1);

    // A client that knows both endpoints, talking to the live primary.
    let mut client =
        NetworkClient::with_endpoints(vec![s1.as_ref().unwrap().addr(), s2.addr()], client_cfg());
    let region = Rect::from_coords(0.1, 0.1, 0.3, 0.3);
    client
        .push_update(PrivateHandle(1), region)
        .expect("pre-kill update against the live primary");
    assert_eq!(client.server_boot(), Some(primary_epoch), "{ctx}");

    // Seeded pre-kill workload; record each op and whether its ack
    // reached the standby horizon.
    let mut oplog: Vec<WalOp> = Vec::new();
    let mut synced: Vec<bool> = Vec::new();
    let issue = |p: &ReplicatedAnonymizer<Pyramid, MemStorage>, op: &WalOp| match *op {
        WalOp::Register { uid, profile, pos } => p.try_register(uid, profile, pos),
        WalOp::UpdateLocation { uid, pos } => p.try_update_location(uid, pos),
        WalOp::UpdateProfile { uid, profile } => p.try_update_profile(uid, profile),
        WalOp::Deregister { uid } => p.try_deregister(uid),
    };
    let n_pre = rng.gen_range(12usize..30);
    for _ in 0..n_pre {
        let op = gen_op(&mut rng);
        let c = issue(primary.as_ref().unwrap(), &op).expect("live pair never fences");
        oplog.push(op);
        synced.push(c.synced);
        assert_eq!(c.seq as usize, oplog.len(), "{ctx}: seqs are dense");
    }

    // The seeded kill.
    let kill_at = Instant::now();
    match kill {
        Kill::Primary => {
            // The primary process dies: sender thread, WAL, serving
            // plane — everything at once.
            drop(primary.take());
            s1.take().unwrap().shutdown();
        }
        Kill::Standby => {
            drop(standby);
            s2.shutdown();

            // The primary must keep accepting writes, degraded.
            for _ in 0..4 {
                let op = gen_op(&mut rng);
                let c = issue(primary.as_ref().unwrap(), &op)
                    .expect("standby death must not fail primary writes");
                oplog.push(op);
                synced.push(c.synced);
                assert!(!c.synced, "{ctx}: dead standby cannot have acked");
            }
            assert!(
                primary.as_ref().unwrap().fenced_by().is_none(),
                "{ctx}: nothing promoted, nothing may fence"
            );
            assert_matches_model(&ctx, &primary_durable, &fold(&oplog));
            verify_recovery(&*primary_durable, 32)
                .unwrap_or_else(|e| panic!("{ctx}: primary privacy verification failed: {e}"));
            return;
        }
        Kill::Link => {
            proxy.take().unwrap().shutdown();

            // Split brain, by design split asymmetrically: the isolated
            // primary keeps serving its clients with *degraded* acks
            // (callers know durability is local-only) while the standby
            // promotes behind the partition.
            for _ in 0..4 {
                let op = gen_op(&mut rng);
                let c = issue(primary.as_ref().unwrap(), &op)
                    .expect("a severed link must not fail primary writes");
                oplog.push(op);
                synced.push(c.synced);
                assert!(!c.synced, "{ctx}: severed link cannot ack");
            }
        }
    }

    // Heartbeat silence promotes the standby and opens its gate.
    assert!(
        eventually(|| standby.is_promoted()),
        "{ctx}: standby never promoted"
    );
    let promoted_epoch = standby_durable.boot_epoch();
    assert!(
        promoted_epoch > primary_epoch,
        "{ctx}: promoted epoch {promoted_epoch} must supersede {primary_epoch}"
    );
    assert!(s2.plane().is_serving(), "{ctx}: promotion opens the gate");
    assert_eq!(s2.plane().boot_id(), promoted_epoch, "{ctx}");

    // Zero lost synced acks + bit-exact state: the standby's WAL covers
    // some dense prefix; every op whose ack reached the standby horizon
    // must be inside it, and the replayed state must equal the oracle
    // fold of exactly that prefix.
    let horizon = standby_durable.durable_seq() as usize;
    assert!(horizon <= oplog.len(), "{ctx}: standby invented history");
    for (i, &s) in synced.iter().enumerate() {
        assert!(
            !s || i < horizon,
            "{ctx}: op seq {} was acked synced but is past the standby horizon {horizon}",
            i + 1
        );
    }
    assert_matches_model(&ctx, &standby_durable, &fold(&oplog[..horizon]));

    // Zero privacy violations on the promoted state: re-cloaking the
    // whole surviving population still satisfies every (k, A_min).
    verify_recovery(&*standby_durable, 32)
        .unwrap_or_else(|e| panic!("{ctx}: post-promotion privacy verification failed: {e}"));

    if kill == Kill::Primary {
        // Bounded client-visible downtime: the two-endpoint client must
        // resume acknowledged updates against the promoted standby. The
        // ceiling is deliberately generous (CI machines stall); typical
        // recovery is one heartbeat timeout + a few retry cycles.
        let mut recovered = false;
        while kill_at.elapsed() < Duration::from_secs(5) {
            if client.push_update(PrivateHandle(1), region).is_ok() {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(recovered, "{ctx}: client never resumed after failover");
        assert_eq!(
            client.server_boot(),
            Some(promoted_epoch),
            "{ctx}: resumed acks must carry the promoted boot id"
        );
        assert!(
            client.stats().failovers >= 1,
            "{ctx}: recovery required at least one endpoint rotation"
        );
    } else {
        // Link kill: the primary node is still alive and still serving
        // its own plane — client traffic there keeps working.
        client
            .push_update(PrivateHandle(1), region)
            .expect("primary plane still serves across a replication split");
        assert_matches_model(&ctx, &primary_durable, &fold(&oplog));
    }
}

#[test]
fn failover_chaos_primary_kills() {
    let _serial = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in 0..36u64 {
        run_scenario(seed, Kill::Primary);
    }
}

#[test]
fn failover_chaos_standby_kills() {
    let _serial = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in 100..136u64 {
        run_scenario(seed, Kill::Standby);
    }
}

#[test]
fn failover_chaos_link_kills() {
    let _serial = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in 200..236u64 {
        run_scenario(seed, Kill::Link);
    }
}

/// A corrupting (but unsevered) replication link must never diverge the
/// pair: every corrupted frame fails the CRC at the receiver, the link
/// is re-established, and the resend path converges without duplicate
/// applies or promotion (heartbeats still mostly get through).
#[test]
fn replication_survives_corrupting_link() {
    let _serial = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in 300..306u64 {
        let cfg = ReplicationConfig {
            // Corruption costs io-timeout stalls; keep the death
            // detector far enough out that the pair never splits.
            heartbeat_timeout: Duration::from_millis(900),
            ..repl_cfg(seed)
        };
        let standby_storage = Arc::new(MemStorage::new());
        let standby_durable = recover(&standby_storage);
        let s2 = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            ServerConfig::default(),
        )
        .unwrap();
        let standby = Standby::attach(Arc::clone(&standby_durable), Arc::clone(s2.plane()), cfg);
        let proxy = ChaosProxy::spawn(
            s2.addr(),
            FaultConfig {
                seed,
                corrupt_frame: 0.05,
                drop_frame: 0.02,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), proxy.addr(), cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oplog = Vec::new();
        for _ in 0..60 {
            let op = gen_op(&mut rng);
            let c = match op {
                WalOp::Register { uid, profile, pos } => primary.try_register(uid, profile, pos),
                WalOp::UpdateLocation { uid, pos } => primary.try_update_location(uid, pos),
                WalOp::UpdateProfile { uid, profile } => primary.try_update_profile(uid, profile),
                WalOp::Deregister { uid } => primary.try_deregister(uid),
            }
            .expect("chaos on the link must not fail writes");
            assert_eq!(c.seq as usize, oplog.len() + 1);
            oplog.push(op);
        }
        assert!(
            eventually(|| standby_durable.durable_seq() as usize == oplog.len()),
            "seed {seed}: standby never converged through the corrupting link \
             (reached {} of {})",
            standby_durable.durable_seq(),
            oplog.len()
        );
        assert!(!standby.is_promoted(), "seed {seed}: pair must not split");
        let mut ctx = format!("seed {seed} corrupting link");
        ctx.push(' ');
        assert_matches_model(&ctx, &standby_durable, &fold(&oplog));
        drop(primary);
        proxy.shutdown();
        s2.shutdown();
    }
}

/// A primary kill while a pipelined client has a *full window* of 32
/// frames in flight. The batch straddles the failover: some frames
/// acked by the dying primary, the rest lost with the connection. The
/// pusher must converge against the promoted standby with zero lost
/// acked state — every handle's newest acked region survives (client
/// replay re-delivers on the boot-epoch change) — and every
/// replication op acked `synced` before the kill is inside the
/// standby's durable horizon.
#[test]
fn failover_kill_during_full_pipeline_window() {
    let _serial = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = "kill during full pipeline window";
    let cfg = repl_cfg(0);

    let standby_storage = Arc::new(MemStorage::new());
    let standby_durable = recover(&standby_storage);
    let s2 = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig::default(),
    )
    .unwrap();
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
    .unwrap();
    let primary = ReplicatedAnonymizer::new(Arc::clone(&primary_durable), s2.addr(), cfg);

    // A seeded pre-kill replication workload, recording synced acks.
    let mut rng = StdRng::seed_from_u64(0xF011);
    let mut oplog: Vec<WalOp> = Vec::new();
    let mut synced: Vec<bool> = Vec::new();
    for _ in 0..10 {
        let op = gen_op(&mut rng);
        let c = match op {
            WalOp::Register { uid, profile, pos } => primary.try_register(uid, profile, pos),
            WalOp::UpdateLocation { uid, pos } => primary.try_update_location(uid, pos),
            WalOp::UpdateProfile { uid, profile } => primary.try_update_profile(uid, profile),
            WalOp::Deregister { uid } => primary.try_deregister(uid),
        }
        .expect("live pair never fences");
        oplog.push(op);
        synced.push(c.synced);
    }

    // The pipelined pusher: a two-endpoint client with a 32-frame
    // window, shipping full-window batches until 20 land *after* the
    // kill flag is up (so the stream provably straddles the failover).
    let endpoints = vec![s1.addr(), s2.addr()];
    let killed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let killed_seen = Arc::clone(&killed);
    let pusher = std::thread::spawn(move || {
        let mut client = NetworkClient::with_endpoints(
            endpoints,
            ClientConfig {
                pipeline_window: 32,
                ..client_cfg()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut round = 0u64;
        let mut post_kill_rounds = 0u32;
        loop {
            let batch: Vec<(PrivateHandle, Rect)> = (0..32u64)
                .map(|h| {
                    let x = (h % 8) as f64 / 10.0;
                    let y = (round % 8) as f64 / 10.0;
                    (
                        PrivateHandle(h),
                        Rect::from_coords(x, y, x + 0.05, y + 0.05),
                    )
                })
                .collect();
            if client.push_updates(&batch).is_ok() {
                if killed_seen.load(std::sync::atomic::Ordering::Relaxed) {
                    post_kill_rounds += 1;
                    if post_kill_rounds >= 20 {
                        return (client.stats(), round, batch);
                    }
                }
                round += 1;
            } else if Instant::now() > deadline {
                panic!("pipelined pusher never converged through the failover");
            }
        }
    });

    // Let the pusher get windows in flight, then kill the primary
    // mid-stream: sender thread, WAL and serving plane die together.
    std::thread::sleep(Duration::from_millis(40));
    drop(primary);
    s1.shutdown();
    killed.store(true, std::sync::atomic::Ordering::Relaxed);

    assert!(
        eventually(|| standby.is_promoted()),
        "{ctx}: standby never promoted"
    );
    let promoted_epoch = standby_durable.boot_epoch();
    assert!(promoted_epoch > primary_epoch, "{ctx}");

    let (stats, _rounds, last_batch) = pusher.join().expect("pusher thread");
    assert!(
        stats.failovers >= 1,
        "{ctx}: pusher converged without rotating endpoints: {stats:?}"
    );

    // Zero lost acked wire state: the promoted standby holds every
    // handle of the last fully-acked window with exactly its newest
    // acked region.
    let mut entries = s2.with_server(|s| s.private_entries());
    entries.sort_by_key(|e| e.id.0);
    assert_eq!(entries.len(), 32, "{ctx}: lost handles across the kill");
    for ((handle, want), got) in last_batch.iter().zip(&entries) {
        assert_eq!(got.id.0, handle.0, "{ctx}");
        assert_eq!(
            got.mbr, *want,
            "{ctx}: handle {} regressed past its acked region",
            handle.0
        );
    }

    // Zero lost synced acks on the replication stream, same contract as
    // every other kill scenario.
    let horizon = standby_durable.durable_seq() as usize;
    assert!(horizon <= oplog.len(), "{ctx}: standby invented history");
    for (i, &s) in synced.iter().enumerate() {
        assert!(
            !s || i < horizon,
            "{ctx}: op seq {} was acked synced but is past the standby horizon {horizon}",
            i + 1
        );
    }
    assert_matches_model(
        &format!("{ctx} "),
        &standby_durable,
        &fold(&oplog[..horizon]),
    );
    verify_recovery(&*standby_durable, 32)
        .unwrap_or_else(|e| panic!("{ctx}: post-promotion privacy verification failed: {e}"));
    s2.shutdown();
}
