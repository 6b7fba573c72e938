//! Durability walkthrough: write → kill → recover → query.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```
//!
//! * a sharded anonymizer is recovered (bootstrapped) from an empty
//!   on-disk directory, a server boots with the recovered boot epoch as
//!   its boot id, and a town's worth of users registers through the
//!   write-ahead log, their cloaked regions pushed over TCP;
//! * the process "crashes" — the anonymizer is dropped with live state
//!   in memory, and to make it interesting a torn half-record is
//!   appended to the WAL, as a power cut mid-write would;
//! * a fresh anonymizer recovers from the directory: newest checkpoint,
//!   WAL-tail replay, torn-tail truncation, boot-epoch bump — then
//!   proves the recovered pyramid still cloaks correctly, and a server
//!   booted under the new epoch acknowledges with it, which is what
//!   tells a client to replay everything it owes.

use std::sync::Arc;

use casper::core::durability::{verify_recovery, Storage};
use casper::core::{NetworkClient, NetworkServer, ServerConfig};
use casper::prelude::*;

/// Boots a server whose region acks carry `boot_id`.
fn boot_server(boot_id: u64) -> NetworkServer {
    NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig {
            boot_id: Some(boot_id),
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback server")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("casper-durable-{}", std::process::id()));
    let storage = Arc::new(DirStorage::open(&dir).expect("open durability dir"));
    let cfg = DurabilityConfig {
        checkpoint_every: Some(64),
    };

    let make = || ShardedAnonymizer::new(8, 2);

    // --- first life: bootstrap, register, move ---------------------
    let (durable, born) =
        DurableAnonymizer::recover(storage.clone(), cfg, make).expect("bootstrap from empty dir");
    println!(
        "boot epoch {}: empty start (checkpoint: {:?}, replayed: {})",
        born.boot_epoch, born.checkpoint_seq, born.replayed
    );
    let server = boot_server(durable.boot_epoch());
    let mut client = NetworkClient::connect(server.addr()).expect("connect");

    for i in 0..300u64 {
        durable
            .try_register(
                UserId(i),
                Profile::new(3 + (i % 8) as u32, 0.0),
                Point::new((i as f64 * 0.377) % 1.0, (i as f64 * 0.211) % 1.0),
            )
            .expect("durable registration");
    }
    for i in 0..100u64 {
        durable
            .try_update_location(UserId(i), Point::new((i as f64 * 0.13) % 1.0, 0.42))
            .expect("durable move");
    }
    let regions: Vec<(PrivateHandle, Rect)> = (0..300u64)
        .map(|i| {
            (
                PrivateHandle(i),
                durable.cloak(UserId(i)).expect("cloak").rect,
            )
        })
        .collect();
    client
        .push_updates(&regions)
        .expect("push the cloaked regions");
    println!(
        "registered 300 users + 100 moves; durable through seq {}; \
         the server holds {} regions under boot id {:?}",
        durable.durable_seq(),
        server.with_server(|s| s.private_count()),
        client.server_boot(),
    );

    // --- the crash -------------------------------------------------
    // Drop the anonymizer and the server: every in-memory structure is
    // gone. Then tear the log the way a power cut does — a half-written
    // record at the tail.
    drop(durable);
    server.shutdown();
    let torn_wal = storage
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .expect("a WAL file exists");
    storage
        .append(&torn_wal, &[0x00, 0x00, 0x00, 0x19, 0xBA])
        .expect("tear the tail");
    println!("crashed; appended a torn half-record to {torn_wal}");

    // --- second life: recover and prove it -------------------------
    let (durable, report) =
        DurableAnonymizer::recover(storage, cfg, make).expect("recover from crash");
    println!(
        "boot epoch {}: checkpoint at seq {:?} ({} users), replayed {} ops, \
         truncated {} torn bytes, last seq {}, took {:?}",
        report.boot_epoch,
        report.checkpoint_seq,
        report.checkpoint_users,
        report.replayed,
        report.truncated_bytes,
        report.last_seq,
        report.duration,
    );
    assert_eq!(report.boot_epoch, born.boot_epoch + 1);
    assert!(report.truncated_bytes > 0, "the torn record was discarded");
    assert_eq!(durable.user_count(), 300);

    let verified = verify_recovery(&durable, usize::MAX).expect("invariants hold");
    println!(
        "verified: {} users census-checked, {} re-cloaked successfully",
        verified.users, verified.cloaks_checked
    );

    let region = durable.cloak(UserId(7)).expect("user 7 survived the crash");
    println!(
        "user 7 cloaks to {:?} covering {} users (area {:.5})",
        region.rect,
        region.user_count,
        region.area()
    );

    let server = boot_server(durable.boot_epoch());
    let mut client = NetworkClient::connect(server.addr()).expect("connect");
    client
        .push_update(PrivateHandle(7), region.rect)
        .expect("push user 7's region");
    assert_eq!(client.server_boot(), Some(report.boot_epoch));
    println!(
        "the restarted server acks under boot id {:?}",
        client.server_boot()
    );
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
}
