//! High-rate location-update ingestion from several threads into one
//! shared trusted tier and one shared server plane.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```
//!
//! Four producer threads fire batches of location updates (as a
//! cellular backbone would) into one [`ShardedAnonymizer`] and refresh
//! each moved user's cloaked region on one shared [`ServerPlane`], while
//! the main thread keeps serving cloaks — the paper's efficiency
//! requirement ("cope with the continuous movement of large numbers of
//! mobile users") exercised concurrently. This is the path the TCP
//! server's reactors and the benchmark's drivers take, minus the socket.
//! Updates for different shards proceed in parallel; the cloaking reader
//! never blocks on more than one shard lock.

use std::sync::Arc;
use std::time::Instant;

use casper::core::engine::ServerPlane;
use casper::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const USERS: usize = 20_000;
const UPDATES_PER_PRODUCER: usize = 50_000;
const PRODUCERS: usize = 4;
const BATCH: usize = 1_000;

/// Cloaks `uids` in one batch (grouped by home shard) and upserts each
/// region under a plane-minted sequence number.
fn refresh_regions(anonymizer: &ShardedAnonymizer, plane: &ServerPlane, uids: &[UserId]) {
    for (uid, region) in uids.iter().zip(anonymizer.cloak_many(uids)) {
        if let Some(region) = region {
            plane.execute(Request::UpsertRegion {
                handle: uid.0,
                seq: 0,
                region: region.rect,
            });
        }
    }
}

fn main() {
    // A 9-level pyramid split at level 2 → 16 shards.
    let anonymizer = Arc::new(ShardedAnonymizer::new(9, 2));
    let plane = Arc::new(ServerPlane::new(CasperServer::new(), FilterCount::Four, 1));

    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..USERS {
        anonymizer.register(
            UserId(i as u64),
            Profile::new(rng.gen_range(1..=50), 0.0),
            Point::new(rng.gen(), rng.gen()),
        );
    }
    let everyone: Vec<UserId> = (0..USERS as u64).map(UserId).collect();
    refresh_regions(&anonymizer, &plane, &everyone);

    let start = Instant::now();
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let (anonymizer, plane) = (Arc::clone(&anonymizer), Arc::clone(&plane));
        producers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100 + p as u64);
            let mut sent = 0usize;
            while sent < UPDATES_PER_PRODUCER {
                let n = BATCH.min(UPDATES_PER_PRODUCER - sent);
                let moved: Vec<UserId> = (0..n)
                    .map(|_| {
                        let uid = UserId(rng.gen_range(0..USERS as u64));
                        anonymizer.update_location(uid, Point::new(rng.gen(), rng.gen()));
                        uid
                    })
                    .collect();
                refresh_regions(&anonymizer, &plane, &moved);
                sent += n;
            }
            sent
        }));
    }

    // Meanwhile: serve cloaks from the main thread against the same
    // tier. Reads take one shard lock each, so they interleave with the
    // producers' per-shard writes.
    let mut cloaks = 0usize;
    let mut rng = StdRng::seed_from_u64(500);
    while producers.iter().any(|p| !p.is_finished()) {
        let uid = UserId(rng.gen_range(0..USERS as u64));
        if anonymizer.cloak(uid).is_some() {
            cloaks += 1;
        }
    }
    let total_updates: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();

    let elapsed = start.elapsed();
    println!("=== concurrent ingestion ===");
    println!("location updates applied : {total_updates}");
    println!("cloaked regions served   : {cloaks} (concurrently)");
    println!(
        "throughput               : {:.0} updates/s over {elapsed:?}",
        total_updates as f64 / elapsed.as_secs_f64()
    );
    println!("registered users intact  : {}", anonymizer.user_count());
    println!(
        "server regions in step   : {}",
        plane.read().private_count()
    );
}
