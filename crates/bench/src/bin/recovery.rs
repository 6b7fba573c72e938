//! Crash-recovery cost: time-to-recover vs checkpoint interval.
//!
//! ```text
//! cargo run --release -p casper-bench --bin recovery
//! ```
//!
//! Runs the same 20k-op mixed workload (registrations + moves + profile
//! changes + departures over a 4k-user town) through a
//! `DurableAnonymizer<ShardedAnonymizer>` at several checkpoint
//! intervals, "crashes", and measures recovery: WAL bytes to scan,
//! records replayed, wall-clock time, and the post-recovery invariant
//! sweep. The trade the numbers expose is the classic one — frequent
//! checkpoints cost write bandwidth during normal operation but bound
//! the replay tail; `checkpoint_every: None` makes recovery replay the
//! entire history.
//!
//! The main matrix runs on the fault-injecting in-memory store (so the
//! numbers isolate recovery compute from disk speed); a second, smaller
//! section repeats two intervals on a real directory ([`DirStorage`])
//! for end-to-end times. A `checkpoint_size` section encodes the same
//! post-workload state as a (columnar, varint-packed) checkpoint, asserts
//! it round-trips, and records its size and bytes per user. Results land
//! in `BENCH_recovery.json` (schema v3).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use casper_core::durability::{
    decode_checkpoint, encode_checkpoint, verify_recovery, DirStorage, DurabilityConfig,
    DurableAnonymizer, MemStorage, Storage,
};
use casper_core::{AnonymizerService, ShardedAnonymizer};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use rand::{rngs::StdRng, Rng, SeedableRng};

const OPS: usize = 20_000;
const USERS: u64 = 4_000;
const GLOBAL_HEIGHT: u8 = 8;
const SHARD_LEVEL: u8 = 2;
const INTERVALS: [Option<u64>; 4] = [None, Some(8_000), Some(2_000), Some(500)];

struct Sample {
    label: String,
    workload_ms: f64,
    stored_bytes: u64,
    recovery_ms: f64,
    replayed: usize,
    checkpoint_users: usize,
    recovered_users: usize,
}

fn drive<S: Storage + ?Sized>(d: &DurableAnonymizer<ShardedAnonymizer, S>, ops: usize) {
    let mut rng = StdRng::seed_from_u64(0xCA5B);
    for _ in 0..ops {
        let uid = UserId(rng.gen_range(0..USERS));
        let pos = Point::new(rng.gen(), rng.gen());
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let profile = Profile::new(rng.gen_range(2u32..12), 0.0);
                d.try_register(uid, profile, pos).expect("register");
            }
            5..=7 => {
                d.try_update_location(uid, pos).expect("move");
            }
            8 => {
                let profile = Profile::new(rng.gen_range(2u32..12), 0.0);
                d.try_update_profile(uid, profile).expect("profile");
            }
            _ => {
                d.try_deregister(uid).expect("deregister");
            }
        }
    }
}

fn label(every: Option<u64>) -> String {
    match every {
        None => "none".into(),
        Some(n) => n.to_string(),
    }
}

fn run_mem(every: Option<u64>) -> Sample {
    let storage = Arc::new(MemStorage::new());
    let cfg = DurabilityConfig {
        checkpoint_every: every,
    };
    let make = || ShardedAnonymizer::new(GLOBAL_HEIGHT, SHARD_LEVEL);
    let (d, _) = DurableAnonymizer::recover(storage.clone(), cfg, make).expect("bootstrap");
    let t = Instant::now();
    drive(&d, OPS);
    let workload_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(d);
    let stored_bytes = storage.total_bytes() as u64;
    storage.crash_restart(Default::default()); // power cut, nothing torn

    let t = Instant::now();
    let (d, report) = DurableAnonymizer::recover(storage, cfg, make).expect("recover");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    verify_recovery(&d, 256).expect("recovered state verifies");
    Sample {
        label: label(every),
        workload_ms,
        stored_bytes,
        recovery_ms,
        replayed: report.replayed,
        checkpoint_users: report.checkpoint_users,
        recovered_users: d.inner().user_count(),
    }
}

fn run_dir(every: Option<u64>) -> Sample {
    let root = std::env::temp_dir().join(format!(
        "casper-bench-recovery-{}-{}",
        std::process::id(),
        label(every)
    ));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurabilityConfig {
        checkpoint_every: every,
    };
    let make = || ShardedAnonymizer::new(GLOBAL_HEIGHT, SHARD_LEVEL);
    let storage = Arc::new(DirStorage::open(&root).expect("open bench dir"));
    let (d, _) = DurableAnonymizer::recover(storage, cfg, make).expect("bootstrap");
    let t = Instant::now();
    drive(&d, OPS / 4); // real fsyncs: keep the matrix fast
    let workload_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(d);

    // "Reboot": fresh handles over the same directory.
    let storage = Arc::new(DirStorage::open(&root).expect("reopen bench dir"));
    let stored_bytes: u64 = storage
        .list()
        .expect("list")
        .iter()
        .filter_map(|n| storage.len(n).ok())
        .sum();
    let t = Instant::now();
    let (d, report) = DurableAnonymizer::recover(storage, cfg, make).expect("recover");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    verify_recovery(&d, 256).expect("recovered state verifies");
    let sample = Sample {
        label: label(every),
        workload_ms,
        stored_bytes,
        recovery_ms,
        replayed: report.replayed,
        checkpoint_users: report.checkpoint_users,
        recovered_users: d.inner().user_count(),
    };
    drop(d);
    let _ = std::fs::remove_dir_all(&root);
    sample
}

/// Encodes the post-workload user table as a checkpoint, asserts it
/// decodes back to the same records, and returns `(users, bytes)`.
fn checkpoint_size() -> (usize, usize) {
    let storage = Arc::new(MemStorage::new());
    let cfg = DurabilityConfig {
        checkpoint_every: None,
    };
    let make = || ShardedAnonymizer::new(GLOBAL_HEIGHT, SHARD_LEVEL);
    let (d, _) = DurableAnonymizer::recover(storage, cfg, make).expect("bootstrap");
    drive(&d, OPS);

    // Same grouping the durability layer's gather uses: bulk records,
    // segmented by shard, sorted by uid within each segment.
    let inner = d.inner();
    let mut records = inner.user_records();
    records.sort_unstable_by_key(|&(uid, _, _)| uid);
    let mut shards: Vec<Vec<(UserId, Profile, Point)>> = Vec::new();
    for (uid, profile, pos) in records {
        let idx = inner.shard_hint(pos);
        if idx >= shards.len() {
            shards.resize_with(idx + 1, Vec::new);
        }
        shards[idx].push((uid, profile, pos));
    }
    let users: usize = shards.iter().map(Vec::len).sum();

    let bytes = encode_checkpoint(0, &shards);
    assert_eq!(
        decode_checkpoint(&bytes)
            .expect("checkpoint decodes")
            .shards,
        shards,
        "checkpoint must round-trip"
    );
    (users, bytes.len())
}

fn section_json(samples: &[Sample]) -> String {
    let mut out = String::new();
    for (i, s) in samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n      \"{}\": {{\"workload_ms\": {:.1}, \"stored_bytes\": {}, \
             \"recovery_ms\": {:.2}, \"replayed\": {}, \"checkpoint_users\": {}, \
             \"recovered_users\": {}}}",
            s.label,
            s.workload_ms,
            s.stored_bytes,
            s.recovery_ms,
            s.replayed,
            s.checkpoint_users,
            s.recovered_users
        );
    }
    out
}

fn main() {
    println!("=== crash recovery vs checkpoint interval ===");
    println!(
        "ops: {OPS}; users: {USERS}; geometry: height {GLOBAL_HEIGHT}, shard level {SHARD_LEVEL}"
    );

    let mut mem = Vec::new();
    for &every in &INTERVALS {
        let s = run_mem(every);
        println!(
            "mem  interval {:>5}: workload {:7.1} ms, {:>9} bytes stored, recovery {:7.2} ms \
             ({} replayed on {} checkpointed users)",
            s.label, s.workload_ms, s.stored_bytes, s.recovery_ms, s.replayed, s.checkpoint_users
        );
        mem.push(s);
    }

    let mut dir = Vec::new();
    for &every in &[None, Some(500)] {
        let s = run_dir(every);
        println!(
            "dir  interval {:>5}: workload {:7.1} ms, {:>9} bytes stored, recovery {:7.2} ms \
             ({} replayed on {} checkpointed users)",
            s.label, s.workload_ms, s.stored_bytes, s.recovery_ms, s.replayed, s.checkpoint_users
        );
        dir.push(s);
    }

    let (ckpt_users, ckpt_bytes) = checkpoint_size();
    let bytes_per_user = ckpt_bytes as f64 / ckpt_users as f64;
    println!(
        "checkpoint size, {ckpt_users} users: {ckpt_bytes} bytes ({bytes_per_user:.1} per user)"
    );

    let full_replay = mem.first().map(|s| s.recovery_ms).unwrap_or(f64::NAN);
    let tight = mem.last().map(|s| s.recovery_ms).unwrap_or(f64::NAN);
    let headline = full_replay / tight;
    println!("recovery speedup, checkpoint-every-500 vs full replay: {headline:.1}x");

    let json = format!(
        "{{\n  \"schema_version\": {},\n  \"bench\": \"recovery\",\n  \"engine\": \"DurableAnonymizer<ShardedAnonymizer>\",\n  \
         \"ops\": {OPS},\n  \"users\": {USERS},\n  \"global_height\": {GLOBAL_HEIGHT},\n  \
         \"shard_level\": {SHARD_LEVEL},\n  \"mem\": {{\n    \"intervals\": {{{}\n    }}\n  }},\n  \
         \"dir\": {{\n    \"ops\": {},\n    \"intervals\": {{{}\n    }}\n  }},\n  \
         \"checkpoint_size\": {{\n    \"users\": {ckpt_users},\n    \"bytes\": {ckpt_bytes},\n    \
         \"bytes_per_user\": {bytes_per_user:.2},\n    \"round_trip_ok\": true\n  }},\n  \
         \"full_replay_over_tight_checkpoint_speedup\": {headline:.2}\n}}\n",
        casper_bench::SCHEMA_VERSION_V3,
        section_json(&mem),
        OPS / 4,
        section_json(&dir),
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");
}
