//! Crash safety for the trusted tier (DESIGN §11).
//!
//! The anonymizer is the one component of the Casper architecture that
//! *must not* forget: it holds every user's `(k, A_min)` profile and
//! exact position, and the §8 boot-id machinery only protects in-flight
//! requests — not the state a crash would erase. This module makes the
//! trusted tier durable:
//!
//! * [`wal`] — append-only op log: CRC-32-framed records with monotone
//!   sequence numbers, group-commit batching over [`GroupWal`].
//! * [`checkpoint`] — `CSPA` files: the full user table at a known WAL
//!   position, per-shard segments, segment + file CRC trailers.
//! * [`recover`] — [`DurableAnonymizer`]: log-ahead writes, periodic
//!   checkpoint + WAL rotation, and [`DurableAnonymizer::recover`] =
//!   newest valid checkpoint + WAL-tail replay with torn-tail
//!   truncation and boot-epoch bump.
//! * [`storage`] — the [`Storage`] boundary: [`DirStorage`] for real
//!   disks, [`MemStorage`] with deterministic torn-write/short-read/
//!   IO-error/bit-flip injection for the kill-loop harness.
//! * [`verify`] — post-recovery invariant checks: census, deep
//!   structure, and re-cloaking under the recovered pyramid.
//!
//! The durability contract, in one sentence: **an operation whose call
//! returned success is present after any crash; an operation still in
//! flight may be dropped, and the client's idempotent §8 replay decides
//! its fate.**
//!
//! ```
//! use std::sync::{Arc, RwLock};
//! use casper_core::durability::{DurabilityConfig, DurableAnonymizer, MemStorage};
//! use casper_core::engine::AnonymizerService;
//! use casper_grid::{AdaptivePyramid, Profile, UserId};
//! use casper_geometry::Point;
//!
//! let storage = Arc::new(MemStorage::new());
//! let make = || RwLock::new(AdaptivePyramid::new(6));
//! let (durable, _) =
//!     DurableAnonymizer::recover(storage.clone(), DurabilityConfig::default(), make).unwrap();
//! durable.try_register(UserId(1), Profile::new(1, 0.0), Point::new(0.5, 0.5)).unwrap();
//! drop(durable); // "crash": in-memory state gone, storage survives
//! let (recovered, report) =
//!     DurableAnonymizer::recover(storage, DurabilityConfig::default(), make).unwrap();
//! assert_eq!(recovered.user_count(), 1);
//! assert_eq!(report.replayed, 1);
//! ```

pub mod checkpoint;
pub mod recover;
pub mod storage;
pub mod verify;
pub mod wal;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointError};
pub use recover::{DurabilityConfig, DurableAnonymizer, RecoveryReport};
pub use storage::{DirStorage, FaultPlan, MemStorage, Storage};
pub use verify::{same_population, verify_recovery, CheckInvariants, VerifyReport};
pub use wal::{GroupWal, WalOp};

/// Why a durable operation or recovery failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// The underlying storage failed.
    Io(std::io::Error),
    /// A previous flush failed; the WAL refuses all further commits
    /// (acknowledging past a failed fsync would forfeit the
    /// no-acked-op-lost guarantee). Recover from storage to continue.
    WalPoisoned,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability storage error: {e}"),
            DurabilityError::WalPoisoned => {
                write!(f, "write-ahead log poisoned by an earlier IO failure")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::WalPoisoned => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnonymizerService;
    use casper_geometry::Point;
    use casper_grid::{AdaptivePyramid, CompletePyramid, Profile, UserId};
    use std::sync::Arc;
    use std::sync::RwLock;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The poison rule (`crate::sync`, DESIGN §6): a thread that panics
    /// while it holds the trusted tier's write lock poisons it, and the
    /// tier keeps serving updates and cloaks instead of failing every
    /// later request.
    #[test]
    fn a_poisoned_trusted_tier_keeps_serving() {
        let storage = Arc::new(MemStorage::new());
        let make = || RwLock::new(AdaptivePyramid::new(6));
        let (d, _) =
            DurableAnonymizer::recover(storage, DurabilityConfig::default(), make).unwrap();
        d.try_register(UserId(1), Profile::new(1, 0.0), p(0.5, 0.5))
            .unwrap();
        let d = Arc::new(d);
        let holder = Arc::clone(&d);
        let died = std::thread::spawn(move || {
            let _held = holder.inner().write().unwrap();
            panic!("a request panics while it holds the pyramid");
        })
        .join();
        assert!(died.is_err());
        assert!(d.inner().is_poisoned());

        d.try_update_location(UserId(1), p(0.25, 0.75)).unwrap();
        let region = d.cloak(UserId(1)).expect("a poisoned tier still cloaks");
        assert!(region.rect.contains(p(0.25, 0.75)));
        assert_eq!(
            d.position_of(UserId(1)).map(|q| (q.x, q.y)),
            Some((0.25, 0.75))
        );
    }

    #[test]
    fn ops_survive_restart_via_wal_replay() {
        let storage = Arc::new(MemStorage::new());
        let make = || RwLock::new(CompletePyramid::new(6));
        let cfg = DurabilityConfig {
            checkpoint_every: None,
        };
        let (d, r) = DurableAnonymizer::recover(storage.clone(), cfg, make).unwrap();
        assert_eq!(r.boot_epoch, 1);
        assert_eq!(r.last_seq, 0);
        d.try_register(UserId(1), Profile::new(2, 0.0), p(0.1, 0.1))
            .unwrap();
        d.try_register(UserId(2), Profile::new(2, 0.0), p(0.12, 0.1))
            .unwrap();
        d.try_update_location(UserId(1), p(0.9, 0.9)).unwrap();
        d.try_deregister(UserId(2)).unwrap();
        drop(d);

        let (d, r) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        assert_eq!(r.boot_epoch, 2);
        assert_eq!(r.replayed, 4);
        assert_eq!(r.checkpoint_seq, None);
        assert_eq!(d.user_count(), 1);
        let pos = d.position_of(UserId(1)).unwrap();
        assert_eq!((pos.x, pos.y), (0.9, 0.9));
        verify_recovery(&d, usize::MAX).unwrap();
    }

    #[test]
    fn checkpoint_bounds_replay_and_rotates_wal() {
        let storage = Arc::new(MemStorage::new());
        let make = || RwLock::new(AdaptivePyramid::new(6));
        let cfg = DurabilityConfig {
            checkpoint_every: Some(10),
        };
        let (d, _) = DurableAnonymizer::recover(storage.clone(), cfg, make).unwrap();
        for i in 0..25u64 {
            d.try_register(UserId(i), Profile::new(3, 0.0), p(0.03 * i as f64, 0.5))
                .unwrap();
        }
        drop(d);
        let (d, r) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        assert_eq!(d.user_count(), 25);
        let ckpt = r.checkpoint_seq.expect("auto-checkpoint must have fired");
        assert!(ckpt >= 10, "checkpoint at {ckpt}");
        assert!(
            r.replayed <= 15,
            "checkpoint should bound replay, got {}",
            r.replayed
        );
        assert_eq!(r.last_seq, 25);
        verify_recovery(&d, usize::MAX).unwrap();
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_a_generation() {
        let storage = Arc::new(MemStorage::new());
        let make = || RwLock::new(CompletePyramid::new(5));
        let cfg = DurabilityConfig {
            checkpoint_every: None,
        };
        let (d, _) = DurableAnonymizer::recover(storage.clone(), cfg, make).unwrap();
        for i in 0..8u64 {
            d.try_register(UserId(i), Profile::new(1, 0.0), p(0.1 * i as f64, 0.2))
                .unwrap();
        }
        d.checkpoint().unwrap();
        for i in 8..12u64 {
            d.try_register(UserId(i), Profile::new(1, 0.0), p(0.05 * i as f64, 0.7))
                .unwrap();
        }
        d.checkpoint().unwrap();
        drop(d);
        // Corrupt the newest checkpoint in place.
        let names = storage.list().unwrap();
        let newest = names
            .iter()
            .filter(|n| n.ends_with(".cspa"))
            .max()
            .unwrap()
            .clone();
        let mut bytes = storage.read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        storage.write_atomic(&newest, &bytes).unwrap();

        let (d, r) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        assert!(r.salvaged_older_checkpoint);
        assert_eq!(r.checkpoint_seq, Some(8));
        assert_eq!(d.user_count(), 12, "acked ops re-applied from retained WAL");
        verify_recovery(&d, usize::MAX).unwrap();
    }

    #[test]
    fn sharded_tier_recovers_with_boot_epoch() {
        let storage = Arc::new(MemStorage::new());
        let cfg = DurabilityConfig {
            checkpoint_every: Some(50),
        };
        let make = || crate::ShardedAnonymizer::new(8, 2);
        let (d, r1) = DurableAnonymizer::recover(storage.clone(), cfg, make).unwrap();
        assert_eq!(d.boot_epoch(), r1.boot_epoch);
        for i in 0..200u64 {
            d.try_register(
                UserId(i),
                Profile::new(4, 0.0),
                p((i as f64 * 0.31) % 1.0, (i as f64 * 0.17) % 1.0),
            )
            .unwrap();
        }
        drop(d);

        let (d, r2) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        assert_eq!(r2.boot_epoch, r1.boot_epoch + 1);
        assert_eq!(d.boot_epoch(), r2.boot_epoch);
        assert_eq!(d.user_count(), 200);
        verify_recovery(&d, 64).unwrap();
    }

    /// What a crash leaves after the last synced record of the newest
    /// WAL file in `dir`: `torn` bytes of a record that never became
    /// durable, then zero fill to two blocks past them (the whole tail
    /// of a preallocated file).
    fn crash_tail(dir: &std::path::Path, torn: &[u8]) {
        use std::os::unix::fs::FileExt;
        let newest = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("wal-"))
            .max()
            .unwrap();
        let path = dir.join(newest);
        let data = std::fs::read(&path).unwrap();
        let (_, valid, stop) = wal::decode_log(&data, None);
        assert_eq!(stop, wal::DecodeStop::End);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(torn, valid as u64).unwrap();
        let end = (valid + torn.len()).div_ceil(4096) * 4096 + 4096;
        file.set_len(end.max(data.len()) as u64).unwrap();
    }

    /// A crash on a [`DirStorage`] opened by `open`, with `torn` left
    /// after the synced records: recovery must bring back exactly those
    /// records and count only `torn` as discarded.
    fn dir_crash_recovers_the_synced_prefix(
        open: fn(&std::path::Path) -> std::io::Result<DirStorage>,
        test: &str,
        torn: &[u8],
    ) {
        let dir = std::env::temp_dir().join(format!("casper-crash-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let make = || RwLock::new(AdaptivePyramid::new(6));
        let cfg = DurabilityConfig {
            checkpoint_every: None,
        };
        let storage = Arc::new(open(&dir).unwrap());
        let (d, _) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        for i in 0..40u64 {
            d.try_register(UserId(i), Profile::new(2, 0.0), p(0.02 * i as f64, 0.5))
                .unwrap();
        }
        for i in 0..60u64 {
            d.try_update_location(UserId(i % 40), p(0.5, 0.015 * i as f64))
                .unwrap();
        }
        let mut live = d.user_records();
        live.sort_by_key(|r| r.0);
        drop(d);

        crash_tail(&dir, torn);
        let storage = Arc::new(open(&dir).unwrap());
        let (d, report) = DurableAnonymizer::recover(storage, cfg, make).unwrap();
        let mut recovered = d.user_records();
        recovered.sort_by_key(|r| r.0);
        assert_eq!(recovered, live);
        assert_eq!((report.last_seq, report.replayed), (100, 100));
        assert_eq!(
            report.truncated_bytes,
            torn.len() as u64,
            "padding counted as torn bytes, or a tear missed"
        );
        verify_recovery(&d, usize::MAX).unwrap();
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The first 16 bytes of the record seq 101 would have been: they
    /// end in the seq's low byte, so none of them reads as fill.
    fn torn_record() -> Vec<u8> {
        let mut rec = Vec::new();
        let op = WalOp::UpdateLocation {
            uid: UserId(7),
            pos: p(0.25, 0.75),
        };
        wal::encode_record(&mut rec, 101, &op);
        rec.truncate(16);
        assert_ne!(rec[15], 0);
        rec
    }

    #[test]
    fn dir_storage_recovers_the_synced_prefix_from_a_zero_padded_tail() {
        dir_crash_recovers_the_synced_prefix(|d| DirStorage::open(d), "zero-tail", &[]);
    }

    #[test]
    fn dir_storage_detects_a_torn_record_followed_by_zeros() {
        dir_crash_recovers_the_synced_prefix(|d| DirStorage::open(d), "torn", &torn_record());
    }

    #[test]
    fn dir_storage_without_direct_io_recovers_the_same_way() {
        let buffered = |d: &std::path::Path| DirStorage::open_buffered(d);
        dir_crash_recovers_the_synced_prefix(buffered, "buffered-zero-tail", &[]);
        dir_crash_recovers_the_synced_prefix(buffered, "buffered-torn", &torn_record());
    }

    #[test]
    fn error_display_and_source_chain() {
        let io = DurabilityError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&DurabilityError::WalPoisoned).is_none());
    }
}
