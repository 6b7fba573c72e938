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
//! use std::sync::Arc;
//! use casper_core::durability::{DurabilityConfig, DurableAnonymizer, MemStorage};
//! use casper_core::engine::AnonymizerService;
//! use casper_grid::{AdaptivePyramid, Profile, UserId};
//! use casper_geometry::Point;
//! use parking_lot::RwLock;
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

use std::sync::Arc;

use crate::engine::ParallelEngine;
use crate::ShardedAnonymizer;

/// The standard crash-safe concurrent deployment: recovers a
/// [`ShardedAnonymizer`] from `storage` and assembles a
/// [`ParallelEngine`] around the [`DurableAnonymizer`], with the server
/// plane's §8 boot id set to the recovered boot epoch so restarted
/// servers are immediately distinguishable to clients.
///
/// The `(global_height, shard_level)` geometry must match the run that
/// wrote the state — the checkpoint stores users, not layout.
pub fn recover_sharded_engine<S: Storage + ?Sized>(
    storage: Arc<S>,
    config: DurabilityConfig,
    global_height: u8,
    shard_level: u8,
    threads: usize,
) -> Result<
    (
        ParallelEngine<DurableAnonymizer<ShardedAnonymizer, S>>,
        RecoveryReport,
    ),
    DurabilityError,
> {
    let (durable, report) = DurableAnonymizer::recover(storage, config, || {
        ShardedAnonymizer::new(global_height, shard_level)
    })?;
    let boot_epoch = durable.boot_epoch();
    let engine = ParallelEngine::new(durable, threads).with_boot_id(boot_epoch);
    Ok((engine, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnonymizerService;
    use casper_geometry::Point;
    use casper_grid::{AdaptivePyramid, CompletePyramid, Profile, UserId};
    use parking_lot::RwLock;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
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
    fn sharded_engine_recovers_with_boot_epoch() {
        let storage = Arc::new(MemStorage::new());
        let cfg = DurabilityConfig {
            checkpoint_every: Some(50),
        };
        let (engine, r1) = recover_sharded_engine(storage.clone(), cfg, 8, 2, 2).unwrap();
        assert_eq!(engine.plane().boot_id(), r1.boot_epoch);
        let users: Vec<_> = (0..200u64)
            .map(|i| {
                (
                    UserId(i),
                    Profile::new(4, 0.0),
                    p((i as f64 * 0.31) % 1.0, (i as f64 * 0.17) % 1.0),
                )
            })
            .collect();
        engine.register_batch(users);
        drop(engine);

        let (engine, r2) = recover_sharded_engine(storage, cfg, 8, 2, 2).unwrap();
        assert_eq!(r2.boot_epoch, r1.boot_epoch + 1);
        assert_eq!(engine.plane().boot_id(), r2.boot_epoch);
        assert_eq!(engine.anonymizer().user_count(), 200);
        verify_recovery(engine.anonymizer(), 64).unwrap();
    }

    #[test]
    fn error_display_and_source_chain() {
        let io = DurabilityError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&DurabilityError::WalPoisoned).is_none());
    }
}
