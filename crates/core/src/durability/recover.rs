//! The durable anonymizer: WAL-ahead logging, periodic checkpoints,
//! and crash recovery.
//!
//! [`DurableAnonymizer`] wraps any [`AnonymizerService`] and makes its
//! state-changing operations crash-safe: each op is committed to the
//! [`GroupWal`] *before* it touches the in-memory structure, and the
//! call does not return success until the record is fsynced. An
//! acknowledged op therefore survives any crash; an unacknowledged one
//! may or may not — exactly the contract clients' §8 idempotent replay
//! is built for.
//!
//! # Concurrency protocol
//!
//! A `gate: RwLock<()>` closes the one race a WAL alone leaves open:
//! an op that is logged (and acked) but not yet applied when a
//! checkpoint scans the structure would be both *missing from the
//! checkpoint* and *skipped by replay* (its seq is ≤ the checkpoint's).
//! Ops hold the gate in read mode across log + apply; the checkpointer
//! takes it in write mode, so it only ever sees fully applied state.
//! Auto-checkpoints trigger *after* the op drops its read guard —
//! taking the write lock while holding a read lock would deadlock.
//!
//! # On-disk layout
//!
//! ```text
//! wal-{first_seq:020}.log    append-only op log (see durability::wal)
//! ckpt-{wal_seq:020}.cspa    checkpoint covering ops 1..=wal_seq
//! boot.epoch                 restart counter feeding the §8 boot id
//! ```
//!
//! Checkpoints rotate the WAL to a fresh file. Retention keeps the two
//! newest checkpoint generations and every WAL file not wholly covered
//! by the *older* retained checkpoint, so recovery can fall back one
//! generation (if the newest checkpoint is damaged) without losing
//! acknowledged operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use casper_geometry::Point;
use casper_grid::{CloakedRegion, MaintenanceStats, Profile, UserId};
use parking_lot::RwLock;

use crate::engine::AnonymizerService;

use super::checkpoint::{decode_checkpoint, encode_checkpoint, UserRecord};
use super::storage::{read_reliable, Storage};
use super::wal::{decode_records, DecodeStop, GroupWal, WalOp};
use super::DurabilityError;

/// Name of the boot-epoch file.
const BOOT_EPOCH_FILE: &str = "boot.epoch";
const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".cspa";
const WAL_PREFIX: &str = "wal-";
const WAL_SUFFIX: &str = ".log";

fn ckpt_name(wal_seq: u64) -> String {
    format!("{CKPT_PREFIX}{wal_seq:020}{CKPT_SUFFIX}")
}

fn wal_name(first_seq: u64) -> String {
    format!("{WAL_PREFIX}{first_seq:020}{WAL_SUFFIX}")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Tuning knobs for a [`DurableAnonymizer`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Write a checkpoint (and rotate the WAL) automatically after this
    /// many logged operations. `None` disables auto-checkpointing;
    /// [`DurableAnonymizer::checkpoint`] still works on demand.
    pub checkpoint_every: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: Some(10_000),
        }
    }
}

/// What recovery did, for operators and for the recovery bench.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// WAL position of the checkpoint the state was rebuilt from
    /// (`None` when recovery started from an empty structure).
    pub checkpoint_seq: Option<u64>,
    /// User records loaded from that checkpoint.
    pub checkpoint_users: usize,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Bytes discarded from the torn WAL tail (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Highest operation sequence number present after recovery. Every
    /// op acknowledged before the crash has seq ≤ this.
    pub last_seq: u64,
    /// The new boot epoch — strictly greater than any previous run's,
    /// for composing the §8 net-layer boot id.
    pub boot_epoch: u64,
    /// True when the newest checkpoint was damaged and recovery fell
    /// back to the previous generation.
    pub salvaged_older_checkpoint: bool,
    /// Wall-clock time recovery took.
    pub duration: Duration,
}

/// A crash-safe [`AnonymizerService`] wrapper: logs every mutation to a
/// [`GroupWal`] before applying it, checkpoints periodically, and is
/// reconstructed after a crash by [`DurableAnonymizer::recover`].
pub struct DurableAnonymizer<A, S: Storage + ?Sized> {
    inner: A,
    storage: Arc<S>,
    wal: GroupWal<S>,
    /// See the module docs: ops read, checkpoint writes.
    gate: RwLock<()>,
    config: DurabilityConfig,
    ops_since_checkpoint: AtomicU64,
    /// Atomic so a live promotion ([`Self::bump_epoch_to`]) can advance
    /// it without exclusive access to the whole anonymizer.
    boot_epoch: AtomicU64,
}

impl<A: AnonymizerService, S: Storage + ?Sized> DurableAnonymizer<A, S> {
    /// Recovers (or bootstraps) a durable anonymizer from `storage`.
    ///
    /// `make_empty` must produce a fresh, empty service of the same
    /// configuration (height, shard layout) as the one that wrote the
    /// state. Recovery loads the newest checkpoint that passes its CRC
    /// gate — falling back one generation if the newest is damaged —
    /// re-registers its records, replays the WAL tail, truncates (and
    /// repairs in place) the first torn record, bumps the boot epoch,
    /// and rotates to a fresh WAL file.
    pub fn recover(
        storage: Arc<S>,
        config: DurabilityConfig,
        make_empty: impl FnOnce() -> A,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let started = std::time::Instant::now();

        // 1. Bump the boot epoch first: even a recovery that later
        // fails must not reuse the previous run's §8 boot id.
        let boot_epoch = match read_reliable(&*storage, BOOT_EPOCH_FILE) {
            Ok(bytes) => decode_epoch(&bytes).unwrap_or(0) + 1,
            Err(_) => 1,
        };
        storage.write_atomic(BOOT_EPOCH_FILE, &encode_epoch(boot_epoch))?;

        // 2. Inventory the directory.
        let names = storage.list()?;
        let mut ckpts: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_numbered(n, CKPT_PREFIX, CKPT_SUFFIX))
            .collect();
        ckpts.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let mut wals: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_numbered(n, WAL_PREFIX, WAL_SUFFIX))
            .collect();
        wals.sort_unstable(); // oldest first

        // 3. Newest checkpoint that decodes clean wins.
        let inner = make_empty();
        let mut checkpoint_seq = None;
        let mut checkpoint_users = 0;
        let mut salvaged = false;
        for (tried, &seq) in ckpts.iter().enumerate() {
            let Ok(bytes) = read_reliable(&*storage, &ckpt_name(seq)) else {
                continue;
            };
            let Ok(ckpt) = decode_checkpoint(&bytes) else {
                continue;
            };
            for records in &ckpt.shards {
                for &(uid, profile, pos) in records {
                    inner.register(uid, profile, pos);
                    checkpoint_users += 1;
                }
            }
            checkpoint_seq = Some(ckpt.wal_seq);
            salvaged = tried > 0;
            break;
        }
        let base_seq = checkpoint_seq.unwrap_or(0);

        // 4. Replay the WAL tail. Only the newest file can legitimately
        // be torn (rotation syncs before switching), but a tear stops
        // replay wherever it is found — records after a tear have no
        // trustworthy predecessor chain.
        let mut last_seq = base_seq;
        let mut replayed = 0usize;
        let mut truncated_bytes = 0u64;
        'files: for &start in &wals {
            let name = wal_name(start);
            let data = read_reliable(&*storage, &name)?;
            let (records, valid_len, stop) = decode_records(&data, Some(start));
            for rec in &records {
                if rec.seq <= base_seq {
                    continue;
                }
                if rec.seq != last_seq + 1 {
                    // A gap between files: everything past it is
                    // unreachable history (e.g. files outliving a
                    // salvaged older checkpoint were already applied).
                    break 'files;
                }
                apply_op(&inner, &rec.op);
                last_seq = rec.seq;
                replayed += 1;
            }
            if stop != DecodeStop::End {
                // Torn tail: discard it, and repair the file in place so
                // the *next* recovery does not stop at this old tear
                // before reaching newer, valid files.
                truncated_bytes += (data.len() - valid_len) as u64;
                storage.write_atomic(&name, &data[..valid_len])?;
                break 'files;
            }
        }

        // 4b. GC orphaned WAL segments. Files whose first sequence lies
        // beyond the contiguous chain head can never replay: they are
        // unreachable history from a superseded generation (repeated
        // promotions and crash/salvage cycles mint them), they leak disk
        // on every failover, and one could even share a name with — and
        // so corrupt — a future rotation once the live chain reaches its
        // range. Best-effort, like `retain`.
        for &start in &wals {
            if start > last_seq {
                let _ = storage.remove(&wal_name(start));
            }
        }

        // 5. Rotate to a fresh WAL file for the new run.
        let next_seq = last_seq + 1;
        let new_wal = wal_name(next_seq);
        storage.append(&new_wal, &[])?;
        storage.sync(&new_wal)?;
        let wal = GroupWal::new(storage.clone(), new_wal, next_seq);

        let report = RecoveryReport {
            checkpoint_seq,
            checkpoint_users,
            replayed,
            truncated_bytes,
            last_seq,
            boot_epoch,
            salvaged_older_checkpoint: salvaged,
            duration: started.elapsed(),
        };
        crate::tel::recovery_done(&report);

        Ok((
            Self {
                inner,
                storage,
                wal,
                gate: RwLock::new(()),
                config,
                ops_since_checkpoint: AtomicU64::new(0),
                boot_epoch: AtomicU64::new(boot_epoch),
            },
            report,
        ))
    }

    /// The wrapped (in-memory) service.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The boot epoch of this run. Combine it into the net layer's
    /// boot id (via `ServerConfig::boot_id`) so restart detection (§8)
    /// fires for every recovery.
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch.load(Ordering::Acquire)
    }

    /// Advances the persisted boot epoch to at least `epoch` and returns
    /// the epoch now in force. A promoting standby calls this with
    /// `max(own, last seen primary epoch) + 1`, guaranteeing every
    /// client observes a boot-id change and replays its regions (§8).
    /// The write is durable before the new epoch is visible.
    pub fn bump_epoch_to(&self, epoch: u64) -> Result<u64, DurabilityError> {
        let current = self.boot_epoch();
        if epoch <= current {
            return Ok(current);
        }
        self.storage
            .write_atomic(BOOT_EPOCH_FILE, &encode_epoch(epoch))?;
        self.boot_epoch.store(epoch, Ordering::Release);
        Ok(epoch)
    }

    /// Highest durable (fsynced) operation sequence number.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// The sequence number the next logged operation will receive.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Durably registers a user. Blocks until the op is fsynced.
    pub fn try_register(
        &self,
        uid: UserId,
        profile: Profile,
        pos: Point,
    ) -> Result<MaintenanceStats, DurabilityError> {
        if !pos.is_finite() {
            return Ok(MaintenanceStats::ZERO);
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.durable_stats(WalOp::Register { uid, profile, pos })
    }

    /// Durably processes a location update.
    pub fn try_update_location(
        &self,
        uid: UserId,
        pos: Point,
    ) -> Result<MaintenanceStats, DurabilityError> {
        if !pos.is_finite() {
            return Ok(MaintenanceStats::ZERO);
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.durable_stats(WalOp::UpdateLocation { uid, pos })
    }

    /// Durably changes a user's privacy profile.
    pub fn try_update_profile(
        &self,
        uid: UserId,
        profile: Profile,
    ) -> Result<MaintenanceStats, DurabilityError> {
        self.durable_stats(WalOp::UpdateProfile { uid, profile })
    }

    /// Durably removes a user.
    pub fn try_deregister(&self, uid: UserId) -> Result<MaintenanceStats, DurabilityError> {
        self.durable_stats(WalOp::Deregister { uid })
    }

    fn durable_stats(&self, op: WalOp) -> Result<MaintenanceStats, DurabilityError> {
        self.commit_op(op).map(|(stats, _seq)| stats)
    }

    /// Logs, fsyncs, and applies one sanitised op, returning its stats
    /// and the WAL sequence it was assigned — the handle the replication
    /// tier ships and gates client acknowledgements on.
    pub(crate) fn commit_op(&self, op: WalOp) -> Result<(MaintenanceStats, u64), DurabilityError> {
        let (stats, seq);
        {
            let _gate = self.gate.read();
            seq = self.wal.commit(&op)?;
            stats = apply_op(&self.inner, &op);
        }
        self.maybe_auto_checkpoint();
        Ok((stats, seq))
    }

    /// Applies one op arriving over the replication stream at its
    /// primary-assigned sequence. The standby's own WAL assigns the same
    /// sequence (it has applied everything below), and record encoding is
    /// deterministic, so primary and standby logs stay bit-identical.
    ///
    /// Duplicates (seq already applied — sender resent after a reconnect)
    /// return `Ok` without re-applying; a gap (seq ahead of the local
    /// chain) is an error the sender answers by rewinding.
    pub fn apply_replicated(&self, seq: u64, op: &WalOp) -> Result<u64, DurabilityError> {
        {
            let _gate = self.gate.read();
            let next = self.wal.next_seq();
            if seq < next {
                return Ok(next - 1);
            }
            if seq > next {
                return Err(DurabilityError::Io(std::io::Error::other(format!(
                    "replication gap: got seq {seq}, expected {next}"
                ))));
            }
            let assigned = self.wal.commit(op)?;
            debug_assert_eq!(assigned, seq);
            apply_op(&self.inner, op);
        }
        self.maybe_auto_checkpoint();
        Ok(seq)
    }

    /// Auto-checkpoint accounting, shared by the live and replicated
    /// apply paths. Must run with the gate *released*.
    fn maybe_auto_checkpoint(&self) {
        if let Some(every) = self.config.checkpoint_every {
            let n = self.ops_since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
            if n >= every && self.ops_since_checkpoint.swap(0, Ordering::Relaxed) >= every {
                let _ = self.checkpoint();
            }
        }
    }

    /// Writes a checkpoint of the current state and rotates the WAL.
    /// Quiesces mutations for the duration (reads continue).
    pub fn checkpoint(&self) -> Result<u64, DurabilityError> {
        let _gate = self.gate.write();
        let seq = self.wal.durable_seq();
        let shards = gather_shards(&self.inner);
        let bytes = encode_checkpoint(seq, &shards);
        self.storage.write_atomic(&ckpt_name(seq), &bytes)?;
        // Rotate: later ops land in a file that postdates the
        // checkpoint, so replay never re-reads covered history.
        let next_seq = self.wal.next_seq();
        let new_wal = wal_name(next_seq);
        self.storage.append(&new_wal, &[])?;
        self.storage.sync(&new_wal)?;
        self.wal.rotate(new_wal, next_seq);
        self.ops_since_checkpoint.store(0, Ordering::Relaxed);
        self.retain(seq);
        crate::tel::checkpoint_written(bytes.len() as u64);
        Ok(seq)
    }

    /// Drops checkpoints older than the previous generation and WAL
    /// files wholly covered by it. Best-effort: a failed delete only
    /// costs disk space, never correctness.
    fn retain(&self, newest_ckpt: u64) {
        let Ok(names) = self.storage.list() else {
            return;
        };
        let mut ckpts: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_numbered(n, CKPT_PREFIX, CKPT_SUFFIX))
            .filter(|&s| s != newest_ckpt)
            .collect();
        ckpts.sort_unstable_by(|a, b| b.cmp(a));
        // Keep one older generation as the salvage target.
        let keep_floor = ckpts.first().copied().unwrap_or(newest_ckpt);
        for &old in ckpts.iter().skip(1) {
            let _ = self.storage.remove(&ckpt_name(old));
        }
        let mut wals: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_numbered(n, WAL_PREFIX, WAL_SUFFIX))
            .collect();
        wals.sort_unstable();
        // A WAL file may be deleted once the *next* file starts at or
        // below the salvage floor: every record in it then has
        // seq ≤ keep_floor, i.e. is covered even by the older
        // checkpoint.
        for pair in wals.windows(2) {
            if pair[1] <= keep_floor + 1 {
                let _ = self.storage.remove(&wal_name(pair[0]));
            }
        }
    }
}

/// Applies a logged op to the in-memory service. Shared by the live
/// path and replay so their effects are bit-identical.
fn apply_op<A: AnonymizerService + ?Sized>(inner: &A, op: &WalOp) -> MaintenanceStats {
    match *op {
        WalOp::Register { uid, profile, pos } => inner.register(uid, profile, pos),
        WalOp::UpdateLocation { uid, pos } => inner.update_location(uid, pos),
        WalOp::UpdateProfile { uid, profile } => inner.update_profile(uid, profile),
        WalOp::Deregister { uid } => inner.deregister(uid),
    }
}

/// Groups the full user table by [`AnonymizerService::shard_hint`] —
/// the checkpoint's per-shard segments. Must run quiesced (under the
/// gate's write lock) so no acked op is mid-application. Records come
/// from the bulk [`AnonymizerService::user_records`] drain (one lock
/// per shard on sharded services) instead of three lookups per user;
/// sorting each segment by uid keeps the v2 columnar encoding's
/// uid-delta varints small.
fn gather_shards<A: AnonymizerService + ?Sized>(inner: &A) -> Vec<Vec<UserRecord>> {
    let mut shards: Vec<Vec<UserRecord>> = Vec::new();
    for (uid, profile, pos) in inner.user_records() {
        let idx = inner.shard_hint(pos);
        if idx >= shards.len() {
            shards.resize_with(idx + 1, Vec::new);
        }
        shards[idx].push((uid, profile, pos));
    }
    if shards.is_empty() {
        shards.push(Vec::new());
    }
    for segment in &mut shards {
        segment.sort_unstable_by_key(|&(uid, _, _)| uid);
    }
    shards
}

fn encode_epoch(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&crate::net::crc32(&epoch.to_be_bytes()).to_be_bytes());
    out
}

fn decode_epoch(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != 12 {
        return None;
    }
    let epoch = u64::from_be_bytes(bytes[..8].try_into().ok()?);
    let crc = u32::from_be_bytes(bytes[8..].try_into().ok()?);
    (crate::net::crc32(&bytes[..8]) == crc).then_some(epoch)
}

/// Every [`DurableAnonymizer`] is itself an [`AnonymizerService`], so
/// it drops into [`crate::ParallelEngine`] unchanged. Mutations that
/// fail durably (poisoned WAL, dead disk) report zero maintenance cost
/// — the op was *not* acknowledged and the §8 retry machinery owns the
/// client-visible outcome. Reads bypass the WAL entirely.
impl<A: AnonymizerService, S: Storage + ?Sized> AnonymizerService for DurableAnonymizer<A, S> {
    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        self.try_register(uid, profile, pos)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        self.try_update_location(uid, pos)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        self.try_update_profile(uid, profile)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn deregister(&self, uid: UserId) -> MaintenanceStats {
        self.try_deregister(uid).unwrap_or(MaintenanceStats::ZERO)
    }

    fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        self.inner.cloak(uid)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        self.inner.position_of(uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.inner.profile_of(uid)
    }

    fn user_count(&self) -> usize {
        self.inner.user_count()
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.inner.user_ids()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        self.inner.user_records()
    }

    fn shard_hint(&self, pos: Point) -> usize {
        self.inner.shard_hint(pos)
    }

    fn home_hints(&self, uids: &[UserId]) -> Vec<usize> {
        self.inner.home_hints(uids)
    }

    fn cloak_many(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        self.inner.cloak_many(uids)
    }
}
