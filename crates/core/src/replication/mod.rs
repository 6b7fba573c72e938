//! Primary/standby replication for the trusted tier (DESIGN §16).
//!
//! PR 5 made the anonymizer crash-*safe*; this module makes it
//! crash-*available*. A [`ReplicatedAnonymizer`] wraps the primary's
//! [`DurableAnonymizer`]: every mutation is group-committed to the local
//! WAL and streamed — as the *same bytes*
//! [`crate::durability::wal::encode_record`] produced — over the §7
//! CRC-framed wire protocol to a [`Standby`], which replays each frame
//! of records into its own `DurableAnonymizer` at the primary-assigned
//! sequences, with one WAL flush per frame. Because record encoding is
//! deterministic and the standby applies in strict sequence order, the
//! two WALs (and the two pyramids) stay bit-identical up to the
//! replication horizon.
//!
//! The ship runs *in parallel* with the local fsync, not after it: a
//! record is queued for the sender as soon as the local WAL assigns its
//! sequence, so a commit costs `max(local fsync, ship + standby fsync)`
//! rather than their sum. The queue is filled under the WAL's state lock
//! (lock order: WAL state → sender queue), so records enter it in
//! sequence order and the sender never ships a run with a hole in it.
//! The acknowledgement contract does not move: no success returns before
//! the local fsync *and* the mode's standby horizon (below).
//!
//! # The standby may be ahead of the primary's disk
//!
//! A record can reach the standby and then be lost by the primary: it
//! crashes before its flush, or the fsync fails and poisons its WAL.
//! That op was never acked, and DESIGN §11 lets an op in flight survive
//! or be dropped, so a failover to a standby that keeps it is fine. A
//! *restarted* primary giving that seq to another op is not: the standby
//! would skip the new op as a duplicate and ack it, and the two logs
//! would differ from that seq on. One check on each side prevents it:
//!
//! * The sender ships nothing until the standby has answered a first
//!   heartbeat whose `commit_horizon` is everything this run recovered.
//!   If the standby has received more, every write fails with
//!   [`ReplicationError::Diverged`] and the sender falls silent, so the
//!   standby promotes.
//! * The standby keeps the highest `commit_horizon` it has accepted.
//!   When a primary with a higher epoch (a restarted one) reaches it
//!   while it holds records above that horizon, it cannot tell whether
//!   the newcomer holds the same ops at those seqs, so it answers as it
//!   would a zombie, fencing the newcomer, and promotes once the old run
//!   has been silent for `heartbeat_timeout`. This also covers a run
//!   that wrote locally without ever reaching the standby and died: the
//!   run after it recovers as far as the standby holds, and only the
//!   standby can see that those records were never confirmed.
//!
//! So a fast restart after a lost in-flight record becomes a failover,
//! not a fork. A standby that restarted itself has no confirmed horizon
//! and follows the first primary that reaches it; only the sender's
//! check applies then.
//!
//! # Durability modes
//!
//! [`DurabilityMode`] picks the acknowledgement horizon a client-visible
//! success must reach:
//!
//! * `LocalFsync` — classic PR 5 behaviour: ack once the local WAL
//!   fsync returns. A primary disk crash loses nothing; a primary *node*
//!   loss makes acked-but-unshipped tail ops unavailable until it
//!   returns.
//! * `StandbyReceived` — ack once the standby has received (decoded)
//!   the record. Survives primary node loss unless the standby dies in
//!   the same instant.
//! * `StandbyFsync` — ack once the standby's own WAL fsync covers the
//!   record. Survives the loss of either node's disk.
//!
//! The standby-gated modes **degrade to local** rather than block
//! forever: if the standby does not ack within
//! [`ReplicationConfig::ack_timeout`], the write returns success with
//! [`Committed::synced`] = `false` — the caller knows this op's
//! durability is temporarily local-only. Failing the write outright
//! would turn every standby hiccup into an outage, which is the exact
//! availability loss this module exists to remove.
//!
//! # Promotion state machine
//!
//! ```text
//!           frames arriving                    heartbeat silence
//!   STANDBY ───────────────▶ STANDBY (fresh) ───────────────────▶ PROMOTING
//!     │  serving gate closed: client requests shed `Overloaded`        │
//!     │                                                                ▼
//!     │                        epoch := max(own, primary) + 1   ──  PRIMARY
//!     └──────────── stale-epoch frames answered with the ────────  (serving)
//!                   higher epoch, fencing the old primary
//! ```
//!
//! The promoted epoch is strictly greater than anything the old primary
//! ever used, so (a) every client sees a boot-id change in the first
//! ack from the new primary and replays its regions (§8), and (b) the
//! old primary — should it come back — sees an ack epoch above its own
//! and fences itself ([`ReplicationError::Fenced`]) instead of
//! double-serving.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use casper_geometry::Point;
use casper_grid::{sanitize_position, CloakedRegion, MaintenanceStats, Profile, UserId};

use crate::durability::wal::{decode_records, encode_record, WalOp};
use crate::durability::{DurabilityError, DurableAnonymizer, Storage};
use crate::engine::{AnonymizerService, ReplicaHook, Response, ServerPlane};
use crate::net::{FramedStream, NetError};
use crate::sync::{lock, wait_timeout};
use crate::wire::{decode, encode, Message};

/// How far a client-visible acknowledgement must travel before an update
/// returns success. See the module docs for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Ack after the local WAL fsync (no standby gating).
    LocalFsync,
    /// Ack after the standby has received and decoded the record.
    StandbyReceived,
    /// Ack after the standby's own WAL fsync covers the record.
    StandbyFsync,
}

/// Tuning for the replication sender and the standby's failover monitor.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Acknowledgement horizon for client-visible success.
    pub mode: DurabilityMode,
    /// Idle interval between heartbeats (empty `Replicate` frames). The
    /// standby's death detector keys off their absence.
    pub heartbeat_interval: Duration,
    /// How long the standby tolerates heartbeat silence before it
    /// promotes itself. Must be comfortably above `heartbeat_interval`
    /// (4–8× is sensible) or jitter causes split promotions.
    pub heartbeat_timeout: Duration,
    /// How long a standby-gated write waits for the standby's ack before
    /// degrading to local durability (`synced = false`).
    pub ack_timeout: Duration,
    /// Socket connect timeout for the replication link.
    pub connect_timeout: Duration,
    /// Socket read/write timeout for the replication link.
    pub io_timeout: Duration,
    /// Backoff between reconnect attempts after a link failure.
    pub reconnect_backoff: Duration,
    /// Cap on records per `Replicate` frame.
    pub max_batch: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            mode: DurabilityMode::StandbyReceived,
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(150),
            ack_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_millis(500),
            reconnect_backoff: Duration::from_millis(25),
            max_batch: 4096,
        }
    }
}

/// Why a replicated mutation failed.
#[derive(Debug)]
pub enum ReplicationError {
    /// A standby acknowledged with a higher epoch: this node has been
    /// superseded by a promotion and must not accept writes (serving
    /// them would fork the replica pair's histories).
    Fenced {
        /// The epoch that superseded this node's.
        by_epoch: u64,
    },
    /// The standby's first answer showed it holding records past
    /// everything this node recovered: an earlier run of this node
    /// shipped them before its own fsync and died. Writing on would give
    /// those sequence numbers to other ops, so this node refuses writes
    /// and stops shipping; its silence lets the standby promote.
    Diverged {
        /// The standby's received horizon.
        standby_seq: u64,
        /// The highest sequence this node recovered.
        local_seq: u64,
    },
    /// The local durability layer failed (see [`DurabilityError`]).
    Durability(DurabilityError),
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::Fenced { by_epoch } => {
                write!(f, "fenced: superseded by epoch {by_epoch}")
            }
            ReplicationError::Diverged {
                standby_seq,
                local_seq,
            } => write!(
                f,
                "diverged: standby holds seq {standby_seq}, this node recovered {local_seq}"
            ),
            ReplicationError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicationError::Fenced { .. } | ReplicationError::Diverged { .. } => None,
            ReplicationError::Durability(e) => Some(e),
        }
    }
}

impl From<DurabilityError> for ReplicationError {
    fn from(e: DurabilityError) -> Self {
        ReplicationError::Durability(e)
    }
}

/// The outcome of one replicated mutation.
#[derive(Debug, Clone, Copy)]
pub struct Committed {
    /// Maintenance cost of applying the op locally.
    pub stats: MaintenanceStats,
    /// The WAL sequence the op was assigned (identical on the standby).
    pub seq: u64,
    /// Whether the configured [`DurabilityMode`] horizon was reached.
    /// `false` means the write degraded to local durability because the
    /// standby did not ack within [`ReplicationConfig::ack_timeout`].
    pub synced: bool,
}

/// Replication-ack horizons shared between writers and the sender.
#[derive(Debug, Default, Clone, Copy)]
struct AckState {
    /// Highest sequence the standby has received and decoded.
    received: u64,
    /// Highest sequence covered by the standby's own WAL fsync.
    durable: u64,
}

/// State shared between writer threads and the shipping thread.
struct SenderShared {
    /// Ops logged locally (not necessarily fsynced yet) but not yet
    /// durably acked by the standby, keyed by sequence. Writers insert
    /// under the WAL's state lock, so nothing may hold this lock while
    /// calling into the WAL (`durable_seq`, `next_seq`, ...). The sender
    /// ships contiguous runs from here and prunes entries once the
    /// standby's durable horizon passes them.
    pending: Mutex<std::collections::BTreeMap<u64, WalOp>>,
    /// Wakes the sender when new work lands.
    work: Condvar,
    /// Standby acknowledgement horizons.
    acks: Mutex<AckState>,
    /// Wakes writers blocked in `wait_synced`.
    acked: Condvar,
    /// Set when an ack carried a higher epoch: this primary is fenced.
    fenced_by: AtomicU64,
    /// The standby's received horizon, set when the standby's first
    /// answer showed it beyond `recovered` ([`ReplicationError::Diverged`]).
    diverged_at: AtomicU64,
    /// The highest sequence the wrapped anonymizer held when this pair
    /// was formed: everything this run of the node recovered.
    recovered: u64,
    stop: AtomicBool,
    config: ReplicationConfig,
}

impl SenderShared {
    fn fenced(&self) -> Option<u64> {
        match self.fenced_by.load(Ordering::Acquire) {
            0 => None,
            e => Some(e),
        }
    }

    /// Why this primary must refuse writes, if it must.
    fn refusal(&self) -> Option<ReplicationError> {
        if let Some(by_epoch) = self.fenced() {
            return Some(ReplicationError::Fenced { by_epoch });
        }
        match self.diverged_at.load(Ordering::Acquire) {
            0 => None,
            standby_seq => Some(ReplicationError::Diverged {
                standby_seq,
                local_seq: self.recovered,
            }),
        }
    }
}

/// The primary side of a replica pair: a [`DurableAnonymizer`] whose
/// mutations are streamed to a standby, with client acknowledgement
/// gated on the configured [`DurabilityMode`].
pub struct ReplicatedAnonymizer<A: AnonymizerService, S: Storage + ?Sized> {
    durable: Arc<DurableAnonymizer<A, S>>,
    shared: Arc<SenderShared>,
    sender: Option<JoinHandle<()>>,
}

impl<A, S> ReplicatedAnonymizer<A, S>
where
    A: AnonymizerService + 'static,
    S: Storage + ?Sized + 'static,
{
    /// Wraps `durable` as the primary of a replica pair shipping to the
    /// standby's wire endpoint `standby` (which may be a chaos proxy).
    /// The shipping thread starts immediately and reconnects through
    /// link failures until the pair is dropped. Its first frame is a
    /// heartbeat, and nothing ships until the standby has answered it:
    /// a standby holding records past `durable`'s current horizon makes
    /// every write fail with [`ReplicationError::Diverged`]. So write to
    /// `durable` only through the pair.
    pub fn new(
        durable: Arc<DurableAnonymizer<A, S>>,
        standby: SocketAddr,
        config: ReplicationConfig,
    ) -> Self {
        let shared = Arc::new(SenderShared {
            pending: Mutex::new(std::collections::BTreeMap::new()),
            work: Condvar::new(),
            acks: Mutex::new(AckState::default()),
            acked: Condvar::new(),
            fenced_by: AtomicU64::new(0),
            diverged_at: AtomicU64::new(0),
            recovered: durable.durable_seq(),
            stop: AtomicBool::new(false),
            config,
        });
        let sender = {
            let shared = Arc::clone(&shared);
            let durable = Arc::clone(&durable);
            std::thread::spawn(move || ship_loop(&durable, &shared, standby))
        };
        Self {
            durable,
            shared,
            sender: Some(sender),
        }
    }

    /// The wrapped durable anonymizer.
    pub fn durable(&self) -> &Arc<DurableAnonymizer<A, S>> {
        &self.durable
    }

    /// `Some(epoch)` when a standby ack superseded this primary.
    pub fn fenced_by(&self) -> Option<u64> {
        self.shared.fenced()
    }

    /// Ops logged locally but not yet durably acked by the standby —
    /// the replication lag, in operations.
    pub fn lag(&self) -> usize {
        lock(&self.shared.pending).len()
    }

    /// Durably registers a user, gated on the configured mode.
    pub fn try_register(
        &self,
        uid: UserId,
        profile: Profile,
        pos: Point,
    ) -> Result<Committed, ReplicationError> {
        let Some(pos) = sanitize_position(pos) else {
            return Ok(Committed {
                stats: MaintenanceStats::ZERO,
                seq: 0,
                synced: true,
            });
        };
        self.commit(WalOp::Register { uid, profile, pos })
    }

    /// Durably processes a location update, gated on the configured mode.
    pub fn try_update_location(
        &self,
        uid: UserId,
        pos: Point,
    ) -> Result<Committed, ReplicationError> {
        let Some(pos) = sanitize_position(pos) else {
            return Ok(Committed {
                stats: MaintenanceStats::ZERO,
                seq: 0,
                synced: true,
            });
        };
        self.commit(WalOp::UpdateLocation { uid, pos })
    }

    /// Durably changes a privacy profile, gated on the configured mode.
    pub fn try_update_profile(
        &self,
        uid: UserId,
        profile: Profile,
    ) -> Result<Committed, ReplicationError> {
        self.commit(WalOp::UpdateProfile { uid, profile })
    }

    /// Durably removes a user, gated on the configured mode.
    pub fn try_deregister(&self, uid: UserId) -> Result<Committed, ReplicationError> {
        self.commit(WalOp::Deregister { uid })
    }

    /// Log locally, enqueue for shipping, wait for the local fsync, apply,
    /// then wait for the mode's ack horizon. The op is queued for the
    /// standby *before* the local fsync, so the ship and the standby's
    /// flush overlap the primary's own. No success is reported before
    /// both the local fsync and the standby horizon (or the
    /// `ack_timeout` degrade). If the local fsync fails, the op is not
    /// acked and the WAL is poisoned; the standby may already hold it,
    /// which the in-flight half of the §11 contract allows. Should this
    /// node then restart, its next run must not give that seq to another
    /// op: see the module docs.
    fn commit(&self, op: WalOp) -> Result<Committed, ReplicationError> {
        if let Some(refused) = self.shared.refusal() {
            return Err(refused);
        }
        let (stats, seq) = self.durable.commit_op(op, |seq| {
            // Runs under the WAL's state lock, so `pending` receives seqs
            // in order: a later seq can never be shipped ahead of an
            // earlier one that is still on its way in.
            let mut pending = lock(&self.shared.pending);
            pending.insert(seq, op);
            crate::tel::replication_lag(pending.len() as u64);
            drop(pending);
            self.shared.work.notify_one();
        })?;
        let synced = self.wait_synced(seq);
        Ok(Committed { stats, seq, synced })
    }

    /// Blocks until the configured ack horizon reaches `seq`, the ack
    /// timeout elapses (degrade to local, `false`), or the pair is
    /// fenced, diverged, poisoned or stopped (`false`).
    fn wait_synced(&self, seq: u64) -> bool {
        let horizon = |acks: &AckState| match self.shared.config.mode {
            DurabilityMode::LocalFsync => u64::MAX,
            DurabilityMode::StandbyReceived => acks.received,
            DurabilityMode::StandbyFsync => acks.durable,
        };
        if self.shared.config.mode == DurabilityMode::LocalFsync {
            return true;
        }
        let deadline = Instant::now() + self.shared.config.ack_timeout;
        let mut acks = lock(&self.shared.acks);
        loop {
            if horizon(&acks) >= seq {
                return true;
            }
            if self.shared.refusal().is_some()
                || self.shared.stop.load(Ordering::Relaxed)
                || self.durable.wal_poisoned()
            {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            acks = wait_timeout(&self.shared.acked, acks, deadline - now);
        }
    }
}

impl<A: AnonymizerService, S: Storage + ?Sized> Drop for ReplicatedAnonymizer<A, S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work.notify_all();
        self.shared.acked.notify_all();
        if let Some(t) = self.sender.take() {
            let _ = t.join();
        }
    }
}

/// A replicated pair is itself an [`AnonymizerService`]: mutations run
/// the full commit-ship-gate path (degraded or fenced outcomes report
/// zero maintenance cost, exactly like a failed durable op — the §8
/// machinery owns the client-visible story), reads bypass replication.
impl<A, S> AnonymizerService for ReplicatedAnonymizer<A, S>
where
    A: AnonymizerService + 'static,
    S: Storage + ?Sized + 'static,
{
    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        self.try_register(uid, profile, pos)
            .map(|c| c.stats)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        self.try_update_location(uid, pos)
            .map(|c| c.stats)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        self.try_update_profile(uid, profile)
            .map(|c| c.stats)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn deregister(&self, uid: UserId) -> MaintenanceStats {
        self.try_deregister(uid)
            .map(|c| c.stats)
            .unwrap_or(MaintenanceStats::ZERO)
    }

    fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        self.durable.cloak(uid)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        self.durable.position_of(uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.durable.profile_of(uid)
    }

    fn user_count(&self) -> usize {
        self.durable.user_count()
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.durable.user_ids()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        self.durable.user_records()
    }

    fn shard_hint(&self, pos: Point) -> usize {
        self.durable.shard_hint(pos)
    }

    fn cloak_many(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        self.durable.cloak_many(uids)
    }
}

/// The shipping thread: connects to the standby, streams contiguous
/// pending runs as `Replicate` frames, heartbeats when idle, applies
/// acks, and reconnects (resending from the durable horizon) on any
/// link failure. One request/response exchange per frame keeps the
/// protocol trivially resumable: there is never more than one frame in
/// flight to reason about after a crash.
///
/// Until the standby has answered once, nothing ships: the first frame
/// is a heartbeat advertising the recovered horizon, and its answer
/// shows whether the standby holds history this run of the node lost.
/// Once the local WAL is poisoned the thread stops: a primary that can
/// accept no write ships nothing and sends no heartbeat, so its standby
/// promotes.
fn ship_loop<A, S>(durable: &DurableAnonymizer<A, S>, shared: &SenderShared, standby: SocketAddr)
where
    A: AnonymizerService,
    S: Storage + ?Sized,
{
    let cfg = shared.config;
    let mut stream: Option<FramedStream> = None;
    let mut last_send = Instant::now() - cfg.heartbeat_interval;
    let mut verified = false;
    while !shared.stop.load(Ordering::Relaxed)
        && shared.refusal().is_none()
        && !durable.wal_poisoned()
    {
        // (Re)connect if needed.
        if stream.is_none() {
            match TcpStream::connect_timeout(&standby, cfg.connect_timeout) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(cfg.io_timeout)).ok();
                    s.set_write_timeout(Some(cfg.io_timeout)).ok();
                    stream = Some(FramedStream::new(s));
                }
                Err(_) => {
                    interruptible_sleep(shared, cfg.reconnect_backoff);
                    continue;
                }
            }
        }

        // Gather the next contiguous run above the received horizon.
        // (Entries below the durable horizon were pruned at ack time;
        // entries between the horizons are kept for resend after a
        // standby restart that lost its received-but-unsynced tail.)
        let resend_floor = lock(&shared.acks).received;
        let mut batch = Vec::new();
        let mut first = 0u64;
        if verified {
            let pending = lock(&shared.pending);
            let mut expect = None;
            for (&seq, &op) in pending.range(resend_floor + 1..) {
                match expect {
                    None => first = seq,
                    Some(e) if seq != e => break,
                    Some(_) => {}
                }
                expect = Some(seq + 1);
                batch.push(op);
                if batch.len() >= cfg.max_batch {
                    break;
                }
            }
        }
        if verified && batch.is_empty() && last_send.elapsed() < cfg.heartbeat_interval {
            // Idle: sleep until work arrives or a heartbeat is due.
            let pending = lock(&shared.pending);
            if pending.range(resend_floor + 1..).next().is_none() {
                let wait = cfg.heartbeat_interval.saturating_sub(last_send.elapsed());
                drop(wait_timeout(&shared.work, pending, wait));
            }
            continue;
        }

        // Frame the run (an empty run is a heartbeat).
        let mut records = Vec::with_capacity(batch.len() * 36);
        for (i, op) in batch.iter().enumerate() {
            encode_record(&mut records, first + i as u64, op);
        }
        let msg = Message::Replicate {
            epoch: durable.boot_epoch(),
            commit_horizon: if verified {
                durable.durable_seq()
            } else {
                shared.recovered
            },
            records,
        };
        let exchange = (|| -> Result<Message, NetError> {
            let s = stream.as_mut().expect("connected above");
            s.send(&encode(&msg))?;
            Ok(decode(Bytes::from(s.recv()?))?)
        })();
        last_send = Instant::now();
        match exchange {
            Ok(Message::ReplicateAck {
                epoch,
                received_seq,
                durable_seq,
            }) => {
                crate::tel::record_replication_ship(batch.len());
                if epoch > durable.boot_epoch() {
                    // A higher epoch answered: a standby promoted over
                    // us. Stop shipping and fail all writes — serving on
                    // would fork history.
                    shared.fenced_by.store(epoch, Ordering::Release);
                    shared.acked.notify_all();
                    crate::tel::record_fenced();
                    return;
                }
                if !verified && received_seq > shared.recovered {
                    // The standby holds records past all this run
                    // recovered: an earlier run shipped them before its
                    // own fsync and died. Writing on would reuse those
                    // seqs for other ops, so refuse, and fall silent so
                    // the standby, holding the longer history, promotes.
                    shared.diverged_at.store(received_seq, Ordering::Release);
                    shared.acked.notify_all();
                    crate::tel::record_fenced();
                    return;
                }
                verified = true;
                if !batch.is_empty() && received_seq + 1 < first {
                    // The standby's chain ends below this run's head, so
                    // it applied nothing; the next pass re-gathers from
                    // the received horizon.
                    crate::tel::record_replication_gap();
                }
                {
                    let mut acks = lock(&shared.acks);
                    acks.received = acks.received.max(received_seq);
                    acks.durable = acks.durable.max(durable_seq);
                }
                shared.acked.notify_all();
                let mut pending = lock(&shared.pending);
                let keep = pending.split_off(&(durable_seq + 1));
                *pending = keep;
                crate::tel::replication_lag(pending.len() as u64);
            }
            Ok(_) => {
                // Protocol confusion (e.g. a proxy corrupted the frame
                // into something else): drop the link and resync.
                stream = None;
                interruptible_sleep(shared, cfg.reconnect_backoff);
            }
            Err(_) => {
                stream = None;
                interruptible_sleep(shared, cfg.reconnect_backoff);
            }
        }
    }
    // Writers waiting on an ack see why none will come.
    shared.acked.notify_all();
}

/// Sleeps `dur` in small slices so `stop` cuts reconnect backoff short.
fn interruptible_sleep(shared: &SenderShared, dur: Duration) {
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline && !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(2).min(dur));
    }
}

/// State shared between the standby's wire hook and its failover
/// monitor.
struct StandbyShared {
    /// Last instant any live-epoch replication frame (heartbeat or
    /// batch) arrived — the primary-death detector's input.
    last_frame: Mutex<Instant>,
    /// Highest primary epoch this standby has accepted frames from.
    cluster_epoch: AtomicU64,
    /// Highest `commit_horizon` an accepted primary has advertised: the
    /// records up to here are on that primary's disk. Records above it
    /// were shipped before the primary's fsync and may exist only here.
    confirmed: AtomicU64,
    promoted: AtomicBool,
    stop: AtomicBool,
}

/// The standby side of a replica pair: applies the primary's stream
/// through a plane-attached [`ReplicaHook`], sheds client traffic while
/// the primary is alive, and promotes itself — bumping the boot epoch
/// and opening the serving gate — when heartbeats stop.
pub struct Standby<A: AnonymizerService, S: Storage + ?Sized> {
    durable: Arc<DurableAnonymizer<A, S>>,
    shared: Arc<StandbyShared>,
    monitor: Option<JoinHandle<()>>,
}

/// The wire-side half of a [`Standby`], attached to a [`ServerPlane`].
struct StandbyHook<A: AnonymizerService, S: Storage + ?Sized> {
    durable: Arc<DurableAnonymizer<A, S>>,
    shared: Arc<StandbyShared>,
}

impl<A, S> ReplicaHook for StandbyHook<A, S>
where
    A: AnonymizerService + 'static,
    S: Storage + ?Sized + 'static,
{
    fn apply(&self, epoch: u64, commit_horizon: u64, records: &[u8]) -> Response {
        let own_epoch = self.durable.boot_epoch();
        if self.shared.promoted.load(Ordering::Acquire) {
            // Already promoted: whatever sent this is a stale primary.
            // Answer with the promoted epoch so it fences itself.
            return Response::ReplicateAck {
                epoch: own_epoch,
                received_seq: self.durable.durable_seq(),
                durable_seq: self.durable.durable_seq(),
            };
        }
        let mut cluster = self.shared.cluster_epoch.load(Ordering::Acquire);
        if cluster != 0
            && epoch > cluster
            && self.durable.next_seq() - 1 > self.shared.confirmed.load(Ordering::Acquire)
        {
            // A restarted primary, while this standby holds records the
            // run before it shipped but never reported on its disk. The
            // newcomer may lack them, or have given their seqs to other
            // ops, so following it could fork the pair. Refuse it: move
            // the cluster past its epoch so it is fenced as a zombie, and
            // let the old run's silence promote this node, which holds
            // every op either run acked as synced.
            cluster = epoch + 1;
            self.shared
                .cluster_epoch
                .fetch_max(cluster, Ordering::AcqRel);
        }
        if epoch < cluster {
            // A zombie from a superseded generation. Do not apply, do
            // not refresh the death detector — just fence it.
            return Response::ReplicateAck {
                epoch: cluster,
                received_seq: self.durable.durable_seq(),
                durable_seq: self.durable.durable_seq(),
            };
        }
        self.shared.cluster_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.shared
            .confirmed
            .fetch_max(commit_horizon, Ordering::AcqRel);
        *lock(&self.shared.last_frame) = Instant::now();

        // Replay the frame at its primary-assigned sequences, with one
        // WAL flush for the whole run. A gap stops the run; the ack's
        // horizons tell the sender where to rewind. Trailing garbage
        // (BadCrc etc.) cannot happen on an intact link — the frame CRC
        // already passed — but a decode stop is still answered with the
        // honest horizon rather than a crash.
        let (decoded, _valid, _stop) = decode_records(records, None);
        let received = self
            .durable
            .apply_replicated(&decoded)
            .unwrap_or_else(|_| self.durable.next_seq().saturating_sub(1));
        Response::ReplicateAck {
            epoch,
            received_seq: received,
            durable_seq: self.durable.durable_seq(),
        }
    }
}

impl<A, S> Standby<A, S>
where
    A: AnonymizerService + 'static,
    S: Storage + ?Sized + 'static,
{
    /// Attaches `durable` as the standby behind `plane`: closes the
    /// plane's serving gate (client requests shed `Overloaded` until
    /// promotion), installs the replication hook, and starts the
    /// failover monitor. The plane is typically a
    /// [`crate::net::NetworkServer::plane`].
    pub fn attach(
        durable: Arc<DurableAnonymizer<A, S>>,
        plane: Arc<ServerPlane>,
        config: ReplicationConfig,
    ) -> Self {
        let shared = Arc::new(StandbyShared {
            last_frame: Mutex::new(Instant::now()),
            cluster_epoch: AtomicU64::new(0),
            confirmed: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        plane.set_serving(false);
        plane.set_replica(Arc::new(StandbyHook {
            durable: Arc::clone(&durable),
            shared: Arc::clone(&shared),
        }));
        let monitor = {
            let durable = Arc::clone(&durable);
            let shared = Arc::clone(&shared);
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || {
                let tick = (config.heartbeat_timeout / 8).max(Duration::from_millis(2));
                while !shared.stop.load(Ordering::Relaxed) {
                    if !shared.promoted.load(Ordering::Relaxed)
                        && lock(&shared.last_frame).elapsed() > config.heartbeat_timeout
                    {
                        promote(&durable, &plane, &shared);
                    }
                    std::thread::sleep(tick);
                }
            })
        };
        Self {
            durable,
            shared,
            monitor: Some(monitor),
        }
    }
}

impl<A: AnonymizerService, S: Storage + ?Sized> Standby<A, S> {
    /// The standby's durable anonymizer (post-promotion: the primary's).
    pub fn durable(&self) -> &Arc<DurableAnonymizer<A, S>> {
        &self.durable
    }

    /// Whether this standby has promoted itself to primary.
    pub fn is_promoted(&self) -> bool {
        self.shared.promoted.load(Ordering::Acquire)
    }

    /// Stops the failover monitor (the hook stays attached; an already
    /// promoted standby keeps serving).
    pub fn shutdown(mut self) {
        self.stop_monitor();
    }

    fn stop_monitor(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.monitor.take() {
            let _ = t.join();
        }
    }
}

impl<A: AnonymizerService, S: Storage + ?Sized> Drop for Standby<A, S> {
    fn drop(&mut self) {
        self.stop_monitor();
    }
}

/// The promotion step: epoch fence first, then open the gate. Ordering
/// matters — once clients can reach this node, its acks must already
/// carry the new epoch, or the §8 replay trigger would race the gate.
fn promote<A, S>(durable: &DurableAnonymizer<A, S>, plane: &ServerPlane, shared: &StandbyShared)
where
    A: AnonymizerService,
    S: Storage + ?Sized,
{
    let seen = shared.cluster_epoch.load(Ordering::Acquire);
    let target = durable.boot_epoch().max(seen) + 1;
    match durable.bump_epoch_to(target) {
        Ok(epoch) => {
            shared.promoted.store(true, Ordering::Release);
            plane.set_boot_id(epoch);
            plane.set_serving(true);
            crate::tel::record_promotion(epoch);
        }
        Err(_) => {
            // Could not persist the fence: stay standby and retry on the
            // next monitor tick. Serving without a durable epoch bump
            // could reuse a boot id after a crash, silently defeating
            // §8 replay.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{DurabilityConfig, MemStorage};
    use crate::net::{NetworkServer, ServerConfig};
    use crate::sync::wait;
    use crate::CasperServer;
    use casper_grid::AdaptivePyramid;
    use casper_qp::FilterCount;
    use std::sync::RwLock;

    type Pyramid = RwLock<AdaptivePyramid>;

    fn recover<S: Storage>(storage: &Arc<S>) -> Arc<DurableAnonymizer<Pyramid, S>> {
        recover_every(storage, None)
    }

    fn recover_every<S: Storage>(
        storage: &Arc<S>,
        checkpoint_every: Option<u64>,
    ) -> Arc<DurableAnonymizer<Pyramid, S>> {
        let (d, _) = DurableAnonymizer::recover(
            Arc::clone(storage),
            DurabilityConfig { checkpoint_every },
            || RwLock::new(AdaptivePyramid::new(6)),
        )
        .unwrap();
        Arc::new(d)
    }

    /// A [`MemStorage`] that counts `sync` calls, can hold them on a
    /// latch (a held `sync` has been counted but blocks until released),
    /// can make each one take `sync_delay` like a real disk, fails every
    /// `append` while `fail` is set (a failing append waits for the
    /// latch too), and fails every `sync` while `fail_sync` is set.
    #[derive(Default)]
    struct Probe {
        disk: MemStorage,
        sync_delay: Duration,
        syncs: AtomicU64,
        held: Mutex<bool>,
        opened: Condvar,
        fail: AtomicBool,
        fail_sync: AtomicBool,
    }

    impl Probe {
        fn syncs(&self) -> u64 {
            self.syncs.load(Ordering::SeqCst)
        }

        /// Blocks while the latch is held.
        fn pass_latch(&self) {
            let mut held = lock(&self.held);
            while *held {
                held = wait(&self.opened, held);
            }
        }

        /// Holds every `sync` until the returned latch drops — on a
        /// failed assertion too, so a red test fails instead of hanging.
        fn hold(&self) -> Latch<'_> {
            *lock(&self.held) = true;
            Latch(self)
        }
    }

    struct Latch<'a>(&'a Probe);

    impl Drop for Latch<'_> {
        fn drop(&mut self) {
            *lock(&self.0.held) = false;
            self.0.opened.notify_all();
        }
    }

    impl Storage for Probe {
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.disk.list()
        }
        fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
            self.disk.read(name)
        }
        fn len(&self, name: &str) -> std::io::Result<u64> {
            self.disk.len(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                self.pass_latch();
                return Err(std::io::Error::other("injected append failure"));
            }
            self.disk.append(name, data)
        }
        fn sync(&self, name: &str) -> std::io::Result<()> {
            self.syncs.fetch_add(1, Ordering::SeqCst);
            self.pass_latch();
            std::thread::sleep(self.sync_delay);
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected sync failure"));
            }
            self.disk.sync(name)
        }
        fn write_atomic(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            self.disk.write_atomic(name, data)
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.disk.remove(name)
        }
    }

    /// A standby-side hook with no plane and no monitor: frames go
    /// straight into `apply`.
    fn bare_hook<S: Storage + 'static>(
        durable: &Arc<DurableAnonymizer<Pyramid, S>>,
    ) -> StandbyHook<Pyramid, S> {
        StandbyHook {
            durable: Arc::clone(durable),
            shared: Arc::new(StandbyShared {
                last_frame: Mutex::new(Instant::now()),
                cluster_epoch: AtomicU64::new(0),
                confirmed: AtomicU64::new(0),
                promoted: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }),
        }
    }

    /// One `Replicate` payload holding `Register` records at `seqs`.
    fn frame(seqs: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut records = Vec::new();
        for seq in seqs {
            let op = WalOp::Register {
                uid: UserId(seq),
                profile: Profile::new(1, 0.0),
                pos: Point::new(0.01 * (seq % 100) as f64, 0.5),
            };
            encode_record(&mut records, seq, &op);
        }
        records
    }

    /// The `(received_seq, durable_seq)` horizons of an ack.
    fn horizons(ack: Response) -> (u64, u64) {
        match ack {
            Response::ReplicateAck {
                received_seq,
                durable_seq,
                ..
            } => (received_seq, durable_seq),
            other => panic!("not an ack: {other:?}"),
        }
    }

    /// The counter the sender ticks when the standby answers a gap.
    fn gaps_total() -> u64 {
        casper_telemetry::registry()
            .counter("casper_replication_gaps_total", "")
            .get()
    }

    /// Timeouts loose enough that a stalled test host never degrades an
    /// ack or promotes the standby; the ordering tests choose what waits.
    fn patient_cfg(mode: DurabilityMode) -> ReplicationConfig {
        ReplicationConfig {
            mode,
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_secs(10),
            ack_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(10),
            ..ReplicationConfig::default()
        }
    }

    fn fast_cfg(mode: DurabilityMode) -> ReplicationConfig {
        ReplicationConfig {
            mode,
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(80),
            ack_timeout: Duration::from_millis(300),
            ..ReplicationConfig::default()
        }
    }

    fn spawn_standby<S: Storage + 'static>(
        storage: &Arc<S>,
        cfg: ReplicationConfig,
    ) -> (
        NetworkServer,
        Standby<Pyramid, S>,
        Arc<DurableAnonymizer<Pyramid, S>>,
    ) {
        let durable = recover(storage);
        let server = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            ServerConfig::default(),
        )
        .unwrap();
        let standby = Standby::attach(Arc::clone(&durable), Arc::clone(server.plane()), cfg);
        (server, standby, durable)
    }

    /// The device-position input rule on one trusted-tier entry: a NaN
    /// or infinite register or move costs nothing, leaves the user's
    /// position alone and logs nothing (`next_seq` is unchanged); an
    /// out-of-space position is clamped onto the boundary.
    fn assert_position_rule(svc: &dyn AnonymizerService, next_seq: &dyn Fn() -> u64) {
        let glitches = [
            Point::new(f64::NAN, 0.5),
            Point::new(0.1, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NAN),
        ];
        let seq = next_seq();
        for glitch in glitches {
            let s = svc.register(UserId(1), Profile::RELAXED, glitch);
            assert_eq!(s, MaintenanceStats::ZERO);
        }
        assert_eq!(svc.user_count(), 0);
        assert_eq!(next_seq(), seq, "a rejected register was logged");
        svc.register(UserId(1), Profile::RELAXED, Point::new(0.5, 0.5));
        let seq = next_seq();
        for glitch in glitches {
            assert_eq!(
                svc.update_location(UserId(1), glitch),
                MaintenanceStats::ZERO
            );
            let s = svc.register(UserId(1), Profile::RELAXED, glitch);
            assert_eq!(s, MaintenanceStats::ZERO);
            assert_eq!(svc.position_of(UserId(1)), Some(Point::new(0.5, 0.5)));
        }
        assert_eq!(next_seq(), seq, "a rejected move was logged");
        svc.register(UserId(2), Profile::RELAXED, Point::new(1.7, -0.3));
        assert_eq!(svc.position_of(UserId(2)), Some(Point::new(1.0, 0.0)));
        let region = svc.cloak(UserId(2)).unwrap();
        assert!(region.rect.contains(Point::new(1.0, 0.0)));
        svc.update_location(UserId(1), Point::new(-2.0, 9.0));
        assert_eq!(svc.position_of(UserId(1)), Some(Point::new(0.0, 1.0)));
    }

    #[test]
    fn in_memory_entries_apply_the_position_rule() {
        assert_position_rule(&RwLock::new(AdaptivePyramid::new(6)), &|| 0);
        assert_position_rule(&crate::ShardedAnonymizer::new(6, 1), &|| 0);
    }

    #[test]
    fn durable_and_replicated_entries_log_no_rejected_position() {
        let durable = recover(&Arc::new(MemStorage::new()));
        assert_position_rule(&*durable, &|| durable.next_seq());
        let nan = Point::new(f64::NAN, 0.5);
        let s = durable.try_update_location(UserId(1), nan).unwrap();
        assert_eq!(s, MaintenanceStats::ZERO);

        let dead = SocketAddr::from(([127, 0, 0, 1], 1)); // reserved, closed
        let cfg = fast_cfg(DurabilityMode::LocalFsync);
        let primary = ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), dead, cfg);
        assert_position_rule(&primary, &|| primary.durable().next_seq());
        let c = primary.try_update_location(UserId(1), nan).unwrap();
        assert_eq!(
            (c.stats, c.seq, c.synced),
            (MaintenanceStats::ZERO, 0, true)
        );
    }

    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..400 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn standby_mirrors_primary_and_stays_synced() {
        let standby_storage = Arc::new(MemStorage::new());
        let cfg = fast_cfg(DurabilityMode::StandbyFsync);
        let (server, standby, standby_durable) = spawn_standby(&standby_storage, cfg);
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        for i in 0..40u64 {
            let c = primary
                .try_register(
                    UserId(i),
                    Profile::new(2, 0.0),
                    Point::new(0.02 * i as f64 % 1.0, 0.5),
                )
                .unwrap();
            assert!(c.synced, "op {i} should reach the standby fsync horizon");
            assert_eq!(c.seq, i + 1);
        }
        assert_eq!(standby_durable.user_count(), 40);
        assert_eq!(standby_durable.durable_seq(), 40);
        assert!(
            !standby.is_promoted(),
            "live primary must suppress promotion"
        );
        assert!(eventually(|| primary.lag() == 0));
        drop(primary);
        server.shutdown();
    }

    #[test]
    fn writes_degrade_to_local_without_a_standby() {
        // Point the sender at a dead address: every standby-gated write
        // must still succeed — degraded — within the ack timeout.
        let cfg = ReplicationConfig {
            ack_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(20),
            ..fast_cfg(DurabilityMode::StandbyReceived)
        };
        let dead = SocketAddr::from(([127, 0, 0, 1], 1)); // reserved, closed
        let primary = ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), dead, cfg);
        let c = primary
            .try_register(UserId(7), Profile::new(1, 0.0), Point::new(0.5, 0.5))
            .unwrap();
        assert!(!c.synced, "no standby can ack: must degrade");
        assert_eq!(primary.durable().user_count(), 1);
    }

    #[test]
    fn standby_promotes_on_silence_and_fences_the_old_primary() {
        let standby_storage = Arc::new(MemStorage::new());
        let cfg = fast_cfg(DurabilityMode::StandbyReceived);
        let (server, standby, standby_durable) = spawn_standby(&standby_storage, cfg);
        let plane = Arc::clone(server.plane());
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        let c = primary
            .try_register(UserId(1), Profile::new(1, 0.0), Point::new(0.3, 0.3))
            .unwrap();
        assert!(c.synced);
        let primary_epoch = primary.durable().boot_epoch();
        // While the primary heartbeats, the gate stays closed.
        assert!(!plane.is_serving());
        // Kill the primary (drops the sender thread with it).
        drop(primary);
        assert!(
            eventually(|| standby.is_promoted()),
            "standby must promote after heartbeat silence"
        );
        assert!(plane.is_serving(), "promotion must open the serving gate");
        let promoted = standby_durable.boot_epoch();
        assert!(
            promoted > primary_epoch,
            "promoted epoch {promoted} must supersede primary {primary_epoch}"
        );
        assert_eq!(plane.boot_id(), promoted);
        assert_eq!(standby_durable.user_count(), 1);
        // A zombie primary shipping into the promoted standby fences.
        let zombie =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        assert!(eventually(|| zombie.fenced_by().is_some()));
        assert!(matches!(
            zombie.try_register(UserId(9), Profile::new(1, 0.0), Point::new(0.1, 0.1)),
            Err(ReplicationError::Fenced { .. })
        ));
        server.shutdown();
    }

    #[test]
    fn resend_after_link_flap_does_not_duplicate() {
        let standby_storage = Arc::new(MemStorage::new());
        let cfg = fast_cfg(DurabilityMode::StandbyFsync);
        let (server, _standby, standby_durable) = spawn_standby(&standby_storage, cfg);
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        for i in 0..10u64 {
            primary
                .try_register(UserId(i), Profile::new(1, 0.0), Point::new(0.4, 0.4))
                .unwrap();
        }
        // Force the sender to reconnect by restarting nothing but the
        // ack bookkeeping: shove the received horizon back so the next
        // frame resends already-applied records.
        lock(&primary.shared.acks).received = 0;
        primary
            .try_update_location(UserId(3), Point::new(0.9, 0.9))
            .unwrap();
        assert!(eventually(|| {
            standby_durable.position_of(UserId(3)).map(|p| (p.x, p.y)) == Some((0.9, 0.9))
        }));
        assert_eq!(standby_durable.user_count(), 10, "no duplicate applies");
        server.shutdown();
    }

    #[test]
    fn one_frame_costs_one_standby_flush() {
        let disk = Arc::new(Probe::default());
        let durable = recover(&disk);
        let hook = bare_hook(&durable);
        let before = disk.syncs();
        assert_eq!(horizons(hook.apply(1, 0, &frame(1..=25))), (25, 25));
        assert_eq!(
            disk.syncs() - before,
            1,
            "one fsync per frame, not per record"
        );
        assert_eq!(durable.user_count(), 25);
    }

    #[test]
    fn a_frame_applies_only_its_contiguous_new_run() {
        let disk = Arc::new(Probe::default());
        let durable = recover(&disk);
        let hook = bare_hook(&durable);
        assert_eq!(horizons(hook.apply(1, 0, &frame(1..=3))), (3, 3));
        // [dup, dup, new, new, gap…]: exactly 4 and 5 land.
        let before = disk.syncs();
        assert_eq!(
            horizons(hook.apply(1, 0, &frame([2, 3, 4, 5, 7, 8]))),
            (5, 5)
        );
        assert_eq!(disk.syncs() - before, 1);
        assert_eq!(durable.user_count(), 5);
        assert_eq!(durable.position_of(UserId(7)), None);
        // Only duplicates, or a gap at the head: nothing applied, no
        // flush, and the ack names the standby's real horizon.
        let before = disk.syncs();
        assert_eq!(horizons(hook.apply(1, 0, &frame([4, 5]))), (5, 5));
        assert_eq!(horizons(hook.apply(1, 0, &frame([9, 10]))), (5, 5));
        assert_eq!(disk.syncs(), before);
        assert_eq!(durable.next_seq(), 6);
    }

    #[test]
    fn a_frame_counts_every_record_toward_the_checkpoint() {
        let disk = Arc::new(MemStorage::new());
        let durable = recover_every(&disk, Some(10));
        let hook = bare_hook(&durable);
        assert_eq!(horizons(hook.apply(1, 0, &frame(1..=25))), (25, 25));
        let ckpts: Vec<String> = disk
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".cspa"))
            .collect();
        assert_eq!(ckpts, ["ckpt-00000000000000000025.cspa"]);
    }

    #[test]
    fn concurrent_commits_ship_in_sequence_order() {
        const COMMITTERS: u64 = 8;
        const UPDATES: u64 = 250;
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, _standby, standby_durable) = spawn_standby(&Arc::new(MemStorage::new()), cfg);
        // A primary fsync as slow as a real disk's wakes the whole convoy
        // at once: enqueued after the flush instead of under the WAL
        // lock, their seqs reach the sender out of order (red in 6/6
        // runs that way).
        let disk = Arc::new(Probe {
            sync_delay: Duration::from_micros(100),
            ..Probe::default()
        });
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        for t in 0..COMMITTERS {
            let c = primary
                .try_register(UserId(t), Profile::new(1, 0.0), Point::new(0.5, 0.5))
                .unwrap();
            assert!(c.synced);
        }
        let gaps_before = gaps_total();
        std::thread::scope(|scope| {
            for t in 0..COMMITTERS {
                let primary = &primary;
                scope.spawn(move || {
                    for i in 0..UPDATES {
                        let pos = Point::new((t as f64 + 0.5) / 8.0, i as f64 / UPDATES as f64);
                        let c = primary.try_update_location(UserId(t), pos).unwrap();
                        assert!(c.synced, "committer {t}, update {i} degraded");
                    }
                });
            }
        });
        assert_eq!(
            gaps_total(),
            gaps_before,
            "a later seq was shipped ahead of an earlier one"
        );
        let sorted = |mut records: Vec<(UserId, Profile, Point)>| {
            records.sort_by_key(|r| r.0 .0);
            records
        };
        assert_eq!(
            sorted(standby_durable.user_records()),
            sorted(primary.user_records())
        );
        assert_eq!(standby_durable.durable_seq(), COMMITTERS * (UPDATES + 1));
        drop(primary);
        server.shutdown();
    }

    /// A `StandbyFsync` pair whose primary writes to a [`Probe`], with
    /// user 1 registered at `OLD`.
    fn pair_with_probed_primary() -> (
        NetworkServer,
        Standby<Pyramid, MemStorage>,
        Arc<Probe>,
        ReplicatedAnonymizer<Pyramid, Probe>,
    ) {
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, standby, _) = spawn_standby(&Arc::new(MemStorage::new()), cfg);
        let disk = Arc::new(Probe::default());
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        primary
            .try_register(UserId(1), Profile::new(1, 0.0), OLD)
            .unwrap();
        (server, standby, disk, primary)
    }

    const OLD: Point = Point::new(0.2, 0.2);
    const NEW: Point = Point::new(0.8, 0.8);

    #[test]
    fn held_primary_fsync_holds_the_ack_and_the_apply() {
        let (server, _standby, disk, primary) = pair_with_probed_primary();
        let entered = disk.syncs();
        std::thread::scope(|scope| {
            let latch = disk.hold();
            let update = scope.spawn(|| primary.try_update_location(UserId(1), NEW).unwrap());
            assert!(
                eventually(|| disk.syncs() > entered),
                "no local flush began"
            );
            // Give the standby every chance to ack first.
            std::thread::sleep(Duration::from_millis(50));
            assert!(!update.is_finished(), "acked before the primary's fsync");
            assert_eq!(
                primary.position_of(UserId(1)),
                Some(OLD),
                "applied before its fsync"
            );
            drop(latch);
            let c = update.join().unwrap();
            assert!(c.synced);
            assert_eq!(c.seq, 2);
        });
        assert_eq!(primary.position_of(UserId(1)), Some(NEW));
        drop(primary);
        server.shutdown();
    }

    #[test]
    fn the_ship_overlaps_the_primary_fsync() {
        let (server, standby, disk, primary) = pair_with_probed_primary();
        std::thread::scope(|scope| {
            let latch = disk.hold();
            let update = scope.spawn(|| primary.try_update_location(UserId(1), NEW).unwrap());
            // The standby applies and fsyncs the record while the
            // primary's own flush is still held.
            assert!(
                eventually(|| lock(&primary.shared.acks).durable >= 2),
                "the record waited for the primary's fsync before shipping"
            );
            assert_eq!(standby.durable().position_of(UserId(1)), Some(NEW));
            assert!(!update.is_finished());
            drop(latch);
            assert!(update.join().unwrap().synced);
        });
        drop(primary);
        server.shutdown();
    }

    /// A `StandbyFsync` pair whose standby writes to a [`Probe`], with
    /// user 1 registered and durable on both sides.
    fn pair_with_probed_standby(
        cfg: ReplicationConfig,
    ) -> (
        NetworkServer,
        Standby<Pyramid, Probe>,
        Arc<Probe>,
        ReplicatedAnonymizer<Pyramid, MemStorage>,
    ) {
        let disk = Arc::new(Probe::default());
        let (server, standby, _) = spawn_standby(&disk, cfg);
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        primary
            .try_register(UserId(1), Profile::new(1, 0.0), OLD)
            .unwrap();
        assert!(eventually(|| lock(&primary.shared.acks).durable >= 1));
        (server, standby, disk, primary)
    }

    #[test]
    fn held_standby_fsync_holds_the_ack_until_release() {
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, _standby, disk, primary) = pair_with_probed_standby(cfg);
        let entered = disk.syncs();
        std::thread::scope(|scope| {
            let latch = disk.hold();
            let update = scope.spawn(|| primary.try_update_location(UserId(1), NEW).unwrap());
            assert!(
                eventually(|| disk.syncs() > entered),
                "no standby flush began"
            );
            std::thread::sleep(Duration::from_millis(50));
            assert!(!update.is_finished(), "acked before the standby's fsync");
            drop(latch);
            assert!(update.join().unwrap().synced);
        });
        drop(primary);
        server.shutdown();
    }

    #[test]
    fn held_standby_fsync_degrades_at_the_ack_timeout() {
        let cfg = ReplicationConfig {
            ack_timeout: Duration::from_millis(100),
            ..patient_cfg(DurabilityMode::StandbyFsync)
        };
        let (server, _standby, disk, primary) = pair_with_probed_standby(cfg);
        let latch = disk.hold();
        let started = Instant::now();
        let c = primary.try_update_location(UserId(1), NEW).unwrap();
        assert!(
            !c.synced,
            "the standby never fsynced, yet the ack was synced"
        );
        assert!(started.elapsed() >= cfg.ack_timeout);
        drop(latch);
        drop(primary);
        server.shutdown();
    }

    const OTHER: Point = Point::new(0.4, 0.6);
    const LAST: Point = Point::new(0.6, 0.4);

    /// A `StandbyFsync` standby holding user 1 at `NEW` as seq 2, a
    /// record its primary shipped and then lost: the primary's append
    /// failed, so its disk ends at seq 1. The append fails only once the
    /// record is on the standby, because a poisoned primary ships
    /// nothing more. The primary is gone; `disk` is what it left behind.
    fn standby_ahead_of_a_lost_record() -> (NetworkServer, Standby<Pyramid, MemStorage>, Arc<Probe>)
    {
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, standby, _) = spawn_standby(&Arc::new(MemStorage::new()), cfg);
        let disk = Arc::new(Probe::default());
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        let c = primary
            .try_register(UserId(1), Profile::new(1, 0.0), OLD)
            .unwrap();
        assert!(c.synced);
        disk.fail.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let latch = disk.hold();
            let update = scope.spawn(|| primary.try_update_location(UserId(1), NEW));
            assert!(
                eventually(|| standby.durable().durable_seq() == 2),
                "the record never reached the standby"
            );
            drop(latch);
            assert!(update.join().unwrap().is_err());
        });
        assert_eq!(standby.durable().position_of(UserId(1)), Some(NEW));
        drop(primary);
        disk.fail.store(false, Ordering::SeqCst);
        (server, standby, disk)
    }

    /// A write that must not come back synced, then the standby still
    /// holding the lost record as its seq 2 and nothing after it.
    fn assert_refused(
        write: Result<Committed, ReplicationError>,
        primary: &ReplicatedAnonymizer<Pyramid, Probe>,
        standby: &Standby<Pyramid, MemStorage>,
    ) {
        assert!(
            !matches!(write, Ok(Committed { synced: true, .. })),
            "a reused seq was acked synced: {write:?}"
        );
        assert!(eventually(|| primary.shared.refusal().is_some()));
        assert_eq!(standby.durable().durable_seq(), 2);
        assert_eq!(standby.durable().position_of(UserId(1)), Some(NEW));
    }

    #[test]
    fn a_restarted_primary_does_not_reuse_a_seq_the_standby_holds() {
        let (server, standby, disk) = standby_ahead_of_a_lost_record();
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        assert_eq!(primary.durable().next_seq(), 2, "seq 2 is free again here");
        let write = primary.try_update_location(UserId(1), OTHER);
        assert_refused(write, &primary, &standby);
        drop(primary);
        server.shutdown();
    }

    #[test]
    fn a_run_that_never_reached_the_standby_cannot_hide_the_fork() {
        let (server, standby, disk) = standby_ahead_of_a_lost_record();
        // The next run cannot reach the standby: it gives seq 2 to
        // another op, degraded, and dies.
        let cut_off = ReplicationConfig {
            ack_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(20),
            ..patient_cfg(DurabilityMode::StandbyFsync)
        };
        let dead = SocketAddr::from(([127, 0, 0, 1], 1));
        let lonely = ReplicatedAnonymizer::new(recover(&disk), dead, cut_off);
        let c = lonely.try_update_location(UserId(1), OTHER).unwrap();
        assert_eq!((c.seq, c.synced), (2, false));
        drop(lonely);
        // The run after it recovers up to seq 2, as far as the standby
        // holds, so only the standby can tell the two seq-2 ops apart.
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        assert_eq!(primary.durable().next_seq(), 3);
        let write = primary.try_update_location(UserId(1), LAST);
        assert_refused(write, &primary, &standby);
        assert!(primary.fenced_by().is_some());
        drop(primary);
        server.shutdown();
    }

    #[test]
    fn a_primary_behind_a_restarted_standby_refuses_to_write() {
        // The standby restarted holding seqs 1..=3, so it has no
        // confirmed horizon; a primary that recovered nothing meets it.
        let standby_disk = Arc::new(MemStorage::new());
        let (records, _, _) = decode_records(&frame(1..=3), None);
        recover(&standby_disk).apply_replicated(&records).unwrap();
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, standby, _) = spawn_standby(&standby_disk, cfg);
        let primary =
            ReplicatedAnonymizer::new(recover(&Arc::new(MemStorage::new())), server.addr(), cfg);
        let write = primary.try_register(UserId(9), Profile::new(1, 0.0), OLD);
        assert!(
            !matches!(write, Ok(Committed { synced: true, .. })),
            "seq 1 was acked synced: {write:?}"
        );
        assert!(eventually(|| matches!(
            primary.shared.refusal(),
            Some(ReplicationError::Diverged {
                standby_seq: 3,
                local_seq: 0
            })
        )));
        assert!(matches!(
            primary.try_register(UserId(10), Profile::new(1, 0.0), OLD),
            Err(ReplicationError::Diverged { .. })
        ));
        assert_eq!(standby.durable().durable_seq(), 3);
        assert_eq!(standby.durable().position_of(UserId(9)), None);
        drop(primary);
        server.shutdown();
    }

    /// A pyramid that holds the apply of any move to `NEW` until a move
    /// to `LAST` has applied or 200 ms have passed: the worst order in
    /// which two commits that rode one flush can wake.
    struct HoldsNew {
        inner: Pyramid,
        last_applied: Mutex<bool>,
        applied: Condvar,
    }

    impl AnonymizerService for HoldsNew {
        fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
            self.inner.register(uid, profile, pos)
        }
        fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
            if pos == NEW {
                let deadline = Instant::now() + Duration::from_millis(200);
                let mut done = lock(&self.last_applied);
                while !*done && Instant::now() < deadline {
                    done = wait_timeout(&self.applied, done, deadline - Instant::now());
                }
            }
            let stats = self.inner.update_location(uid, pos);
            if pos == LAST {
                *lock(&self.last_applied) = true;
                self.applied.notify_all();
            }
            stats
        }
        fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
            self.inner.update_profile(uid, profile)
        }
        fn deregister(&self, uid: UserId) -> MaintenanceStats {
            self.inner.deregister(uid)
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
    }

    fn recover_holding(disk: &Arc<Probe>) -> Arc<DurableAnonymizer<HoldsNew, Probe>> {
        let (d, _) = DurableAnonymizer::recover(
            Arc::clone(disk),
            DurabilityConfig {
                checkpoint_every: None,
            },
            || HoldsNew {
                inner: RwLock::new(AdaptivePyramid::new(6)),
                last_applied: Mutex::new(false),
                applied: Condvar::new(),
            },
        )
        .unwrap();
        Arc::new(d)
    }

    /// Moves user 1 to `NEW` and then to `LAST` through `commit`, both
    /// logged while user 2's commit holds the flush, so the two ride the
    /// next flush together; returns once all three have returned.
    fn two_moves_on_one_flush(
        disk: &Probe,
        next_seq: &(dyn Fn() -> u64 + Sync),
        commit: &(dyn Fn(UserId, Point) + Sync),
    ) {
        std::thread::scope(|scope| {
            let latch = disk.hold();
            let (entered, seq) = (disk.syncs(), next_seq());
            scope.spawn(|| commit(UserId(2), OTHER));
            assert!(eventually(|| disk.syncs() > entered), "no flush began");
            scope.spawn(|| commit(UserId(1), NEW));
            assert!(eventually(|| next_seq() == seq + 2));
            scope.spawn(|| commit(UserId(1), LAST));
            assert!(eventually(|| next_seq() == seq + 3));
            drop(latch);
        });
    }

    /// Recovery replays user 1's two moves in WAL order; the live
    /// structure must have applied them in the same order.
    fn assert_live_is_recovered(live: Option<Point>, disk: &Arc<Probe>) {
        assert_eq!(live, Some(LAST), "the moves applied out of WAL order");
        assert_eq!(recover_holding(disk).position_of(UserId(1)), live);
    }

    #[test]
    fn same_user_commits_apply_in_wal_order() {
        // The durable primary.
        let disk = Arc::new(Probe::default());
        let durable = recover_holding(&disk);
        for uid in [1, 2] {
            durable
                .try_register(UserId(uid), Profile::new(1, 0.0), OLD)
                .unwrap();
        }
        two_moves_on_one_flush(&disk, &|| durable.next_seq(), &|uid, pos| {
            durable.try_update_location(uid, pos).unwrap();
        });
        let live = durable.position_of(UserId(1));
        drop(durable);
        assert_live_is_recovered(live, &disk);

        // The replicated primary.
        let cfg = patient_cfg(DurabilityMode::StandbyFsync);
        let (server, _standby, standby_durable) = spawn_standby(&Arc::new(MemStorage::new()), cfg);
        let disk = Arc::new(Probe::default());
        let primary = ReplicatedAnonymizer::new(recover_holding(&disk), server.addr(), cfg);
        for uid in [1, 2] {
            let c = primary
                .try_register(UserId(uid), Profile::new(1, 0.0), OLD)
                .unwrap();
            assert!(c.synced);
        }
        two_moves_on_one_flush(&disk, &|| primary.durable().next_seq(), &|uid, pos| {
            assert!(primary.try_update_location(uid, pos).unwrap().synced);
        });
        let live = primary.position_of(UserId(1));
        assert_eq!(standby_durable.position_of(UserId(1)), live);
        drop(primary);
        assert_live_is_recovered(live, &disk);
        server.shutdown();
    }

    #[test]
    fn a_poisoned_primary_falls_silent() {
        let cfg = fast_cfg(DurabilityMode::StandbyFsync);
        let (server, standby, _) = spawn_standby(&Arc::new(MemStorage::new()), cfg);
        let disk = Arc::new(Probe::default());
        let primary = ReplicatedAnonymizer::new(recover(&disk), server.addr(), cfg);
        let c = primary
            .try_register(UserId(1), Profile::new(1, 0.0), OLD)
            .unwrap();
        assert!(c.synced);
        // One failed fsync poisons the WAL: this node can accept no
        // write again until it is restarted.
        disk.fail_sync.store(true, Ordering::SeqCst);
        assert!(primary.try_update_location(UserId(1), NEW).is_err());
        disk.fail_sync.store(false, Ordering::SeqCst);
        let poisoned = Instant::now();
        assert!(
            eventually(|| standby.is_promoted()),
            "the poisoned primary kept heartbeating, so its standby never promoted"
        );
        assert!(
            poisoned.elapsed() < 10 * cfg.heartbeat_timeout,
            "promoted only after {:?}",
            poisoned.elapsed()
        );
        assert!(primary.try_update_location(UserId(1), LAST).is_err());
        drop(primary);
        server.shutdown();
    }
}
