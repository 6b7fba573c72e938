//! Primary/standby replication for the trusted tier (DESIGN §16).
//!
//! PR 5 made the anonymizer crash-*safe*; this module makes it
//! crash-*available*. A [`ReplicatedAnonymizer`] wraps the primary's
//! [`DurableAnonymizer`]: every mutation is group-committed to the local
//! WAL exactly as before, then streamed — as the *same bytes*
//! [`crate::durability::wal::encode_record`] produced — over the §7
//! CRC-framed wire protocol to a [`Standby`], which replays each record
//! into its own `DurableAnonymizer` at the primary-assigned sequence.
//! Because record encoding is deterministic and the standby applies in
//! strict sequence order, the two WALs (and the two pyramids) stay
//! bit-identical up to the replication horizon.
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use casper_geometry::Point;
use casper_grid::{CloakedRegion, MaintenanceStats, Profile, UserId};
use parking_lot::{Condvar, Mutex};

use crate::durability::wal::{decode_records, encode_record, WalOp};
use crate::durability::{DurabilityError, DurableAnonymizer, Storage};
use crate::engine::{AnonymizerService, ReplicaHook, Response, ServerPlane};
use crate::net::{read_frame, write_frame, NetError};
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
    /// The local durability layer failed (see [`DurabilityError`]).
    Durability(DurabilityError),
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::Fenced { by_epoch } => {
                write!(f, "fenced: superseded by epoch {by_epoch}")
            }
            ReplicationError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicationError::Fenced { .. } => None,
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
    /// Ops committed locally but not yet durably acked by the standby,
    /// keyed by sequence. The sender ships contiguous runs from here and
    /// prunes entries once the standby's durable horizon passes them.
    pending: Mutex<std::collections::BTreeMap<u64, WalOp>>,
    /// Wakes the sender when new work lands.
    work: Condvar,
    /// Standby acknowledgement horizons.
    acks: Mutex<AckState>,
    /// Wakes writers blocked in `wait_synced`.
    acked: Condvar,
    /// Set when an ack carried a higher epoch: this primary is fenced.
    fenced_by: AtomicU64,
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
    /// link failures until the pair is dropped.
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

    /// Ops committed locally but not yet durably acked by the standby —
    /// the replication lag, in operations.
    pub fn lag(&self) -> usize {
        self.shared.pending.lock().len()
    }

    /// Durably registers a user, gated on the configured mode.
    pub fn try_register(
        &self,
        uid: UserId,
        profile: Profile,
        pos: Point,
    ) -> Result<Committed, ReplicationError> {
        if !pos.is_finite() {
            return Ok(Committed {
                stats: MaintenanceStats::ZERO,
                seq: 0,
                synced: true,
            });
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.commit(WalOp::Register { uid, profile, pos })
    }

    /// Durably processes a location update, gated on the configured mode.
    pub fn try_update_location(
        &self,
        uid: UserId,
        pos: Point,
    ) -> Result<Committed, ReplicationError> {
        if !pos.is_finite() {
            return Ok(Committed {
                stats: MaintenanceStats::ZERO,
                seq: 0,
                synced: true,
            });
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
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

    /// Local group commit, then enqueue for shipping, then wait for the
    /// mode's ack horizon. The local commit happens *first*: whatever
    /// the standby does, the op is in the primary's WAL before any
    /// success can be reported.
    fn commit(&self, op: WalOp) -> Result<Committed, ReplicationError> {
        if let Some(by_epoch) = self.shared.fenced() {
            return Err(ReplicationError::Fenced { by_epoch });
        }
        let (stats, seq) = self.durable.commit_op(op)?;
        {
            let mut pending = self.shared.pending.lock();
            pending.insert(seq, op);
            crate::tel::replication_lag(pending.len() as u64);
        }
        self.shared.work.notify_one();
        let synced = self.wait_synced(seq);
        Ok(Committed { stats, seq, synced })
    }

    /// Blocks until the configured ack horizon reaches `seq`, the ack
    /// timeout elapses (degrade to local, `false`), or the pair is
    /// fenced/stopped (`false`).
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
        let mut acks = self.shared.acks.lock();
        loop {
            if horizon(&acks) >= seq {
                return true;
            }
            if self.shared.fenced().is_some() || self.shared.stop.load(Ordering::Relaxed) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.shared.acked.wait_for(&mut acks, deadline - now);
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

    fn home_hints(&self, uids: &[UserId]) -> Vec<usize> {
        self.durable.home_hints(uids)
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
fn ship_loop<A, S>(durable: &DurableAnonymizer<A, S>, shared: &SenderShared, standby: SocketAddr)
where
    A: AnonymizerService,
    S: Storage + ?Sized,
{
    let cfg = shared.config;
    let mut stream: Option<TcpStream> = None;
    let mut last_send = Instant::now() - cfg.heartbeat_interval;
    while !shared.stop.load(Ordering::Relaxed) && shared.fenced().is_none() {
        // (Re)connect if needed.
        if stream.is_none() {
            match TcpStream::connect_timeout(&standby, cfg.connect_timeout) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(cfg.io_timeout)).ok();
                    s.set_write_timeout(Some(cfg.io_timeout)).ok();
                    stream = Some(s);
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
        let resend_floor = shared.acks.lock().received;
        let mut batch = Vec::new();
        let mut first = 0u64;
        {
            let pending = shared.pending.lock();
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
        if batch.is_empty() && last_send.elapsed() < cfg.heartbeat_interval {
            // Idle: sleep until work arrives or a heartbeat is due.
            let mut pending = shared.pending.lock();
            if pending.range(resend_floor + 1..).next().is_none() {
                let wait = cfg.heartbeat_interval.saturating_sub(last_send.elapsed());
                shared.work.wait_for(&mut pending, wait);
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
            commit_horizon: durable.durable_seq(),
            records,
        };
        let exchange = (|| -> Result<Message, NetError> {
            let s = stream.as_mut().expect("connected above");
            write_frame(s, &encode(&msg))?;
            let reply = read_frame(s)?;
            Ok(decode(Bytes::from(reply))?)
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
                {
                    let mut acks = shared.acks.lock();
                    acks.received = acks.received.max(received_seq);
                    acks.durable = acks.durable.max(durable_seq);
                }
                shared.acked.notify_all();
                let mut pending = shared.pending.lock();
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
    fn apply(&self, epoch: u64, _commit_horizon: u64, records: &[u8]) -> Response {
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
        let cluster = self.shared.cluster_epoch.load(Ordering::Acquire);
        if epoch < cluster {
            // A zombie from a superseded generation. Do not apply, do
            // not refresh the death detector — just fence it.
            return Response::ReplicateAck {
                epoch: cluster,
                received_seq: self.durable.durable_seq(),
                durable_seq: self.durable.durable_seq(),
            };
        }
        self.shared.cluster_epoch.store(epoch, Ordering::Release);
        *self.shared.last_frame.lock() = Instant::now();

        // Replay the batch at its primary-assigned sequences. A gap
        // stops the batch; the ack's horizons tell the sender where to
        // rewind. Trailing garbage (BadCrc etc.) cannot happen on an
        // intact link — the frame CRC already passed — but a decode stop
        // is still answered with the honest horizon rather than a crash.
        let (decoded, _valid, _stop) = decode_records(records, None);
        let mut received = self.durable.next_seq().saturating_sub(1);
        for rec in &decoded {
            match self.durable.apply_replicated(rec.seq, &rec.op) {
                Ok(applied) => received = received.max(applied),
                Err(_) => break,
            }
        }
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
                        && shared.last_frame.lock().elapsed() > config.heartbeat_timeout
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
    use crate::CasperServer;
    use casper_grid::AdaptivePyramid;
    use casper_qp::FilterCount;
    use parking_lot::RwLock;

    type Pyramid = RwLock<AdaptivePyramid>;

    fn recover(storage: &Arc<MemStorage>) -> Arc<DurableAnonymizer<Pyramid, MemStorage>> {
        let (d, _) = DurableAnonymizer::recover(
            Arc::clone(storage),
            DurabilityConfig {
                checkpoint_every: None,
            },
            || RwLock::new(AdaptivePyramid::new(6)),
        )
        .unwrap();
        Arc::new(d)
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

    fn spawn_standby(
        storage: &Arc<MemStorage>,
        cfg: ReplicationConfig,
    ) -> (
        NetworkServer,
        Standby<Pyramid, MemStorage>,
        Arc<DurableAnonymizer<Pyramid, MemStorage>>,
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
        primary.shared.acks.lock().received = 0;
        primary
            .try_update_location(UserId(3), Point::new(0.9, 0.9))
            .unwrap();
        assert!(eventually(|| {
            standby_durable.position_of(UserId(3)).map(|p| (p.x, p.y)) == Some((0.9, 0.9))
        }));
        assert_eq!(standby_durable.user_count(), 10, "no duplicate applies");
        server.shutdown();
    }
}
