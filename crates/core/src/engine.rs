//! The **unified request plane**: one typed command vocabulary and one
//! server-side executor behind every Casper deployment shape.
//!
//! * [`Request`] / [`Response`] — the typed commands every entry point
//!   speaks: user-tier maintenance (register / update / sign-off),
//!   cloaking, end-to-end queries, and the server-tier operations
//!   (region upserts, candidate queries, admin counts, metrics).
//! * [`Engine`] — the one-method interface (`execute`) implemented by
//!   [`Casper`](crate::Casper) and [`RemoteCasper`](crate::RemoteCasper);
//!   a harness written against `dyn Engine` runs unchanged over either.
//! * [`ServerPlane`] — the single server-side executor. The TCP server
//!   decodes frames into [`Request`]s and feeds them here; the local
//!   pipeline feeds the *same* requests through the same method. The
//!   per-message match arms exist exactly once.
//! * [`AnonymizerService`] — the trusted tier as a *shared* (`&self`)
//!   service. The two single-node pyramids participate behind one lock
//!   (a blanket impl over `RwLock<P>`); the
//!   [`crate::ShardedAnonymizer`] participates natively with one lock
//!   **per shard**, so threads that drive it and a shared
//!   [`ServerPlane`] directly proceed in parallel.
//!
//! Wire interop lives here too ([`Request::from_wire`],
//! [`Response::into_wire`]), so the network layer is pure framing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use casper_geometry::{Point, Rect};
use casper_grid::{
    sanitize_position, CloakedRegion, MaintenanceStats, Profile, PyramidStructure, UserId,
};
use casper_index::{Entry, ObjectId};
use casper_qp::{FilterCount, PrivateBoundMode, RangeAnswer};

use crate::pipeline::QueryOutcome;
use crate::sync::{lock, read, write};
use crate::wire::Message;
use crate::{CasperServer, Category, PrivateHandle};

/// A typed command against a Casper engine — the one request vocabulary
/// shared by the in-process pipeline, the remote pipeline and the TCP
/// server's wire dispatch.
///
/// The first block is the *user tier* (handled by the trusted
/// anonymizer); the second block is the *server tier* (handled by a
/// [`ServerPlane`]). Engines route each request to the right tier;
/// a bare [`ServerPlane`] answers server-tier requests only.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a mobile user with her privacy profile and exact
    /// position (trusted tier only — this never crosses to the server).
    Register {
        /// The user to register.
        uid: UserId,
        /// Her `(k, A_min)` privacy profile.
        profile: Profile,
        /// Her exact position.
        pos: Point,
    },
    /// Process a location update `(uid, x, y)`.
    UpdateLocation {
        /// The moving user.
        uid: UserId,
        /// Her new exact position.
        pos: Point,
    },
    /// Change a user's privacy profile at runtime.
    UpdateProfile {
        /// The user changing her profile.
        uid: UserId,
        /// The new profile.
        profile: Profile,
    },
    /// Remove a user from the system entirely.
    SignOff {
        /// The departing user.
        uid: UserId,
    },
    /// Produce the user's current cloaked region (Algorithm 1).
    Cloak {
        /// The user to cloak.
        uid: UserId,
    },
    /// An end-to-end private NN query over public data: cloak, query,
    /// model transmission, refine locally.
    QueryNn {
        /// The querying user.
        uid: UserId,
        /// Filter-count override; `None` uses the engine default.
        filters: Option<FilterCount>,
        /// Restrict candidates to one target category.
        category: Option<Category>,
    },
    /// An end-to-end private NN query over *private* data ("nearest
    /// buddy"), excluding the querying user's own region.
    QueryNnPrivate {
        /// The querying user.
        uid: UserId,
    },
    /// Server tier: store or refresh the cloaked region under an opaque
    /// handle. `seq` orders updates per handle (stale ones are
    /// discarded); senders without their own sequencing pass `0` and the
    /// executing link assigns one.
    UpsertRegion {
        /// Opaque private handle (never a user identity).
        handle: u64,
        /// Per-handle sequence number; `0` = assign.
        seq: u64,
        /// The cloaked region.
        region: Rect,
    },
    /// Server tier: drop a private handle (user signed off).
    RemoveRegion {
        /// The handle to drop.
        handle: u64,
    },
    /// Server tier: Algorithm 2 over the public store for an
    /// already-cloaked region — the request shape that crosses the wire.
    NnCandidates {
        /// Unlinkable pseudonym for answer routing.
        pseudonym: u64,
        /// The cloaked query region.
        region: Rect,
        /// Filter-count override; `None` uses the plane default.
        filters: Option<FilterCount>,
        /// Restrict candidates to one target category.
        category: Option<Category>,
    },
    /// Server tier: Algorithm 2 over the *private* store.
    NnPrivateCandidates {
        /// The cloaked query region.
        region: Rect,
        /// Filter-count override; `None` uses the plane default.
        filters: Option<FilterCount>,
        /// Handle to exclude (the querying user's own region).
        exclude: Option<u64>,
    },
    /// Server tier: administrator count over the private store
    /// (bypasses the anonymizer, Figure 1).
    AdminCount {
        /// The area to count cloaked regions over.
        area: Rect,
    },
    /// Server tier: fetch the rendered metrics page (the ops channel).
    Metrics,
    /// Trusted-tier interconnect: a primary→standby WAL-record batch (or
    /// pure heartbeat when `records` is empty) with the sender's cluster
    /// epoch and local commit horizon. Answered by the plane's attached
    /// [`ReplicaHook`]; a plane with no replica attached answers
    /// [`Response::Unsupported`].
    Replicate {
        /// The sending primary's cluster epoch (boot epoch).
        epoch: u64,
        /// Highest WAL sequence the primary has made locally durable.
        commit_horizon: u64,
        /// Raw WAL-record bytes, framed by the durability layer.
        records: Vec<u8>,
    },
}

/// The typed answer to a [`Request`].
#[derive(Debug)]
pub enum Response {
    /// Maintenance cost of a register/update/profile operation.
    Maintained(MaintenanceStats),
    /// A cloaking result (`None` for unknown users).
    Cloaked(Option<CloakedRegion>),
    /// An end-to-end query outcome (`None` for unknown users).
    Outcome(Option<QueryOutcome>),
    /// Acknowledgement of an [`Request::UpsertRegion`].
    RegionAck {
        /// Whether the region was applied (`false` = discarded as
        /// stale).
        applied: bool,
        /// The acknowledged handle, echoed for pipelined ack matching.
        handle: u64,
        /// The acknowledged sequence number.
        seq: u64,
        /// The serving plane's boot id (restart detection).
        boot_id: u64,
    },
    /// A candidate list from the privacy-aware query processor.
    Candidates {
        /// The candidate entries.
        entries: Vec<Entry>,
        /// Server-side processing time, when measured in-process
        /// (`None` over the wire, where only the round trip is known).
        processing: Option<Duration>,
    },
    /// An administrator range-count answer.
    Count(RangeAnswer),
    /// The rendered metrics page.
    MetricsPage(String),
    /// The request completed with nothing to report.
    Done,
    /// The executing engine cannot serve this request (e.g. a private
    /// buddy query over a wire link that has no such message).
    Unsupported(&'static str),
    /// The plane refused the request: its deadline had expired, or the
    /// plane is a warm standby that does not serve yet. The work was
    /// **not** done; the client may retry after the hinted delay.
    Overloaded {
        /// How long the sender should wait before retrying.
        retry_after: Duration,
    },
    /// Acknowledgement of a [`Request::Replicate`] batch from the
    /// standby's replica hook.
    ReplicateAck {
        /// The acker's cluster epoch; newer than the sender's means the
        /// sender has been fenced by a promotion.
        epoch: u64,
        /// Highest contiguous WAL sequence received and applied.
        received_seq: u64,
        /// Highest WAL sequence durable on the standby's storage.
        durable_seq: u64,
    },
}

/// The geometry check at the trust boundary: a cloaked region from the
/// wire must be finite, have positive width and height (a zero-area
/// region would publish an exact point, and a range count would take it
/// as a definite member), and lie inside the unit square. Every cloak the
/// trusted tier produces is a union of pyramid cells, so it passes; a
/// region outside the space is refused rather than clamped, because
/// clamping would store a region no anonymizer produced (DESIGN §8).
fn checked_region(region: Rect) -> Result<Rect, &'static str> {
    let Rect { min, max } = region;
    let ok = region.is_finite()
        && min.x < max.x
        && min.y < max.y
        && 0.0 <= min.x
        && 0.0 <= min.y
        && max.x <= 1.0
        && max.y <= 1.0;
    if ok {
        Ok(region)
    } else {
        Err("cloaked region is non-finite, empty or outside the unit square")
    }
}

impl Request {
    /// Decodes a wire [`Message`] into the request it stands for.
    /// Client-bound messages are a protocol violation from a client, and
    /// so is a cloaked region that is non-finite, inverted, zero-area or
    /// outside the unit square.
    pub fn from_wire(msg: Message) -> Result<Request, &'static str> {
        match msg {
            Message::CloakedUpdate {
                handle,
                seq,
                region,
            } => Ok(Request::UpsertRegion {
                handle,
                seq,
                region: checked_region(region)?,
            }),
            Message::CloakedQuery { pseudonym, region } => Ok(Request::NnCandidates {
                pseudonym,
                region: checked_region(region)?,
                filters: None,
                category: None,
            }),
            Message::MetricsRequest => Ok(Request::Metrics),
            Message::Replicate {
                epoch,
                commit_horizon,
                records,
            } => Ok(Request::Replicate {
                epoch,
                commit_horizon,
                records,
            }),
            Message::Candidates(_)
            | Message::UpdateAck { .. }
            | Message::MetricsText(_)
            | Message::ReplicateAck { .. }
            | Message::Overloaded { .. } => Err("client sent a server-only message"),
        }
    }
}

impl Response {
    /// Encodes the response as the wire [`Message`] that answers it.
    /// Responses that only exist in-process have no encoding.
    pub fn into_wire(self) -> Result<Message, &'static str> {
        match self {
            Response::RegionAck {
                handle,
                seq,
                boot_id,
                ..
            } => Ok(Message::UpdateAck {
                boot_id,
                handle,
                seq,
            }),
            Response::Candidates { entries, .. } => Ok(Message::Candidates(entries)),
            Response::MetricsPage(page) => Ok(Message::MetricsText(page)),
            Response::Overloaded { retry_after } => Ok(Message::Overloaded {
                retry_after_ms: u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX),
            }),
            Response::ReplicateAck {
                epoch,
                received_seq,
                durable_seq,
            } => Ok(Message::ReplicateAck {
                epoch,
                received_seq,
                durable_seq,
            }),
            _ => Err("response has no wire representation"),
        }
    }
}

/// The one interface both Casper façades implement: feed it a typed
/// [`Request`], get a typed [`Response`]. Harnesses written against
/// `dyn Engine` run unchanged over [`Casper`] or [`RemoteCasper`].
///
/// [`Casper`]: crate::Casper
/// [`RemoteCasper`]: crate::RemoteCasper
pub trait Engine {
    /// Executes one request.
    fn execute(&mut self, req: Request) -> Response;
}

/// The receiving half of the replication stream: whatever a plane's
/// operator attaches here answers [`Request::Replicate`] batches. The
/// standby side of a primary/standby pair implements this over its own
/// durable anonymizer; a plane with nothing attached answers
/// [`Response::Unsupported`].
pub trait ReplicaHook: Send + Sync {
    /// Applies one replication batch (possibly empty — a heartbeat) and
    /// returns the acknowledgement the sender gates client acks on.
    fn apply(&self, epoch: u64, commit_horizon: u64, records: &[u8]) -> Response;
}

/// The single server-side executor: the privacy-aware query processor
/// plus per-handle sequencing, shared (internally locked) so the TCP
/// server's connection workers and in-process pipelines can all drive
/// it concurrently.
///
/// Every server-tier match arm in the codebase lives in
/// [`ServerPlane::execute`]; the network layer is pure framing around
/// it and the local pipeline is a caller of it.
pub struct ServerPlane {
    server: RwLock<CasperServer>,
    /// Newest applied sequence per handle: stale-update discard.
    seqs: Mutex<HashMap<u64, u64>>,
    /// Monotone sequence source for local callers that do not run their
    /// own per-handle sequencing ([`Request::UpsertRegion`] with
    /// `seq == 0`).
    next_seq: AtomicU64,
    /// Atomic so a standby's promotion can bump it on the live plane —
    /// the §8 restart-detection signal clients key replay off.
    boot_id: AtomicU64,
    /// `false` while the plane is a warm standby: client-tier requests
    /// are shed with a short retry hint (the replication stream and the
    /// ops channel keep flowing) until promotion flips it.
    serving: AtomicBool,
    /// The attached replication receiver, if this plane is a standby.
    replica: RwLock<Option<Arc<dyn ReplicaHook>>>,
    filters: FilterCount,
}

impl std::fmt::Debug for ServerPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerPlane")
            .field("boot_id", &self.boot_id())
            .field("serving", &self.is_serving())
            .field("replica", &read(&self.replica).is_some())
            .finish_non_exhaustive()
    }
}

impl ServerPlane {
    /// Wraps a [`CasperServer`] into a shared plane. `filters` is the
    /// default filter-count for requests that do not carry their own
    /// (e.g. wire queries); `boot_id` is echoed in every region ack.
    pub fn new(server: CasperServer, filters: FilterCount, boot_id: u64) -> Self {
        Self {
            server: RwLock::new(server),
            seqs: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
            boot_id: AtomicU64::new(boot_id),
            serving: AtomicBool::new(true),
            replica: RwLock::new(None),
            filters,
        }
    }

    /// The boot id echoed in region acks.
    pub fn boot_id(&self) -> u64 {
        self.boot_id.load(Ordering::Acquire)
    }

    /// Replaces the boot id. The durability layer calls this after
    /// recovery, and a promoting standby calls it on the *live* plane,
    /// so the §8 restart-detection machinery sees a fresh boot.
    pub fn set_boot_id(&self, boot_id: u64) {
        self.boot_id.store(boot_id, Ordering::Release);
    }

    /// Whether the plane serves client-tier requests (`true` for a
    /// normal server, `false` for a warm standby awaiting promotion).
    pub fn is_serving(&self) -> bool {
        self.serving.load(Ordering::Acquire)
    }

    /// Flips client-tier serving on or off. While off, every request
    /// other than the replication stream and the ops channel is shed
    /// with [`Response::Overloaded`] — shed-while-promoting: a standby
    /// mid-takeover answers *something* bounded instead of queueing
    /// work against state it has not finished owning.
    pub fn set_serving(&self, serving: bool) {
        self.serving.store(serving, Ordering::Release);
    }

    /// Attaches (or replaces) the replication receiver that answers
    /// [`Request::Replicate`] on this plane.
    pub fn set_replica(&self, hook: Arc<dyn ReplicaHook>) {
        *write(&self.replica) = Some(hook);
    }

    /// Mints a fresh, plane-monotone sequence number.
    pub fn mint_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Read access to the underlying server (diagnostics, snapshots).
    pub fn read(&self) -> impl std::ops::Deref<Target = CasperServer> + '_ {
        read(&self.server)
    }

    /// Write access to the underlying server (e.g. loading targets).
    pub fn write(&self) -> impl std::ops::DerefMut<Target = CasperServer> + '_ {
        write(&self.server)
    }

    /// Deadline-aware [`ServerPlane::execute`]: a request whose budget
    /// has already run out is answered [`Response::Overloaded`] without
    /// touching the server — the sender has stopped waiting, so doing
    /// the work would only burn capacity the live requests need.
    pub fn execute_with_deadline(
        &self,
        req: Request,
        deadline: crate::overload::Deadline,
    ) -> Response {
        if deadline.is_expired() {
            return Response::Overloaded {
                retry_after: crate::overload::RETRY_AFTER,
            };
        }
        self.execute(req)
    }

    /// The stale-discard decision and the region write, as one step under
    /// both locks (callers take `seqs` first, then `server`). Deciding
    /// under `seqs` alone and writing afterwards would let a concurrent
    /// newer update decide *and* write in between, and the stale region
    /// would win. Returns whether the region was applied.
    fn apply_region(
        seqs: &mut HashMap<u64, u64>,
        server: &mut CasperServer,
        handle: u64,
        seq: u64,
        region: Rect,
    ) -> bool {
        if seqs.get(&handle).is_some_and(|&newest| seq < newest) {
            return false;
        }
        seqs.insert(handle, seq);
        server.upsert_private_region(PrivateHandle(handle), region);
        true
    }

    /// Executes one server-tier request. User-tier requests come back
    /// [`Response::Unsupported`] — they belong to an anonymizer-holding
    /// engine, not the bare server plane.
    pub fn execute(&self, req: Request) -> Response {
        // A warm standby sheds everything but the replication stream and
        // the ops channel: its state is still catching up, and answering
        // client traffic from it would serve a stale or torn view.
        if !self.is_serving() && !matches!(req, Request::Replicate { .. } | Request::Metrics) {
            return Response::Overloaded {
                retry_after: Duration::from_millis(100),
            };
        }
        match req {
            Request::UpsertRegion {
                handle,
                seq,
                region,
            } => {
                let seq = if seq == 0 { self.mint_seq() } else { seq };
                let applied = {
                    let mut seqs = lock(&self.seqs);
                    let mut server = write(&self.server);
                    Self::apply_region(&mut seqs, &mut server, handle, seq, region)
                };
                // Stale updates are acked too: the sender's newer state
                // is already applied, so from its view the update
                // succeeded.
                Response::RegionAck {
                    applied,
                    handle,
                    seq,
                    boot_id: self.boot_id(),
                }
            }
            Request::RemoveRegion { handle } => {
                let mut seqs = lock(&self.seqs);
                let mut server = write(&self.server);
                seqs.remove(&handle);
                server.remove_private_region(PrivateHandle(handle));
                Response::Done
            }
            Request::NnCandidates {
                region,
                filters,
                category,
                ..
            } => {
                let fc = filters.unwrap_or(self.filters);
                let server = read(&self.server);
                let (list, stats) = match category {
                    Some(cat) => server.nn_public_in(&region, fc, cat),
                    None => server.nn_public(&region, fc),
                };
                Response::Candidates {
                    entries: list.candidates,
                    processing: Some(stats.processing),
                }
            }
            Request::NnPrivateCandidates {
                region,
                filters,
                exclude,
            } => {
                let fc = filters.unwrap_or(self.filters);
                let (mut list, stats) =
                    read(&self.server).nn_private(&region, fc, PrivateBoundMode::Safe);
                if let Some(own) = exclude {
                    list.candidates.retain(|e| e.id != ObjectId(own));
                }
                Response::Candidates {
                    entries: list.candidates,
                    processing: Some(stats.processing),
                }
            }
            Request::AdminCount { area } => {
                Response::Count(read(&self.server).range_private(&area))
            }
            Request::Metrics => Response::MetricsPage(casper_telemetry::registry().render()),
            Request::Replicate {
                epoch,
                commit_horizon,
                records,
            } => {
                let hook = read(&self.replica).clone();
                match hook {
                    Some(h) => h.apply(epoch, commit_horizon, &records),
                    None => Response::Unsupported("no replica attached to this plane"),
                }
            }
            Request::Register { .. }
            | Request::UpdateLocation { .. }
            | Request::UpdateProfile { .. }
            | Request::SignOff { .. }
            | Request::Cloak { .. }
            | Request::QueryNn { .. }
            | Request::QueryNnPrivate { .. } => {
                Response::Unsupported("user-tier request sent to the bare server plane")
            }
        }
    }
}

/// The trusted anonymizer tier as a *shared* service: every method takes
/// `&self`, so callers on different threads proceed concurrently to
/// whatever degree the implementation's locking allows.
///
/// Implementations: a blanket impl puts any [`PyramidStructure`] — the
/// complete and adaptive pyramids — behind one `RwLock` (correct, fully
/// serialised writes); [`crate::ShardedAnonymizer`] implements it
/// natively with one lock per shard, so updates and cloaks touching
/// different shards run genuinely in parallel.
pub trait AnonymizerService: Send + Sync {
    /// Registers a user (exact data stay on the trusted side).
    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats;
    /// Processes a location update.
    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats;
    /// Changes a user's privacy profile.
    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats;
    /// Removes a user.
    fn deregister(&self, uid: UserId) -> MaintenanceStats;
    /// Algorithm 1 for a registered user (`None` if unknown).
    fn cloak(&self, uid: UserId) -> Option<CloakedRegion>;
    /// Exact position of a registered user (trusted tier only).
    fn position_of(&self, uid: UserId) -> Option<Point>;
    /// Privacy profile of a registered user.
    fn profile_of(&self, uid: UserId) -> Option<Profile>;
    /// Number of registered users.
    fn user_count(&self) -> usize;
    /// Ids of every registered user (unordered). The durability layer
    /// checkpoints through this; services that cannot enumerate users
    /// cannot be made crash-safe.
    fn user_ids(&self) -> Vec<UserId>;
    /// Every registered user's `(uid, profile, position)` in one call —
    /// the checkpoint gather path. The default is a per-user lookup
    /// loop; sharded services override it to drain each shard's flat
    /// user table under one lock.
    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        self.user_ids()
            .into_iter()
            .filter_map(|uid| {
                let pos = self.position_of(uid)?;
                let profile = self.profile_of(uid)?;
                Some((uid, profile, pos))
            })
            .collect()
    }
    /// Which internal partition a position belongs to — the key a
    /// checkpoint groups its per-shard segments by. Unsharded services
    /// use a single partition.
    fn shard_hint(&self, _pos: Point) -> usize {
        0
    }
    /// Cloaks many users at once, output in input order. The default is
    /// a per-user loop; sharded services override it to group users by
    /// home shard, take each shard lock once, and walk every group in
    /// Morton order of the users' leaf cells so Algorithm 1's sibling
    /// block lookups stay cache-resident.
    fn cloak_many(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        uids.iter().map(|&uid| self.cloak(uid)).collect()
    }
}

/// Any pyramid behind one lock is an [`AnonymizerService`]: writes
/// serialise on the lock, reads share it. This is the drop-in path for
/// [`casper_grid::CompletePyramid`] and [`casper_grid::AdaptivePyramid`].
impl<P: PyramidStructure + Send + Sync> AnonymizerService for RwLock<P> {
    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        let Some(pos) = sanitize_position(pos) else {
            return MaintenanceStats::ZERO;
        };
        write(self).register(uid, profile, pos)
    }

    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        let Some(pos) = sanitize_position(pos) else {
            return MaintenanceStats::ZERO;
        };
        write(self).update_location(uid, pos)
    }

    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        write(self).update_profile(uid, profile)
    }

    fn deregister(&self, uid: UserId) -> MaintenanceStats {
        write(self).deregister(uid)
    }

    fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        read(self).cloak_user(uid)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        read(self).position_of(uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        read(self).profile_of(uid)
    }

    fn user_count(&self) -> usize {
        read(self).user_count()
    }

    fn user_ids(&self) -> Vec<UserId> {
        read(self).user_ids()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        read(self).user_records()
    }
}

/// The sharded anonymizer joins the service natively: its own internal
/// locking is already per shard, and its shard index is the natural
/// checkpoint partition.
impl AnonymizerService for crate::ShardedAnonymizer {
    fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        crate::ShardedAnonymizer::register(self, uid, profile, pos)
    }

    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        crate::ShardedAnonymizer::update_location(self, uid, pos)
    }

    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        crate::ShardedAnonymizer::update_profile(self, uid, profile)
    }

    fn deregister(&self, uid: UserId) -> MaintenanceStats {
        crate::ShardedAnonymizer::deregister(self, uid)
    }

    fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        self.cloak_user(uid)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        crate::ShardedAnonymizer::position_of(self, uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        crate::ShardedAnonymizer::profile_of(self, uid)
    }

    fn user_count(&self) -> usize {
        crate::ShardedAnonymizer::user_count(self)
    }

    fn user_ids(&self) -> Vec<UserId> {
        PyramidStructure::user_ids(self)
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        PyramidStructure::user_records(self)
    }

    fn shard_hint(&self, pos: Point) -> usize {
        self.shard_of(pos)
    }

    fn cloak_many(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        self.cloak_users(uids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_grid::AdaptivePyramid;

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn wire_round_trip_of_server_requests() {
        let region = Rect::from_coords(0.1, 0.1, 0.2, 0.2);
        let req = Request::from_wire(Message::CloakedUpdate {
            handle: 7,
            seq: 3,
            region,
        })
        .unwrap();
        assert_eq!(
            req,
            Request::UpsertRegion {
                handle: 7,
                seq: 3,
                region
            }
        );
        let msg = Response::RegionAck {
            applied: true,
            handle: 7,
            seq: 3,
            boot_id: 9,
        }
        .into_wire()
        .unwrap();
        assert_eq!(
            msg,
            Message::UpdateAck {
                boot_id: 9,
                handle: 7,
                seq: 3
            }
        );
        // Client-bound messages are rejected as requests; in-process
        // responses have no encoding.
        assert!(Request::from_wire(Message::Candidates(Vec::new())).is_err());
        assert!(Response::Done.into_wire().is_err());
    }

    #[test]
    fn hostile_regions_are_refused_at_the_wire_boundary() {
        let p = |x, y| Point::new(x, y);
        let hostile = [
            Rect::point(p(0.3, 0.3)),
            Rect::from_coords(0.2, 0.4, 0.6, 0.4), // a segment
            Rect {
                min: p(0.6, 0.6),
                max: p(0.4, 0.8),
            }, // inverted
            Rect {
                min: p(f64::NAN, 0.1),
                max: p(0.2, 0.2),
            },
            Rect::from_coords(0.1, 0.1, f64::INFINITY, 0.2),
            Rect::from_coords(-1e300, -1e300, 1e300, 1e300),
            Rect::from_coords(0.9, 0.9, 1.25, 1.0),
        ];
        for region in hostile {
            let update = Message::CloakedUpdate {
                handle: 1,
                seq: 1,
                region,
            };
            let query = Message::CloakedQuery {
                pseudonym: 1,
                region,
            };
            assert!(Request::from_wire(update).is_err(), "{region:?}");
            assert!(Request::from_wire(query).is_err(), "{region:?}");
        }
        // The whole space and a cell on its corner pass.
        for region in [Rect::unit(), Rect::from_coords(0.75, 0.0, 1.0, 0.25)] {
            let query = Message::CloakedQuery {
                pseudonym: 1,
                region,
            };
            assert!(Request::from_wire(query).is_ok(), "{region:?}");
        }
    }

    #[test]
    fn plane_applies_and_discards_by_sequence() {
        let plane = ServerPlane::new(CasperServer::new(), FilterCount::Four, 42);
        let newer = Rect::from_coords(0.6, 0.6, 0.7, 0.7);
        let older = Rect::from_coords(0.1, 0.1, 0.2, 0.2);
        match plane.execute(Request::UpsertRegion {
            handle: 1,
            seq: 5,
            region: newer,
        }) {
            Response::RegionAck {
                applied, boot_id, ..
            } => {
                assert!(applied);
                assert_eq!(boot_id, 42);
            }
            other => panic!("wrong response: {other:?}"),
        }
        match plane.execute(Request::UpsertRegion {
            handle: 1,
            seq: 3,
            region: older,
        }) {
            Response::RegionAck { applied, seq, .. } => {
                assert!(!applied, "stale update must be discarded");
                assert_eq!(seq, 3);
            }
            other => panic!("wrong response: {other:?}"),
        }
        let entries = plane.read().private_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].mbr, newer);
        // Removal clears both the region and the sequence memory.
        plane.execute(Request::RemoveRegion { handle: 1 });
        assert_eq!(plane.read().private_count(), 0);
    }

    /// Two threads race an older and a newer update for one handle, as
    /// two reactors do when a reconnected client's replay meets its old
    /// connection's window, while a reader keeps the server lock busy so
    /// the writers queue behind it.
    /// Whichever order they run in, the newer region must survive: the
    /// stale-discard decision and the region write are one step.
    #[test]
    fn racing_updates_for_one_handle_keep_the_newer_region() {
        const ROUNDS: u64 = 3000;
        let plane = ServerPlane::new(CasperServer::new(), FilterCount::Four, 1);
        let region_of = |seq: u64| {
            let x = (seq % 16) as f64 / 20.0;
            Rect::from_coords(x, 0.1, x + 0.05, 0.2)
        };
        let upsert = |seq: u64| {
            plane.execute(Request::UpsertRegion {
                handle: 9,
                seq,
                region: region_of(seq),
            });
        };
        // A spinning rendezvous releases both racers within nanoseconds of
        // each other; a parking barrier would stagger them by a wake-up.
        let arrivals = AtomicU64::new(0);
        let rendezvous = |target: u64| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            while arrivals.load(Ordering::SeqCst) < target {
                std::hint::spin_loop();
            }
        };
        let done = AtomicBool::new(false);
        let mut first_loss = None;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    std::hint::black_box(plane.read().private_count());
                }
            });
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    rendezvous(4 * i + 2);
                    upsert(2 * i + 1);
                    rendezvous(4 * i + 4);
                }
            });
            for i in 0..ROUNDS {
                rendezvous(4 * i + 2);
                upsert(2 * i + 2);
                rendezvous(4 * i + 4);
                // Both updates are done and the next round cannot begin
                // before this thread reaches its rendezvous.
                let survivor = plane.read().private_entries()[0].mbr;
                if survivor != region_of(2 * i + 2) {
                    first_loss.get_or_insert(i);
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            first_loss, None,
            "an older update overwrote the newer one (first in this round)"
        );
    }

    #[test]
    fn plane_rejects_user_tier_requests() {
        let plane = ServerPlane::new(CasperServer::new(), FilterCount::Four, 1);
        assert!(matches!(
            plane.execute(Request::Cloak { uid: uid(1) }),
            Response::Unsupported(_)
        ));
    }

    #[test]
    fn locked_pyramid_is_an_anonymizer_service() {
        let service = RwLock::new(AdaptivePyramid::new(7));
        for i in 0..10u64 {
            service.register(
                uid(i),
                Profile::new(3, 0.0),
                Point::new(0.3 + i as f64 * 1e-3, 0.3),
            );
        }
        assert_eq!(AnonymizerService::user_count(&service), 10);
        let region = service.cloak(uid(0)).unwrap();
        assert!(region.user_count >= 3);
        assert!(region.rect.contains(Point::new(0.3, 0.3)));
        assert_eq!(service.shard_hint(Point::new(0.9, 0.9)), 0);
        // Sanitisation matches the anonymizer front door.
        assert_eq!(
            service.register(uid(99), Profile::RELAXED, Point::new(f64::NAN, 0.0)),
            MaintenanceStats::ZERO
        );
        assert_eq!(AnonymizerService::user_count(&service), 10);
    }
}
