//! The **unified request plane**: one typed command vocabulary and one
//! execution engine behind every Casper deployment shape.
//!
//! Historically each assembly hand-rolled its own dispatch:
//! [`Casper`](crate::Casper) called server methods directly,
//! [`RemoteCasper`](crate::RemoteCasper) translated to wire
//! messages by hand, and the [`crate::net`] server matched on
//! [`Message`] variants in its connection loop — three copies of the
//! same per-message semantics. This module collapses them into a single
//! plane:
//!
//! * [`Request`] / [`Response`] — the typed commands every entry point
//!   speaks: user-tier maintenance (register / update / sign-off),
//!   cloaking, end-to-end queries, and the server-tier operations
//!   (region upserts, candidate queries, admin counts, metrics).
//! * [`Engine`] — the one-method interface (`execute`) implemented by
//!   [`Casper`](crate::Casper), [`RemoteCasper`](crate::RemoteCasper),
//!   and [`ParallelEngine`]; a harness
//!   written against `dyn Engine` runs unchanged over any of them.
//! * [`ServerPlane`] — the single server-side executor. The TCP server
//!   decodes frames into [`Request`]s and feeds them here; the local
//!   pipeline feeds the *same* requests through the same method. The
//!   per-message match arms exist exactly once.
//! * [`AnonymizerService`] — the trusted tier as a *shared* (`&self`)
//!   service. The two single-node pyramids participate behind one lock
//!   (a blanket impl over `RwLock<P>`); the
//!   [`crate::ShardedAnonymizer`] participates natively with one lock
//!   **per shard**, which is what makes parallelism real.
//! * [`ParallelEngine`] + [`WorkerPool`] — the concurrent assembly:
//!   updates and cloaks for different shards execute in parallel on a
//!   worker pool, with `register_batch` / `update_batch` /
//!   `cloak_batch` entry points that partition work by shard affinity.
//!
//! Wire interop lives here too ([`Request::from_wire`],
//! [`Response::into_wire`]), so the network layer is pure framing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use casper_geometry::{Point, Rect};
use casper_grid::{CloakedRegion, MaintenanceStats, Profile, PyramidStructure, UserId};
use casper_index::{Entry, ObjectId};
use casper_qp::{FilterCount, PrivateBoundMode, RangeAnswer};
use crossbeam::channel;
use parking_lot::{Mutex, RwLock};

use crate::pipeline::{EndToEndAnswer, EndToEndBreakdown, QueryOutcome};
use crate::wire::Message;
use crate::{CasperClient, CasperServer, Category, PrivateHandle, TransmissionModel};

/// A typed command against a Casper engine — the one request vocabulary
/// shared by the in-process pipeline, the remote pipeline, the TCP
/// server's wire dispatch, and the concurrent engine.
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
    /// The engine refused the request under overload: its deadline had
    /// expired, an admission queue was full, the CoDel control law was
    /// shedding its priority class, the brownout level disables its
    /// path, or the fail-private guard vetoed a cloak that missed its
    /// profile. The work was **not** done; the client may retry after
    /// the hinted delay.
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

impl Request {
    /// Decodes a wire [`Message`] into the request it stands for.
    /// Client-bound messages are a protocol violation from a client.
    pub fn from_wire(msg: Message) -> Result<Request, &'static str> {
        match msg {
            Message::CloakedUpdate {
                handle,
                seq,
                region,
            } => Ok(Request::UpsertRegion {
                handle,
                seq,
                region,
            }),
            Message::CloakedQuery { pseudonym, region } => Ok(Request::NnCandidates {
                pseudonym,
                region,
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

/// The one interface every Casper assembly implements: feed it a typed
/// [`Request`], get a typed [`Response`]. Harnesses written against
/// `dyn Engine` run unchanged over [`Casper`], [`RemoteCasper`], or
/// [`ParallelEngine`].
///
/// [`Casper`]: crate::Casper
/// [`RemoteCasper`]: crate::RemoteCasper
pub trait Engine {
    /// Executes one request.
    fn execute(&mut self, req: Request) -> Response;

    /// Executes a batch of requests. The default runs them in order;
    /// concurrent engines override this to fan the batch out.
    fn execute_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter().map(|r| self.execute(r)).collect()
    }
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
            .field("replica", &self.replica.read().is_some())
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
        *self.replica.write() = Some(hook);
    }

    /// Mints a fresh, plane-monotone sequence number.
    pub fn mint_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Read access to the underlying server (diagnostics, snapshots).
    pub fn read(&self) -> impl std::ops::Deref<Target = CasperServer> + '_ {
        self.server.read()
    }

    /// Write access to the underlying server (e.g. loading targets).
    pub fn write(&self) -> impl std::ops::DerefMut<Target = CasperServer> + '_ {
        self.server.write()
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
                retry_after: crate::overload::OverloadConfig::default().retry_after,
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

    /// Applies a batch of freshly-cloaked regions in one pass: one
    /// sequencing-lock acquisition and one server write lock for the
    /// whole batch, instead of one of each per region. Every region is
    /// minted a fresh plane-monotone sequence, so the same stale-discard
    /// rule as [`Request::UpsertRegion`] with `seq == 0` applies. Returns
    /// how many regions were applied (stale ones are skipped but count as
    /// acked, matching the per-op path).
    pub fn upsert_regions(&self, regions: impl IntoIterator<Item = (u64, Rect)>) -> usize {
        let mut iter = regions.into_iter().peekable();
        if iter.peek().is_none() {
            return 0;
        }
        let mut seqs = self.seqs.lock();
        let mut server = self.server.write();
        let mut applied = 0usize;
        for (handle, region) in iter {
            if Self::apply_region(&mut seqs, &mut server, handle, self.mint_seq(), region) {
                applied += 1;
            }
        }
        applied
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
                    let mut seqs = self.seqs.lock();
                    let mut server = self.server.write();
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
                let mut seqs = self.seqs.lock();
                let mut server = self.server.write();
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
                let server = self.server.read();
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
                    self.server
                        .read()
                        .nn_private(&region, fc, PrivateBoundMode::Safe);
                if let Some(own) = exclude {
                    list.candidates.retain(|e| e.id != ObjectId(own));
                }
                Response::Candidates {
                    entries: list.candidates,
                    processing: Some(stats.processing),
                }
            }
            Request::AdminCount { area } => {
                Response::Count(self.server.read().range_private(&area))
            }
            Request::Metrics => Response::MetricsPage(casper_telemetry::registry().render()),
            Request::Replicate {
                epoch,
                commit_horizon,
                records,
            } => {
                let hook = self.replica.read().clone();
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
    /// Which internal partition a position belongs to — the affinity key
    /// batch entry points use to give each worker thread its own shards.
    /// Unsharded services use a single partition.
    fn shard_hint(&self, _pos: Point) -> usize {
        0
    }
    /// Which internal partition each listed user's *current home*
    /// belongs to — the per-user analogue of
    /// [`shard_hint`](Self::shard_hint), giving cloak batches shard
    /// affinity without a position lookup per user. Unknown users map to
    /// partition 0. Unsharded services use a single partition.
    fn home_hints(&self, uids: &[UserId]) -> Vec<usize> {
        vec![0; uids.len()]
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
        if !pos.is_finite() {
            return MaintenanceStats::ZERO;
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.write().register(uid, profile, pos)
    }

    fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        if !pos.is_finite() {
            return MaintenanceStats::ZERO;
        }
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.write().update_location(uid, pos)
    }

    fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        self.write().update_profile(uid, profile)
    }

    fn deregister(&self, uid: UserId) -> MaintenanceStats {
        self.write().deregister(uid)
    }

    fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        self.read().cloak_user(uid)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        self.read().position_of(uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.read().profile_of(uid)
    }

    fn user_count(&self) -> usize {
        self.read().user_count()
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.read().user_ids()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        self.read().user_records()
    }
}

/// The sharded anonymizer joins the service natively: its own internal
/// locking is already per shard, and its shard index is the natural
/// batch-affinity key.
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

    fn home_hints(&self, uids: &[UserId]) -> Vec<usize> {
        crate::ShardedAnonymizer::home_hints(self, uids)
    }

    fn cloak_many(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        self.cloak_users(uids)
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cap on each worker's job queue; senders block (back-pressure) rather
/// than buffering unboundedly.
const WORKER_QUEUE_CAP: usize = 1024;

/// A small fixed pool of worker threads, each with its **own** job
/// queue. Keyed dispatch ([`WorkerPool::run_on`]) pins related work —
/// e.g. all updates for one shard — to one worker, which preserves
/// per-key ordering and keeps shard locks uncontended; unkeyed work
/// round-robins.
pub struct WorkerPool {
    senders: Vec<channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.senders.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = channel::bounded::<Job>(WORKER_QUEUE_CAP);
            senders.push(tx);
            workers.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            }));
        }
        Self {
            senders,
            workers,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Runs `job` on the worker selected by `key` (modulo the pool
    /// size). Same key → same worker → per-key FIFO ordering.
    pub fn run_on(&self, key: usize, job: impl FnOnce() + Send + 'static) {
        let _ = self.senders[key % self.senders.len()].send(Box::new(job));
    }

    /// Runs `job` on the next worker in round-robin order.
    pub fn run(&self, job: impl FnOnce() + Send + 'static) {
        let key = self.next.fetch_add(1, Ordering::Relaxed);
        self.run_on(key, job);
    }

    /// Applies `f` to every item on the pool, in contiguous chunks (one
    /// per worker), and returns the results in input order. Blocks until
    /// all chunks complete.
    pub fn scatter<T, R>(
        &self,
        items: Vec<T>,
        f: impl Fn(T) -> R + Clone + Send + Sync + 'static,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let workers = self.threads().min(items.len());
        let chunk_len = items.len().div_ceil(workers);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
        let mut items = items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let sent = chunks.len();
        let (tx, rx) = channel::bounded::<(usize, Vec<R>)>(sent);
        for (ci, chunk) in chunks.into_iter().enumerate() {
            let tx = tx.clone();
            let f = f.clone();
            self.run_on(ci, move || {
                let out: Vec<R> = chunk.into_iter().map(&f).collect();
                let _ = tx.send((ci, out));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Vec<R>>> = (0..sent).map(|_| None).collect();
        for _ in 0..sent {
            let (ci, out) = rx.recv().expect("worker pool died mid-scatter");
            slots[ci] = Some(out);
        }
        slots.into_iter().flatten().flatten().collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing every queue ends each worker's recv loop; then join.
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Default number of batch mutations applied between server-plane
/// region flushes ([`ParallelEngine::with_region_flush_chunk`]).
pub const DEFAULT_REGION_FLUSH_CHUNK: usize = 128;

/// Everything a [`ParallelEngine`] request needs, shareable across the
/// worker pool.
#[derive(Debug)]
struct EngineShared<A: AnonymizerService> {
    anonymizer: A,
    plane: ServerPlane,
    client: CasperClient,
    transmission: TransmissionModel,
    filters: FilterCount,
    /// Mutations applied between server-plane region flushes in the
    /// batch paths. Bounds how stale a concurrent reader can observe
    /// the plane mid-batch while still amortising the plane's locks
    /// over a whole chunk. `1` degenerates to one cloak + one plane
    /// write per mutation — the pre-vectorization behaviour, kept
    /// reachable so the throughput bench can measure the batching win
    /// at equal worker counts.
    region_flush_chunk: usize,
    /// Overload-control state; `None` (the default) leaves the engine's
    /// legacy always-admit behaviour untouched. Installed by
    /// [`ParallelEngine::with_overload`].
    overload: Option<Arc<crate::overload::OverloadState>>,
}

impl<A: AnonymizerService> EngineShared<A> {
    /// Refreshes the server-side cloaked region after a trusted-tier
    /// mutation, through the one server plane.
    fn push_region(&self, uid: UserId) {
        if let Some(region) = self.anonymizer.cloak(uid) {
            self.plane.execute(Request::UpsertRegion {
                handle: uid.0,
                seq: 0, // plane-assigned
                region: region.rect,
            });
        }
    }

    /// Batch form of [`push_region`](Self::push_region): one grouped
    /// cloak pass through the anonymizer's batch path and one plane
    /// write for the whole set. Each user's region reflects their state
    /// at flush time, so flushing once after a run of mutations leaves
    /// the plane exactly where per-op pushes would have (regions are
    /// keyed by uid; the last write wins).
    fn flush_regions(&self, uids: &[UserId]) {
        if uids.is_empty() {
            return;
        }
        let regions = self.anonymizer.cloak_many(uids);
        self.plane.upsert_regions(
            uids.iter()
                .zip(regions)
                .filter_map(|(&uid, region)| region.map(|r| (uid.0, r.rect))),
        );
    }

    /// The end-to-end query pipeline over the shared tiers: cloak →
    /// server plane → modelled transmission → local refinement.
    fn query(
        &self,
        uid: UserId,
        filters: Option<FilterCount>,
        category: Option<Category>,
        private_data: bool,
    ) -> Option<QueryOutcome> {
        let trace_id = casper_telemetry::next_trace_id();
        // Workers that adopted a dispatch context attach this request as
        // a child span; bare submitters get their own trace root.
        let _qspan = if crate::tel::span_current().is_some() {
            crate::tel::span("query")
        } else {
            crate::tel::span_root(trace_id, "query")
        };
        let t0 = Instant::now();
        let cloak_span = crate::tel::span("cloak");
        let cloaked = self.anonymizer.cloak(uid);
        drop(cloak_span);
        // The region below is released to the server tier: audit it.
        audit_cloak_decision(self, uid, cloaked.as_ref(), true, "");
        let region = cloaked?.rect;
        let anonymizer_time = t0.elapsed();
        let fc = filters.unwrap_or(self.filters);
        let req = if private_data {
            Request::NnPrivateCandidates {
                region,
                filters: Some(fc),
                exclude: Some(uid.0),
            }
        } else {
            Request::NnCandidates {
                pseudonym: trace_id,
                region,
                filters: Some(fc),
                category,
            }
        };
        let qp_span = crate::tel::span("qp_execute");
        let plane_resp = self.plane.execute(req);
        drop(qp_span);
        let Response::Candidates {
            entries,
            processing,
        } = plane_resp
        else {
            return None;
        };
        let query_time = processing.unwrap_or_default();
        let transmission = self.transmission.time_for_records(entries.len());
        let refine_span = crate::tel::span("client_refine");
        let pos = self.anonymizer.position_of(uid)?;
        let exact = if private_data {
            self.client.refine_nn_private_entries(pos, &entries)
        } else {
            self.client.refine_nn_entries(pos, &entries)
        };
        drop(refine_span);
        crate::tel::record_stage(trace_id, "anonymizer", "ok", anonymizer_time);
        crate::tel::record_stage(trace_id, "query", "ok", query_time);
        crate::tel::record_stage(trace_id, "transmission", "ok", transmission);
        crate::tel::record_answered();
        Some(QueryOutcome::Answered(EndToEndAnswer {
            exact,
            candidates: entries.len(),
            breakdown: EndToEndBreakdown {
                anonymizer: anonymizer_time,
                query: query_time,
                transmission,
            },
            trace_id,
        }))
    }

    /// The single dispatch: routes user-tier requests to the anonymizer
    /// service and everything else to the server plane. Thread-safe
    /// (`&self`): this is what every worker and every caller runs.
    fn apply(&self, req: Request) -> Response {
        match req {
            Request::Register { uid, profile, pos } => {
                let s = self.anonymizer.register(uid, profile, pos);
                self.push_region(uid);
                Response::Maintained(s)
            }
            Request::UpdateLocation { uid, pos } => {
                let s = self.anonymizer.update_location(uid, pos);
                self.push_region(uid);
                Response::Maintained(s)
            }
            Request::UpdateProfile { uid, profile } => {
                let s = self.anonymizer.update_profile(uid, profile);
                self.push_region(uid);
                Response::Maintained(s)
            }
            Request::SignOff { uid } => {
                self.anonymizer.deregister(uid);
                self.plane.execute(Request::RemoveRegion { handle: uid.0 });
                Response::Done
            }
            Request::Cloak { uid } => Response::Cloaked(self.anonymizer.cloak(uid)),
            Request::QueryNn {
                uid,
                filters,
                category,
            } => Response::Outcome(self.query(uid, filters, category, false)),
            Request::QueryNnPrivate { uid } => Response::Outcome(self.query(uid, None, None, true)),
            server_tier => self.plane.execute(server_tier),
        }
    }
}

/// The concurrent Casper assembly: a shared [`AnonymizerService`], the
/// one [`ServerPlane`], and a [`WorkerPool`] that executes batches in
/// parallel with shard affinity.
///
/// Single requests ([`ParallelEngine::submit`]) run on the caller's
/// thread — any number of threads may submit concurrently. Batch entry
/// points ([`ParallelEngine::update_batch`] et al.) partition work
/// across the pool by [`AnonymizerService::shard_hint`], so a sharded
/// anonymizer sees its shards driven in parallel with minimal lock
/// contention.
#[derive(Debug)]
pub struct ParallelEngine<A: AnonymizerService + 'static> {
    shared: Arc<EngineShared<A>>,
    pool: WorkerPool,
}

impl ParallelEngine<crate::ShardedAnonymizer> {
    /// The standard concurrent deployment: a sharded anonymizer
    /// (equivalent to one `global_height`-level pyramid, split at
    /// `shard_level`) driven by `threads` workers.
    pub fn sharded(global_height: u8, shard_level: u8, threads: usize) -> Self {
        Self::new(
            crate::ShardedAnonymizer::new(global_height, shard_level),
            threads,
        )
    }
}

impl<A: AnonymizerService + 'static> ParallelEngine<A> {
    /// Assembles the engine around any anonymizer service with the
    /// paper's defaults (4 filters, 64-byte records over 100 Mbps).
    pub fn new(anonymizer: A, threads: usize) -> Self {
        Self {
            shared: Arc::new(EngineShared {
                anonymizer,
                plane: ServerPlane::new(CasperServer::new(), FilterCount::Four, 1),
                client: CasperClient::new(),
                transmission: TransmissionModel::default(),
                filters: FilterCount::Four,
                region_flush_chunk: DEFAULT_REGION_FLUSH_CHUNK,
                overload: None,
            }),
            pool: WorkerPool::new(threads),
        }
    }

    fn configure(&mut self) -> &mut EngineShared<A> {
        Arc::get_mut(&mut self.shared).expect("configure the engine before sharing it")
    }

    /// Overrides the filter-count variant of the query processor.
    pub fn with_filters(mut self, filters: FilterCount) -> Self {
        self.configure().filters = filters;
        self
    }

    /// Overrides the server plane's boot id (§8 restart detection).
    /// The durability layer passes the recovered boot epoch here so
    /// clients' idempotent replay composes with crash recovery.
    pub fn with_boot_id(mut self, boot_id: u64) -> Self {
        self.configure().plane.set_boot_id(boot_id);
        self
    }

    /// Overrides the transmission model.
    pub fn with_transmission(mut self, model: TransmissionModel) -> Self {
        self.configure().transmission = model;
        self
    }

    /// Overrides how many batch mutations are applied between
    /// server-plane region flushes (default
    /// [`DEFAULT_REGION_FLUSH_CHUNK`]). Smaller chunks tighten the
    /// staleness window a concurrent plane reader can observe
    /// mid-batch at the cost of more lock acquisitions; `1` flushes
    /// after every mutation, which is the pre-vectorization per-op
    /// behaviour the throughput bench uses as its baseline. Values
    /// below 1 are clamped to 1.
    pub fn with_region_flush_chunk(mut self, chunk: usize) -> Self {
        self.configure().region_flush_chunk = chunk.max(1);
        self
    }

    /// Read access to the anonymizer service.
    pub fn anonymizer(&self) -> &A {
        &self.shared.anonymizer
    }

    /// The engine's server plane (e.g. to share with a
    /// [`crate::net::NetworkServer`]-style front end or inspect state).
    pub fn plane(&self) -> &ServerPlane {
        &self.shared.plane
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Loads the public target objects.
    pub fn load_targets(&self, targets: impl IntoIterator<Item = (ObjectId, Point)>) {
        self.shared.plane.write().load_public_targets(targets);
    }

    /// Runs a read-only closure against the hosted server.
    pub fn with_server<R>(&self, f: impl FnOnce(&CasperServer) -> R) -> R {
        f(&self.shared.plane.read())
    }

    /// Runs a mutating closure against the hosted server.
    pub fn with_server_mut<R>(&self, f: impl FnOnce(&mut CasperServer) -> R) -> R {
        f(&mut self.shared.plane.write())
    }

    /// Executes one request on the calling thread. Thread-safe: any
    /// number of threads may submit concurrently, and operations on
    /// different shards of a sharded anonymizer proceed in parallel.
    pub fn submit(&self, req: Request) -> Response {
        self.shared.apply(req)
    }

    /// Registers a batch of users across the worker pool, partitioned
    /// by shard affinity. Returns how many registrations were applied.
    pub fn register_batch(&self, users: Vec<(UserId, Profile, Point)>) -> usize {
        self.keyed_batch(
            users,
            |&(_, _, pos)| pos,
            |shared, (uid, profile, pos)| {
                shared.anonymizer.register(uid, profile, pos);
                uid
            },
        )
    }

    /// Applies a batch of location updates across the worker pool,
    /// partitioned by shard affinity (all updates for one shard land on
    /// one worker, preserving per-shard order). Returns how many were
    /// applied.
    pub fn update_batch(&self, updates: Vec<(UserId, Point)>) -> usize {
        self.keyed_batch(
            updates,
            |&(_, pos)| pos,
            |shared, (uid, pos)| {
                shared.anonymizer.update_location(uid, pos);
                uid
            },
        )
    }

    /// Cloaks a batch of users across the worker pool, returning the
    /// regions in input order. Work is partitioned by each user's *home*
    /// partition ([`AnonymizerService::home_hints`]), so every worker
    /// drives its own shards and the sharded service's grouped,
    /// Morton-ordered batch cloak ([`AnonymizerService::cloak_many`])
    /// runs once per bucket instead of locking per user.
    pub fn cloak_batch(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        if uids.is_empty() {
            return Vec::new();
        }
        let workers = self.pool.threads();
        if workers == 1 {
            // Single partition: every uid lands in bucket 0 anyway, so
            // skip the hint pass and the cross-thread hop and cloak the
            // whole batch inline on the caller.
            return self.shared.anonymizer.cloak_many(uids);
        }
        let hints = self.shared.anonymizer.home_hints(uids);
        // Bucket input slots by home partition; each bucket remembers the
        // original slots so the output is restored to input order.
        let mut buckets: Vec<(Vec<usize>, Vec<UserId>)> =
            (0..workers).map(|_| (Vec::new(), Vec::new())).collect();
        for (slot, (&uid, hint)) in uids.iter().zip(hints).enumerate() {
            let bucket = &mut buckets[hint % workers];
            bucket.0.push(slot);
            bucket.1.push(uid);
        }
        type CloakChunk = (Vec<usize>, Vec<Option<CloakedRegion>>);
        let (tx, rx) = channel::bounded::<CloakChunk>(workers);
        let mut jobs = 0usize;
        for (w, (slots, bucket_uids)) in buckets.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            jobs += 1;
            let shared = Arc::clone(&self.shared);
            let tx = tx.clone();
            self.pool.run_on(w, move || {
                let regions = shared.anonymizer.cloak_many(&bucket_uids);
                let _ = tx.send((slots, regions));
            });
        }
        drop(tx);
        let mut out: Vec<Option<CloakedRegion>> = vec![None; uids.len()];
        for _ in 0..jobs {
            let Ok((slots, regions)) = rx.recv() else {
                break;
            };
            for (slot, region) in slots.into_iter().zip(regions) {
                out[slot] = region;
            }
        }
        out
    }

    /// Partitions `items` into per-worker buckets by the shard of the
    /// position `key_pos` extracts, runs `op` on each item on its
    /// bucket's worker, and blocks until every bucket completes.
    ///
    /// `op` returns the uid whose server-side region the mutation made
    /// stale; the worker refreshes regions in chunks through the plane's
    /// batched upsert ([`ServerPlane::upsert_regions`]) instead of one
    /// plane round-trip per item. Each flush cloaks the users' state *at
    /// flush time*, and regions are keyed by uid with per-uid FIFO order
    /// preserved within a bucket, so the plane ends up exactly where
    /// per-op pushes would have left it.
    fn keyed_batch<T: Send + 'static>(
        &self,
        items: Vec<T>,
        key_pos: impl Fn(&T) -> Point,
        op: impl Fn(&EngineShared<A>, T) -> UserId + Clone + Send + Sync + 'static,
    ) -> usize {
        if items.is_empty() {
            return 0;
        }
        let workers = self.pool.threads();
        let mut buckets: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        for item in items {
            let hint = self.shared.anonymizer.shard_hint(key_pos(&item));
            buckets[hint % workers].push(item);
        }
        let (tx, rx) = channel::bounded::<usize>(workers);
        let mut jobs = 0usize;
        for (w, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            jobs += 1;
            let shared = Arc::clone(&self.shared);
            let tx = tx.clone();
            let op = op.clone();
            self.pool.run_on(w, move || {
                let flush_chunk = shared.region_flush_chunk.max(1);
                let mut applied = 0usize;
                let mut dirty: Vec<UserId> = Vec::with_capacity(flush_chunk);
                for item in bucket {
                    let uid = op(&shared, item);
                    if dirty.last() != Some(&uid) {
                        dirty.push(uid);
                    }
                    applied += 1;
                    if dirty.len() >= flush_chunk {
                        shared.flush_regions(&dirty);
                        dirty.clear();
                    }
                }
                shared.flush_regions(&dirty);
                let _ = tx.send(applied);
            });
        }
        drop(tx);
        (0..jobs).map(|_| rx.recv().unwrap_or(0)).sum()
    }
}

/// Runtime control of the hosted server's candidate cache.
impl<A: AnonymizerService + 'static> ParallelEngine<A> {
    /// Enables or disables the server-tier candidate cache (on by
    /// default). The cache is internally sharded and safe under any
    /// number of concurrent submitters.
    pub fn with_query_cache(self, enabled: bool) -> Self {
        self.shared.plane.write().set_query_cache_enabled(enabled);
        self
    }

    /// Replaces the hosted server's cache with a fresh one under
    /// `config`.
    pub fn with_query_cache_config(self, config: casper_qp::cache::CacheConfig) -> Self {
        self.shared.plane.write().set_query_cache_config(config);
        self
    }

    /// Hit/miss/invalidation counters of the hosted server's candidate
    /// cache (`None` when disabled).
    pub fn cache_stats(&self) -> Option<casper_qp::cache::CacheStats> {
        self.shared.plane.read().cache_stats()
    }
}

/// Overload control: admission gates, deadline propagation, brownout and
/// the fail-private guard (§13 of DESIGN.md).
impl<A: AnonymizerService + 'static> ParallelEngine<A> {
    /// Installs the overload-control subsystem: one admission gate per
    /// worker, CoDel shedding, brownout stepping, deadline enforcement
    /// and the fail-private guard. Without this call the engine keeps
    /// its always-admit behaviour.
    pub fn with_overload(mut self, cfg: crate::overload::OverloadConfig) -> Self {
        let slots = self.pool.threads();
        self.configure().overload = Some(Arc::new(crate::overload::OverloadState::new(cfg, slots)));
        self
    }

    /// Point-in-time overload counters (`None` until
    /// [`ParallelEngine::with_overload`] installs the subsystem).
    pub fn overload_stats(&self) -> Option<crate::overload::OverloadStats> {
        self.shared.overload.as_ref().map(|s| s.stats())
    }

    /// The current brownout level ([`Normal`] when overload control is
    /// not installed).
    ///
    /// [`Normal`]: crate::overload::BrownoutLevel::Normal
    pub fn brownout_level(&self) -> crate::overload::BrownoutLevel {
        self.shared
            .overload
            .as_ref()
            .map_or(crate::overload::BrownoutLevel::Normal, |s| s.level())
    }

    /// Forces a brownout level (operator override; tests). The
    /// controller keeps stepping from here on subsequent polls. No-op
    /// without overload control installed.
    pub fn set_brownout_level(&self, level: crate::overload::BrownoutLevel) {
        if let Some(s) = self.shared.overload.as_ref() {
            s.set_level(level);
        }
    }

    /// Feeds the brownout controller one observation of recent queue
    /// sojourn p99 and depth, stepping the level up or down with
    /// hysteresis. Call periodically (e.g. once per tick loop);
    /// returns the level now in force.
    pub fn poll_brownout(&self) -> crate::overload::BrownoutLevel {
        self.shared
            .overload
            .as_ref()
            .map_or(crate::overload::BrownoutLevel::Normal, |s| {
                s.poll_brownout()
            })
    }

    /// Admission slot key for a request: the stable per-entity id, so
    /// one user's (or handle's) work serialises on one gate and one
    /// worker while distinct entities spread across the pool.
    fn overload_key(req: &Request) -> u64 {
        match *req {
            Request::Register { uid, .. }
            | Request::UpdateLocation { uid, .. }
            | Request::UpdateProfile { uid, .. }
            | Request::SignOff { uid }
            | Request::Cloak { uid }
            | Request::QueryNn { uid, .. }
            | Request::QueryNnPrivate { uid } => uid.0,
            Request::UpsertRegion { handle, .. } | Request::RemoveRegion { handle } => handle,
            Request::NnCandidates { pseudonym, .. } => pseudonym,
            Request::NnPrivateCandidates { .. }
            | Request::AdminCount { .. }
            | Request::Metrics
            | Request::Replicate { .. } => 0,
        }
    }

    /// Whether the brownout ladder has switched this request's path off
    /// (category-filtered and aggregate queries stop at `Stale`).
    fn brownout_disables(level: crate::overload::BrownoutLevel, req: &Request) -> bool {
        !level.category_paths_enabled()
            && matches!(
                req,
                Request::AdminCount { .. }
                    | Request::QueryNn {
                        category: Some(_),
                        ..
                    }
                    | Request::NnCandidates {
                        category: Some(_),
                        ..
                    }
            )
    }

    /// Executes one request under a deadline, with the default priority
    /// class for its request kind. Equivalent to
    /// [`ParallelEngine::submit`] when overload control is not
    /// installed (an already-expired deadline still sheds).
    pub fn execute_with_deadline(
        &self,
        req: Request,
        deadline: crate::overload::Deadline,
    ) -> Response {
        let pri = crate::overload::Priority::of(&req);
        self.submit_classified(req, deadline, pri)
    }

    /// Executes a batch of `(request, deadline)` pairs across the
    /// worker pool with admission control per item, preserving input
    /// order in the responses. Shed items come back
    /// [`Response::Overloaded`] without occupying a worker.
    pub fn execute_batch_with_deadline(
        &self,
        reqs: Vec<(Request, crate::overload::Deadline)>,
    ) -> Vec<Response> {
        let n = reqs.len();
        let pending: Vec<(usize, channel::Receiver<Response>)> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, (req, deadline))| {
                let pri = crate::overload::Priority::of(&req);
                (i, self.dispatch_classified(req, deadline, pri))
            })
            .collect();
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        for (i, rx) in pending {
            out[i] = Some(
                rx.recv()
                    .unwrap_or(Response::Unsupported("worker pool unavailable")),
            );
        }
        out.into_iter().flatten().collect()
    }

    /// Executes one request under a deadline with an explicit priority
    /// class — the entry point continuous-query machinery uses to mark
    /// re-evaluation ticks as first-shed work.
    pub fn submit_classified(
        &self,
        req: Request,
        deadline: crate::overload::Deadline,
        pri: crate::overload::Priority,
    ) -> Response {
        // One trace per classified request (unless the caller already
        // opened one): the admission sojourn, shard lock waits, pyramid
        // walk and qp execution on the worker all hang off this root.
        let _root = if crate::tel::span_current().is_some() {
            crate::tel::span("request")
        } else {
            crate::tel::span_root(casper_telemetry::next_trace_id(), "request")
        };
        self.dispatch_classified(req, deadline, pri)
            .recv()
            .unwrap_or(Response::Unsupported("worker pool unavailable"))
    }

    /// Admission-checks `req` and either enqueues it on its slot's
    /// worker or short-circuits a shed; the returned channel always
    /// yields exactly one response.
    fn dispatch_classified(
        &self,
        req: Request,
        deadline: crate::overload::Deadline,
        pri: crate::overload::Priority,
    ) -> channel::Receiver<Response> {
        use crate::overload::ShedReason;

        let (tx, rx) = channel::bounded::<Response>(1);
        let Some(state) = self.shared.overload.as_ref() else {
            // No subsystem installed: honour an expired deadline (the
            // caller has stopped waiting) but otherwise run inline.
            let resp = if deadline.is_expired() {
                Response::Overloaded {
                    retry_after: crate::overload::OverloadConfig::default().retry_after,
                }
            } else {
                self.shared.apply(req)
            };
            let _ = tx.send(resp);
            return rx;
        };
        if Self::brownout_disables(state.level(), &req) {
            let shed = state.shed(ShedReason::Brownout);
            if let Some(uid) = cloaking_uid(&req) {
                audit_cloak_decision(&self.shared, uid, None, false, shed.reason.label());
            }
            let _ = tx.send(Response::Overloaded {
                retry_after: shed.retry_after,
            });
            return rx;
        }
        let slot = state.slot_of(Self::overload_key(&req));
        if let Err(shed) = state.admit(slot, pri, deadline) {
            if let Some(uid) = cloaking_uid(&req) {
                audit_cloak_decision(&self.shared, uid, None, false, shed.reason.label());
            }
            let _ = tx.send(Response::Overloaded {
                retry_after: shed.retry_after,
            });
            return rx;
        }
        let enqueued = Instant::now();
        // Hand the dispatching thread's span context to the worker so the
        // request's spans stay in one trace across the queue hop, and
        // remember when it was enqueued: the admission sojourn is over
        // before the worker has any context to open a live span in.
        let parent_ctx = crate::tel::span_current();
        let enqueued_ns = casper_telemetry::now_ns();
        let shared = Arc::clone(&self.shared);
        let state = Arc::clone(state);
        self.pool.run_on(slot, move || {
            let _adopted = parent_ctx.map(crate::tel::span_adopt);
            let resp = match state.start(slot, enqueued, pri, deadline) {
                Err(shed) => {
                    if let Some(ctx) = parent_ctx {
                        crate::tel::span_manual(
                            ctx,
                            "admission_sojourn",
                            enqueued_ns,
                            casper_telemetry::now_ns(),
                            "shed",
                            format!("slot={slot}"),
                        );
                        crate::tel::span_flag(ctx.trace_id);
                    }
                    if let Some(uid) = cloaking_uid(&req) {
                        audit_cloak_decision(&shared, uid, None, false, shed.reason.label());
                    }
                    Response::Overloaded {
                        retry_after: shed.retry_after,
                    }
                }
                Ok(()) => {
                    if let Some(ctx) = parent_ctx {
                        crate::tel::span_manual(
                            ctx,
                            "admission_sojourn",
                            enqueued_ns,
                            casper_telemetry::now_ns(),
                            "ok",
                            format!("slot={slot}"),
                        );
                    }
                    let resp = shared.apply(req.clone());
                    guard_fail_private(&shared, &state, &req, resp)
                }
            };
            let _ = tx.send(resp);
        });
        rx
    }
}

/// The querying user behind a cloak-producing request, if any — the
/// requests whose sheds the privacy audit plane documents.
fn cloaking_uid(req: &Request) -> Option<UserId> {
    match *req {
        Request::Cloak { uid } | Request::QueryNn { uid, .. } | Request::QueryNnPrivate { uid } => {
            Some(uid)
        }
        _ => None,
    }
}

/// Emits one audit record for a cloak decision into the process-wide
/// audit log. `served = true` means the region was (or is about to be)
/// released to the untrusted tier — the records the post-hoc
/// [`casper_telemetry::PrivacyAuditor`] checks against each user's own
/// `(k, A_min)` profile. Shed decisions (`served = false`) document
/// fail-private refusals; a missing region is recorded at level 255.
fn audit_cloak_decision<A: AnonymizerService>(
    shared: &EngineShared<A>,
    uid: UserId,
    region: Option<&CloakedRegion>,
    served: bool,
    shed_reason: &'static str,
) {
    let Some(profile) = shared.anonymizer.profile_of(uid) else {
        return;
    };
    let trace_id = crate::tel::span_current().map_or(0, |c| c.trace_id);
    let brownout = shared.overload.as_ref().map_or(0, |s| s.level().index());
    let (k_achieved, area, level) = match region {
        Some(r) => (r.user_count, r.rect.area(), r.level),
        None => (0, 0.0, 255),
    };
    crate::tel::record_cloak_audit(
        trace_id,
        uid.0,
        profile.k,
        k_achieved,
        profile.a_min,
        area,
        level,
        brownout,
        served,
        shed_reason,
    );
}

/// The fail-private guard: a produced cloak that does not satisfy the
/// user's `(k, A_min)` profile is **never** released — under any
/// overload or brownout level the response degrades to an explicit
/// [`Response::Overloaded`] shed instead of a weaker region. Privacy
/// fails closed; availability is what gives. Both outcomes land in the
/// audit log, so the post-hoc auditor can prove the vetoes happened.
fn guard_fail_private<A: AnonymizerService>(
    shared: &EngineShared<A>,
    state: &crate::overload::OverloadState,
    req: &Request,
    resp: Response,
) -> Response {
    if let (Request::Cloak { uid }, Response::Cloaked(Some(region))) = (req, &resp) {
        if let Some(profile) = shared.anonymizer.profile_of(*uid) {
            if region.user_count < profile.k || region.rect.area() < profile.a_min {
                let shed = state.note_fail_private();
                audit_cloak_decision(shared, *uid, Some(region), false, shed.reason.label());
                return Response::Overloaded {
                    retry_after: shed.retry_after,
                };
            }
        }
        audit_cloak_decision(shared, *uid, Some(region), true, "");
    }
    resp
}

impl<A: AnonymizerService + 'static> Engine for ParallelEngine<A> {
    fn execute(&mut self, req: Request) -> Response {
        self.submit(req)
    }

    /// Fans the batch out over the worker pool, preserving input order
    /// in the responses.
    fn execute_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        let shared = Arc::clone(&self.shared);
        self.pool.scatter(reqs, move |req| shared.apply(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_grid::AdaptivePyramid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// Two executors race an older and a newer update for one handle, as
    /// the reactor's pool does with a pipelined window, while a reader
    /// keeps the server lock busy so the writers queue behind it.
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

    #[test]
    fn worker_pool_scatter_preserves_order() {
        let pool = WorkerPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let doubled = pool.scatter(input.clone(), |x| x * 2);
        assert_eq!(doubled.len(), 1000);
        for (i, v) in doubled.into_iter().enumerate() {
            assert_eq!(v, input[i] * 2);
        }
    }

    #[test]
    fn worker_pool_keyed_dispatch_is_fifo_per_key() {
        let pool = WorkerPool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100u64 {
            let log = Arc::clone(&log);
            pool.run_on(2, move || log.lock().push(i));
        }
        drop(pool); // joins: all jobs done
        let seen = log.lock().clone();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    fn populated_engine(threads: usize) -> ParallelEngine<crate::ShardedAnonymizer> {
        let engine = ParallelEngine::sharded(8, 2, threads);
        let mut rng = StdRng::seed_from_u64(3);
        engine.load_targets((0..400).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        let users: Vec<(UserId, Profile, Point)> = (0..200)
            .map(|i| {
                (
                    uid(i),
                    Profile::new(rng.gen_range(1..8), 0.0),
                    Point::new(rng.gen(), rng.gen()),
                )
            })
            .collect();
        assert_eq!(engine.register_batch(users), 200);
        engine
    }

    #[test]
    fn engine_end_to_end_query_answers_correctly() {
        let engine = populated_engine(4);
        for i in 0..30u64 {
            let Response::Outcome(Some(QueryOutcome::Answered(ans))) =
                engine.submit(Request::QueryNn {
                    uid: uid(i),
                    filters: None,
                    category: None,
                })
            else {
                panic!("expected an answer for user {i}");
            };
            let pos = engine.anonymizer().position_of(uid(i)).unwrap();
            let exact = ans.exact.expect("targets are loaded");
            // Verify against a brute-force scan.
            let mut check_rng = StdRng::seed_from_u64(3);
            let best = (0..400)
                .map(|_| Point::new(check_rng.gen(), check_rng.gen()).dist(pos))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (exact.mbr.min.dist(pos) - best).abs() < 1e-9,
                "user {i}: engine refinement diverged from brute force"
            );
        }
    }

    #[test]
    fn engine_keeps_server_side_regions_in_step() {
        let engine = populated_engine(2);
        assert_eq!(engine.with_server(|s| s.private_count()), 200);
        engine.submit(Request::SignOff { uid: uid(0) });
        assert_eq!(engine.with_server(|s| s.private_count()), 199);
        assert_eq!(engine.anonymizer().user_count(), 199);
        // An admin count sees regions, never exact points.
        let Response::Count(ans) = engine.submit(Request::AdminCount { area: Rect::unit() }) else {
            panic!("expected a count");
        };
        assert_eq!(ans.max_count(), 199);
    }

    #[test]
    fn update_batch_moves_users_and_refreshes_regions() {
        let engine = populated_engine(4);
        let moves: Vec<(UserId, Point)> = (0..200u64)
            .map(|i| {
                (
                    uid(i),
                    Point::new((i % 20) as f64 / 20.0 + 0.01, (i / 20) as f64 / 20.0 + 0.01),
                )
            })
            .collect();
        assert_eq!(engine.update_batch(moves.clone()), 200);
        let regions = engine.cloak_batch(&moves.iter().map(|&(u, _)| u).collect::<Vec<_>>());
        for (i, region) in regions.iter().enumerate() {
            let region = region.as_ref().expect("registered user");
            assert!(
                region.rect.contains(moves[i].1),
                "user {i}: cloak misses the updated position"
            );
        }
    }

    #[test]
    fn batch_results_match_sequential_submission() {
        let parallel = populated_engine(4);
        let sequential = populated_engine(1);
        let uids: Vec<UserId> = (0..200).map(uid).collect();
        let a = parallel.cloak_batch(&uids);
        let b = sequential.cloak_batch(&uids);
        for (i, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                pa.as_ref().map(|r| r.rect),
                pb.as_ref().map(|r| r.rect),
                "user {i}: parallel cloak diverged"
            );
        }
    }

    #[test]
    fn execute_batch_fans_out_and_preserves_order() {
        let mut engine = populated_engine(4);
        let reqs: Vec<Request> = (0..100u64)
            .map(|i| Request::Cloak { uid: uid(i) })
            .collect();
        let resps = engine.execute_batch(reqs);
        assert_eq!(resps.len(), 100);
        for (i, resp) in resps.iter().enumerate() {
            match resp {
                Response::Cloaked(Some(_)) => {}
                other => panic!("request {i}: unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn single_lock_service_drives_the_same_engine() {
        let engine = ParallelEngine::new(RwLock::new(AdaptivePyramid::new(7)), 2);
        let users: Vec<(UserId, Profile, Point)> = (0..50)
            .map(|i| {
                (
                    uid(i),
                    Profile::new(2, 0.0),
                    Point::new(0.2 + i as f64 * 1e-3, 0.4),
                )
            })
            .collect();
        assert_eq!(engine.register_batch(users), 50);
        assert_eq!(engine.with_server(|s| s.private_count()), 50);
        let Response::Cloaked(Some(region)) = engine.submit(Request::Cloak { uid: uid(1) }) else {
            panic!("expected a cloak");
        };
        assert!(region.user_count >= 2);
    }
}
