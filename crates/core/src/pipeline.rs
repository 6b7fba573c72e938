//! The end-to-end Casper pipeline (Section 6.3): anonymizer → server →
//! transmission → client, with the per-component time breakdown of
//! Figure 17.
//!
//! The user tier exists once, in [`Pipeline`]: a `&self` core generic
//! over the trusted [`AnonymizerService`] and the [`ServerLink`] that
//! reaches the server tier. Two façades share it. [`Casper`] puts a
//! locked pyramid in front of an in-process [`ServerPlane`] (the paper's
//! measurement rig); [`RemoteCasper`] puts the locked pyramid in front of
//! the real TCP boundary of [`crate::net`] — and degrades gracefully when
//! that boundary fails: a cloaked update whose push fails stays owed by
//! the [`NetworkClient`], which replays it before its next exchange, and
//! queries report an explicit [`QueryOutcome::Degraded`] instead of
//! panicking.
//!
//! The pipeline is also where the paper's privacy guarantee is enforced
//! for both façades: a cloak crosses to the server tier only if it
//! satisfies its user's `(k, A_min)`. One that misses it (a `k` larger
//! than the population, say) is refused, fail private: it is audited
//! `served: false` with reason `fail_private`, and nothing is sent. A
//! user whose region was held back this way is pushed as soon as enough
//! users have registered to hide them.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use casper_geometry::{Point, Rect};
use casper_grid::{CloakedRegion, MaintenanceStats, Profile, PyramidStructure, UserId};
use casper_index::{Entry, ObjectId};
use casper_qp::{FilterCount, RangeAnswer};

use crate::engine::{AnonymizerService, Engine, Request, Response, ServerPlane};
use crate::net::{ClientConfig, NetError, NetworkClient};
use crate::overload::ShedReason;
use crate::sync::lock;
use crate::{CasperClient, CasperServer, Category, PrivateHandle, TransmissionModel};

/// Per-component timing of one end-to-end query — the three stacked bars
/// of Figure 17.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEndBreakdown {
    /// Time spent at the location anonymizer (cloaking).
    pub anonymizer: Duration,
    /// Time spent at the privacy-aware query processor.
    pub query: Duration,
    /// Modelled transmission time of the candidate list
    /// (64-byte records over 100 Mbps by default).
    pub transmission: Duration,
}

impl EndToEndBreakdown {
    /// Total end-to-end time.
    pub fn total(&self) -> Duration {
        self.anonymizer + self.query + self.transmission
    }
}

/// The outcome of one end-to-end private query.
#[derive(Debug, Clone)]
pub struct EndToEndAnswer {
    /// The exact answer, refined locally by the client.
    pub exact: Option<Entry>,
    /// Size of the candidate list that was transmitted.
    pub candidates: usize,
    /// Component timing.
    pub breakdown: EndToEndBreakdown,
    /// The trace this request's spans and audit record are filed under:
    /// the caller's trace when one was open, otherwise one minted at
    /// pipeline entry. When the trace is kept (head-sampled, slow or
    /// flagged), `casper_telemetry::spans().trace(trace_id)` — or
    /// `/trace/<id>` on the metrics listener — returns its spans.
    pub trace_id: u64,
}

/// The outcome of one query against a degradable pipeline.
#[derive(Debug)]
pub enum QueryOutcome {
    /// The server answered; the candidate list was refined locally.
    Answered(EndToEndAnswer),
    /// The server was unreachable within the retry budget. The
    /// anonymizer keeps serving: updates that cannot be delivered stay
    /// owed, and the caller can retry the query later.
    Degraded {
        /// Cloaked regions the server may lack: each user whose newest
        /// push failed (or whose region a server restart wiped) and has
        /// not been replayed yet.
        pending_updates: usize,
        /// The transport error that exhausted the retry budget.
        error: NetError,
        /// The trace id of the failed request. Degraded traces are always
        /// kept: `casper_telemetry::spans().trace(trace_id)` — or
        /// `/trace/<id>` on the metrics listener — returns its `query`
        /// span (outcome `degraded`, the pending count and the transport
        /// error as detail) and whatever the request went through first.
        trace_id: u64,
        /// The server boot id most recently observed by the transport,
        /// `None` before any successful exchange. After a failover this
        /// is the *promoted* server's boot id — the epoch the client will
        /// replay owed regions against, not the dead primary's.
        boot_id: Option<u64>,
    },
}

impl QueryOutcome {
    /// The answer, if the server was reachable.
    pub fn answered(self) -> Option<EndToEndAnswer> {
        match self {
            QueryOutcome::Answered(a) => Some(a),
            QueryOutcome::Degraded { .. } => None,
        }
    }

    /// Whether the outcome is degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, QueryOutcome::Degraded { .. })
    }

    /// The trace id of this request.
    pub fn trace_id(&self) -> u64 {
        match self {
            QueryOutcome::Answered(a) => a.trace_id,
            QueryOutcome::Degraded { trace_id, .. } => *trace_id,
        }
    }

    /// The server boot id a degraded outcome was observed against
    /// (`None` for answered outcomes or before any successful exchange).
    pub fn degraded_boot_id(&self) -> Option<u64> {
        match self {
            QueryOutcome::Answered(_) => None,
            QueryOutcome::Degraded { boot_id, .. } => *boot_id,
        }
    }
}

/// How a [`Pipeline`] reaches the server tier: the [`ServerPlane`]
/// itself (in-process, infallible) or a [`NetworkClient`] across the
/// wire. Implementations execute *server-tier* [`Request`]s only; the
/// core keeps user-tier requests on the trusted side.
pub(crate) trait ServerLink {
    /// Executes one server-tier request, or reports the transport error.
    fn call(&self, req: Request) -> Result<Response, NetError>;

    /// Cloaked regions the server may lack until the link replays them.
    fn pending(&self) -> usize {
        0
    }

    /// The server boot id most recently observed over this link, `None`
    /// for the in-process plane (no restart to detect) and before any
    /// successful exchange.
    fn server_boot(&self) -> Option<u64> {
        None
    }
}

impl ServerLink for ServerPlane {
    fn call(&self, req: Request) -> Result<Response, NetError> {
        Ok(self.execute(req))
    }
}

/// The wire link: every request rides the retrying [`NetworkClient`].
/// A region push that fails stays owed by the client, which replays it
/// before its next exchange, so a query still runs against current
/// state; failures surface as [`NetError`]s for the core to convert into
/// [`QueryOutcome::Degraded`]. The pipeline is the client's one owner, so
/// the lock is uncontended: it only gives the client the `&self`
/// interface the core calls.
impl ServerLink for Mutex<NetworkClient> {
    fn call(&self, req: Request) -> Result<Response, NetError> {
        let mut net = lock(self);
        match req {
            Request::UpsertRegion { handle, region, .. } => {
                // Sequencing across the wire belongs to the network
                // client (per-handle acks and replay), not the caller,
                // and so does a failed push: it stays owed.
                let _ = net.push_update(PrivateHandle(handle), region);
                Ok(Response::Done)
            }
            Request::RemoveRegion { handle } => {
                net.forget(PrivateHandle(handle));
                Ok(Response::Done)
            }
            Request::NnCandidates {
                pseudonym,
                region,
                category,
                ..
            } => {
                if category.is_some() {
                    return Err(NetError::Protocol(
                        "categorised queries are not in the wire protocol",
                    ));
                }
                let entries = net.query_nn(pseudonym, region)?;
                // Over a real socket the server's internal processing
                // time is not reported back; the caller's measured round
                // trip stands in for it.
                Ok(Response::Candidates {
                    entries,
                    processing: None,
                })
            }
            Request::Metrics => Ok(Response::MetricsPage(net.fetch_metrics()?)),
            _ => Err(NetError::Protocol("request has no wire representation")),
        }
    }

    fn pending(&self) -> usize {
        lock(self).owed_regions()
    }

    fn server_boot(&self) -> Option<u64> {
        lock(self).server_boot()
    }
}

/// The one trusted-tier pipeline behind [`Casper`] and [`RemoteCasper`]:
/// a trusted [`AnonymizerService`] in front of whatever [`ServerLink`]
/// reaches the server tier. Every method takes `&self`.
#[derive(Debug)]
pub(crate) struct Pipeline<A, L> {
    pub(crate) anonymizer: A,
    pub(crate) link: L,
    /// Wire pseudonyms: a fresh value per query, never the uid.
    next_pseudonym: AtomicU64,
    /// Users whose newest region was refused (fail private) and so has
    /// not reached the server tier.
    held: Mutex<BTreeSet<UserId>>,
}

impl<A: AnonymizerService, L: ServerLink> Pipeline<A, L> {
    pub(crate) fn new(anonymizer: A, link: L) -> Self {
        Self {
            anonymizer,
            link,
            next_pseudonym: AtomicU64::new(1),
            held: Mutex::new(BTreeSet::new()),
        }
    }

    /// Refreshes the server-side cloaked region after a trusted-tier
    /// mutation, if the new cloak may be released; otherwise the user is
    /// held back until [`release_held`](Self::release_held) can push it.
    fn push_region(&self, uid: UserId) {
        let Some(region) = self.anonymizer.cloak(uid) else {
            return;
        };
        let released = self.release(None, uid, &region);
        {
            let mut held = lock(&self.held);
            if released {
                held.remove(&uid);
            } else {
                held.insert(uid);
                return;
            }
        }
        let _ = self.link.call(Request::UpsertRegion {
            handle: uid.0,
            seq: 0, // link-assigned
            region: region.rect,
        });
    }

    /// After a registration: pushes every held-back user whose profile
    /// the whole population can now satisfy (Algorithm 1 can always climb
    /// to the root, which holds everyone in the unit square), and forgets
    /// the ones that signed off.
    fn release_held(&self) {
        let population = self.anonymizer.user_count() as u32;
        let mut ready = Vec::new();
        {
            let mut held = lock(&self.held);
            if held.is_empty() {
                return;
            }
            held.retain(|&uid| match self.anonymizer.profile_of(uid) {
                Some(p) if p.satisfied_by(population, 1.0) => {
                    ready.push(uid);
                    false
                }
                Some(_) => true,
                None => false,
            });
        }
        for uid in ready {
            self.push_region(uid);
        }
    }

    /// The single dispatch behind every façade's [`Engine::execute`]:
    /// user-tier requests stay on the trusted side, everything else goes
    /// through the link.
    pub(crate) fn execute(&self, req: Request) -> Response {
        match req {
            Request::Register { uid, profile, pos } => {
                let s = self.anonymizer.register(uid, profile, pos);
                self.push_region(uid);
                self.release_held();
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
                lock(&self.held).remove(&uid);
                let _ = self.link.call(Request::RemoveRegion { handle: uid.0 });
                Response::Done
            }
            Request::Cloak { uid } => Response::Cloaked(self.anonymizer.cloak(uid)),
            Request::QueryNn {
                uid,
                filters,
                category,
            } => Response::Outcome(self.query(
                uid,
                filters.unwrap_or(FilterCount::Four),
                category,
                false,
            )),
            Request::QueryNnPrivate { uid } => {
                Response::Outcome(self.query(uid, FilterCount::Four, None, true))
            }
            server_tier => self.link.call(server_tier).unwrap_or(Response::Unsupported(
                "the server link could not serve this request",
            )),
        }
    }

    /// The end-to-end query of Section 6.3 for both data kinds: cloak
    /// once → audit → one link call → modelled transmission → local
    /// refinement, with explicit degradation when the link fails.
    pub(crate) fn query(
        &self,
        uid: UserId,
        filters: FilterCount,
        category: Option<Category>,
        private_data: bool,
    ) -> Option<QueryOutcome> {
        // One trace id per query: join the caller's trace when a span is
        // current, otherwise mint one and root the trace here.
        // The answer, the stage records and the audit record carry it.
        let (trace_id, mut span) = match crate::tel::span_current() {
            Some(ctx) => (ctx.trace_id, crate::tel::span("query")),
            None => {
                let id = casper_telemetry::next_trace_id();
                (id, crate::tel::span_root(id, "query"))
            }
        };
        let t0 = Instant::now();
        let cloak_span = crate::tel::span("cloak");
        let cloaked = self.anonymizer.cloak(uid);
        drop(cloak_span);
        let anonymizer_time = t0.elapsed();
        let cloaked = cloaked?;
        if !self.release(Some(trace_id), uid, &cloaked) {
            span.set_outcome("fail_private");
            return None;
        }
        let region = cloaked.rect;
        crate::tel::record_stage("anonymizer", anonymizer_time);
        let filters = Some(filters);
        let req = if private_data {
            // The user's own cloaked region is stored too; drop it from
            // their buddy candidates.
            Request::NnPrivateCandidates {
                region,
                filters,
                exclude: Some(uid.0),
            }
        } else {
            Request::NnCandidates {
                pseudonym: self.next_pseudonym.fetch_add(1, Ordering::Relaxed),
                region,
                filters,
                category,
            }
        };
        let t1 = Instant::now();
        let mut link_span = crate::tel::span("server_link");
        let link_result = self.link.call(req);
        link_span.set_outcome(if link_result.is_ok() { "ok" } else { "error" });
        drop(link_span);
        let (entries, processing) = match link_result {
            Ok(Response::Candidates {
                entries,
                processing,
            }) => (entries, processing),
            Ok(_) => return None,
            Err(error) => {
                span.set_outcome("degraded");
                span.set_detail(format!("{} pending updates; {error}", self.link.pending()));
                // Degraded requests are always worth keeping.
                crate::tel::span_flag(trace_id);
                crate::tel::record_stage("query", t1.elapsed());
                crate::tel::record_degraded();
                // Read the boot id *after* the failed exchange: if the
                // transport failed over mid-request (multi-endpoint
                // client), any ack it saw from the promoted server has
                // already refreshed it, so the owed regions are reported
                // against the new epoch, not the dead one.
                return Some(QueryOutcome::Degraded {
                    pending_updates: self.link.pending(),
                    error,
                    trace_id,
                    boot_id: self.link.server_boot(),
                });
            }
        };
        // The in-process plane reports its processing time; over a real
        // socket only the measured round trip is known.
        let query_time = processing.unwrap_or_else(|| t1.elapsed());
        let transmission = TransmissionModel::default().time_for_records(entries.len());
        let refine_span = crate::tel::span("client_refine");
        let pos = self.anonymizer.position_of(uid)?;
        let exact = if private_data {
            CasperClient.refine_nn_private_entries(pos, &entries)
        } else {
            CasperClient.refine_nn_entries(pos, &entries)
        };
        drop(refine_span);
        crate::tel::record_stage("query", query_time);
        crate::tel::record_stage("transmission", transmission);
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

    /// The fail-private guard in front of the server tier: whether
    /// `region` may be released, i.e. satisfies its user's `(k, A_min)`.
    /// A cloak that misses the profile is refused: audited `served:
    /// false` with reason `fail_private`, counted, and its trace flagged
    /// so it is kept. Privacy fails closed; availability is what gives.
    /// A query passes its trace id, and a region it releases is audited
    /// `served: true`: those are the records the post-hoc
    /// [`casper_telemetry::PrivacyAuditor`] checks. A region push passes
    /// `None` and is audited only when refused, under the current trace.
    fn release(&self, query_trace: Option<u64>, uid: UserId, region: &CloakedRegion) -> bool {
        // No profile: the user signed off since the cloak was taken.
        let Some(profile) = self.anonymizer.profile_of(uid) else {
            return false;
        };
        let served = profile.satisfied_by(region.user_count, region.area());
        if served && query_trace.is_none() {
            return true;
        }
        let trace_id = query_trace
            .or_else(|| crate::tel::span_current().map(|ctx| ctx.trace_id))
            .unwrap_or(0);
        let reason = if served {
            ""
        } else {
            ShedReason::FailPrivate.label()
        };
        crate::tel::record_cloak_audit(
            trace_id,
            uid.0,
            profile.k,
            region.user_count,
            profile.a_min,
            region.area(),
            region.level,
            served,
            reason,
        );
        if !served {
            crate::tel::record_shed(reason);
            if trace_id != 0 {
                crate::tel::span_flag(trace_id);
            }
        }
        served
    }
}

/// The assembled Casper framework, server tier in-process.
///
/// Generic over the pyramid structure so harnesses can compare the basic
/// and adaptive anonymizers end to end.
#[derive(Debug)]
pub struct Casper<P: PyramidStructure> {
    core: Pipeline<RwLock<P>, ServerPlane>,
}

impl<P: PyramidStructure + Send + Sync> Casper<P> {
    /// Assembles the framework around `pyramid`, which becomes the
    /// trusted tier behind one lock (`Casper::new(AdaptivePyramid::new(9))`);
    /// the paper's defaults (4 filters, 64-byte records over 100 Mbps)
    /// apply.
    pub fn new(pyramid: P) -> Self {
        Self {
            core: Pipeline::new(
                RwLock::new(pyramid),
                ServerPlane::new(CasperServer::new(), FilterCount::Four, 1),
            ),
        }
    }

    /// Loads the public target objects (gas stations, restaurants, ...).
    pub fn load_targets(&mut self, targets: impl IntoIterator<Item = (ObjectId, Point)>) {
        self.core.link.write().load_public_targets(targets);
    }

    /// Registers a mobile user: exact data stay at the anonymizer; the
    /// server receives only the cloaked region under an opaque handle.
    pub fn register_user(&mut self, uid: UserId, profile: Profile, pos: Point) {
        self.core.execute(Request::Register { uid, profile, pos });
    }

    /// Processes a location update, refreshing the server-side cloaked
    /// region.
    pub fn move_user(&mut self, uid: UserId, pos: Point) -> MaintenanceStats {
        match self.core.execute(Request::UpdateLocation { uid, pos }) {
            Response::Maintained(s) => s,
            _ => MaintenanceStats::ZERO,
        }
    }

    /// Changes a user's privacy profile at runtime.
    pub fn change_profile(&mut self, uid: UserId, profile: Profile) {
        self.core.execute(Request::UpdateProfile { uid, profile });
    }

    /// Removes a user from the system entirely.
    pub fn sign_off(&mut self, uid: UserId) {
        self.core.execute(Request::SignOff { uid });
    }

    /// A private NN query over public data, end to end: cloak the
    /// querying user, run Algorithm 2, model the candidate-list
    /// transmission, refine locally at the client. `None` for unknown
    /// users, and for a user whose cloak misses their own profile: that
    /// region is never released (fail private).
    pub fn query_nn(&mut self, uid: UserId) -> Option<EndToEndAnswer> {
        self.query_nn_with(uid, FilterCount::Four)
    }

    /// [`Casper::query_nn`] with an explicit filter-count variant —
    /// the hook used by [`crate::FilterPolicy`]-driven deployments.
    pub fn query_nn_with(&mut self, uid: UserId, filters: FilterCount) -> Option<EndToEndAnswer> {
        self.core.query(uid, filters, None, false)?.answered()
    }

    /// A private NN query over *private* data ("where is my nearest
    /// buddy?"), end to end.
    pub fn query_nn_private(&mut self, uid: UserId) -> Option<EndToEndAnswer> {
        self.core
            .query(uid, FilterCount::Four, None, true)?
            .answered()
    }

    /// A public (administrator) count query over the private store: goes
    /// straight to the server, bypassing the anonymizer (Figure 1).
    pub fn admin_count(&self, area: &Rect) -> RangeAnswer {
        self.core.link.read().range_private(area)
    }

    /// The trusted tier: the pyramid behind its lock, read through
    /// [`AnonymizerService`] (harnesses, tests).
    pub fn anonymizer(&self) -> &RwLock<P> {
        &self.core.anonymizer
    }

    /// Read access to the server (harnesses, tests).
    pub fn server(&self) -> impl std::ops::Deref<Target = CasperServer> + '_ {
        self.core.link.read()
    }

    /// Mutable access to the server (e.g. categorised target loading).
    pub fn server_mut(&mut self) -> impl std::ops::DerefMut<Target = CasperServer> + '_ {
        self.core.link.write()
    }

    /// Enables or disables the server-tier candidate cache (on by
    /// default).
    pub fn with_query_cache(self, enabled: bool) -> Self {
        self.core.link.write().set_query_cache_enabled(enabled);
        self
    }

    /// Hit/miss/invalidation counters of the hosted server's candidate
    /// cache (`None` when disabled).
    pub fn cache_stats(&self) -> Option<casper_qp::cache::CacheStats> {
        self.core.link.read().cache_stats()
    }
}

impl<P: PyramidStructure + Send + Sync> Engine for Casper<P> {
    fn execute(&mut self, req: Request) -> Response {
        self.core.execute(req)
    }
}

/// The Casper framework with a *real* network boundary between the
/// trusted anonymizer and the privacy-aware server.
///
/// Exact user positions never cross the wire: the anonymizer runs
/// in-process (it is the trusted tier) and only cloaked regions and
/// pseudonymous queries travel through the [`NetworkClient`], which
/// retries, reconnects, and replays per its [`ClientConfig`].
///
/// While the server is unreachable the pipeline **degrades** instead of
/// failing: each user whose cloaked update could not be delivered stays
/// owed (latest wins, no cap, no expiry) and is replayed before the
/// next exchange with the server, and queries return
/// [`QueryOutcome::Degraded`].
#[derive(Debug)]
pub struct RemoteCasper<P: PyramidStructure> {
    core: Pipeline<RwLock<P>, Mutex<NetworkClient>>,
}

impl<P: PyramidStructure + Send + Sync> RemoteCasper<P> {
    /// Assembles the remote pipeline around `pyramid`, the trusted tier
    /// behind one lock, against a server address with the default
    /// [`ClientConfig`]. Connection is lazy: construction succeeds even
    /// while the server is down (updates stay owed until it comes up).
    pub fn new(pyramid: P, server: std::net::SocketAddr) -> Self {
        Self::with_config(pyramid, server, ClientConfig::default())
    }

    /// [`RemoteCasper::new`] with explicit client timeouts/retry policy.
    pub fn with_config(pyramid: P, server: std::net::SocketAddr, config: ClientConfig) -> Self {
        Self::over(pyramid, NetworkClient::with_config(server, config))
    }

    /// Assembles the remote pipeline against a *replicated* server tier:
    /// the transport starts on `endpoints[0]` and rotates to the next
    /// endpoint whenever an exchange fails or the server sheds it, so a
    /// standby promoted after primary death is reached without caller
    /// involvement. Boot-id change detection plus per-handle replay
    /// (§8) then rebuild the new server's state idempotently.
    ///
    /// Panics if `endpoints` is empty.
    pub fn with_endpoints(
        pyramid: P,
        endpoints: Vec<std::net::SocketAddr>,
        config: ClientConfig,
    ) -> Self {
        Self::over(pyramid, NetworkClient::with_endpoints(endpoints, config))
    }

    fn over(pyramid: P, net: NetworkClient) -> Self {
        Self {
            core: Pipeline::new(RwLock::new(pyramid), Mutex::new(net)),
        }
    }

    /// Registers a mobile user and pushes the cloaked region (owed if the
    /// push fails).
    pub fn register_user(&mut self, uid: UserId, profile: Profile, pos: Point) {
        self.core.execute(Request::Register { uid, profile, pos });
    }

    /// Processes a location update, refreshing the server-side cloaked
    /// region (owed if the push fails).
    pub fn move_user(&mut self, uid: UserId, pos: Point) -> MaintenanceStats {
        match self.core.execute(Request::UpdateLocation { uid, pos }) {
            Response::Maintained(s) => s,
            _ => MaintenanceStats::ZERO,
        }
    }

    /// Changes a user's privacy profile at runtime.
    pub fn change_profile(&mut self, uid: UserId, profile: Profile) {
        self.core.execute(Request::UpdateProfile { uid, profile });
    }

    /// Removes a user from the anonymizer and stops replaying its region.
    /// (The wire protocol has no removal message yet, so the server keeps
    /// the last region until it restarts or the handle is reused.)
    pub fn sign_off(&mut self, uid: UserId) {
        self.core.execute(Request::SignOff { uid });
    }

    /// Replays every owed cloaked region under the client's retry
    /// policy. Returns how many were owed.
    pub fn flush_pending(&mut self) -> Result<usize, NetError> {
        lock(&self.core.link).replay_owed()
    }

    /// A private NN query over public data through the real network
    /// boundary. Returns `None` for unknown users and for a cloak that
    /// misses its user's profile (nothing is sent: fail private); a
    /// reachable server yields [`QueryOutcome::Answered`], an unreachable
    /// one [`QueryOutcome::Degraded`].
    pub fn query_nn(&mut self, uid: UserId) -> Option<QueryOutcome> {
        self.core.query(uid, FilterCount::Four, None, false)
    }

    /// Users whose newest cloaked region the server may lack, awaiting
    /// a reachable server.
    pub fn pending_updates(&self) -> usize {
        self.core.link.pending()
    }

    /// The trusted tier: the pyramid behind its lock, read through
    /// [`AnonymizerService`] (harnesses, tests).
    pub fn anonymizer(&self) -> &RwLock<P> {
        &self.core.anonymizer
    }

    /// Client-side resilience counters of the underlying transport.
    pub fn net_stats(&self) -> crate::net::ClientStats {
        lock(&self.core.link).stats()
    }

    /// The server boot id last observed by the transport (`None` before
    /// the first acknowledged update). Changes exactly when the server
    /// tier restarts or fails over to a promoted standby.
    pub fn server_boot(&self) -> Option<u64> {
        self.core.link.server_boot()
    }
}

impl<P: PyramidStructure + Send + Sync> Engine for RemoteCasper<P> {
    fn execute(&mut self, req: Request) -> Response {
        self.core.execute(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_grid::{AdaptivePyramid, CompletePyramid};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    fn populated_casper() -> Casper<AdaptivePyramid> {
        let mut c = Casper::new(AdaptivePyramid::new(8));
        let mut rng = StdRng::seed_from_u64(1);
        c.load_targets((0..500).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        for i in 0..100 {
            c.register_user(
                uid(i),
                Profile::new(rng.gen_range(1..10), 0.0),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        c
    }

    #[test]
    fn query_nn_returns_true_nearest_target() {
        let mut c = populated_casper();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..20 {
            let answer = c.query_nn(uid(i)).unwrap();
            let pos = c.anonymizer().position_of(uid(i)).unwrap();
            // Verify against a brute-force scan over all 500 targets.
            let exact = answer.exact.unwrap();
            let exact_dist = exact.mbr.min.dist(pos);
            // Re-derive targets deterministically.
            let mut check_rng = StdRng::seed_from_u64(1);
            let best = (0..500)
                .map(|_| Point::new(check_rng.gen(), check_rng.gen()).dist(pos))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (exact_dist - best).abs() < 1e-9,
                "user {i}: refined {exact_dist} vs true {best}"
            );
            let _ = rng.gen::<f64>();
        }
    }

    /// The sharded trusted tier behind the same pipeline: refined answers
    /// are exact, and the plane's regions follow registration and
    /// sign-off.
    #[test]
    fn sharded_tier_answers_exactly_and_keeps_regions_in_step() {
        let mut c = Casper::new(crate::ShardedAnonymizer::new(8, 2));
        let mut rng = StdRng::seed_from_u64(3);
        let targets: Vec<Point> = (0..400).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        c.load_targets(
            targets
                .iter()
                .enumerate()
                .map(|(i, &p)| (ObjectId(i as u64), p)),
        );
        for i in 0..200 {
            let profile = Profile::new(rng.gen_range(1..8), 0.0);
            c.register_user(uid(i), profile, Point::new(rng.gen(), rng.gen()));
        }
        for i in 0..30 {
            let exact = c
                .query_nn(uid(i))
                .unwrap()
                .exact
                .expect("targets are loaded");
            let pos = c.anonymizer().position_of(uid(i)).unwrap();
            let best = targets
                .iter()
                .map(|t| t.dist(pos))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (exact.mbr.min.dist(pos) - best).abs() < 1e-9,
                "user {i}: refinement diverged from brute force"
            );
        }
        assert_eq!(c.server().private_count(), 200);
        c.sign_off(uid(0));
        assert_eq!(c.server().private_count(), 199);
        assert_eq!(c.anonymizer().user_count(), 199);
        // An admin count sees regions, never exact points.
        assert_eq!(c.admin_count(&Rect::unit()).max_count(), 199);
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let mut c = populated_casper();
        let a = c.query_nn(uid(0)).unwrap();
        assert!(a.candidates > 0);
        assert_eq!(
            a.breakdown.total(),
            a.breakdown.anonymizer + a.breakdown.query + a.breakdown.transmission
        );
        // Transmission = 512 bits per candidate at 100 Mbps.
        let expected = TransmissionModel::default().time_for_records(a.candidates);
        assert_eq!(a.breakdown.transmission, expected);
    }

    #[test]
    fn server_never_sees_exact_positions() {
        let mut c = Casper::new(CompletePyramid::new(7));
        c.register_user(uid(1), Profile::new(1, 0.0), Point::new(0.31, 0.62));
        // The stored private region is a full grid cell around the user.
        let ans = c.admin_count(&Rect::from_coords(0.3, 0.6, 0.35, 0.65));
        assert_eq!(ans.max_count(), 1);
        let region = &ans.overlapping[0].mbr;
        assert!(
            region.area() > 0.0,
            "server must hold a region, not a point"
        );
        assert!(region.contains(Point::new(0.31, 0.62)));
    }

    #[test]
    fn buddy_query_excludes_self() {
        let mut c = Casper::new(AdaptivePyramid::new(7));
        c.register_user(uid(1), Profile::new(1, 0.0), Point::new(0.5, 0.5));
        c.register_user(uid(2), Profile::new(1, 0.0), Point::new(0.52, 0.5));
        c.register_user(uid(3), Profile::new(1, 0.0), Point::new(0.9, 0.9));
        let a = c.query_nn_private(uid(1)).unwrap();
        let buddy = a.exact.unwrap();
        assert_ne!(buddy.id, ObjectId(1), "own region must be excluded");
        assert_eq!(buddy.id, ObjectId(2), "nearest buddy is user 2");
    }

    #[test]
    fn movement_refreshes_server_snapshot() {
        let mut c = Casper::new(CompletePyramid::new(7));
        c.register_user(uid(1), Profile::new(1, 0.0), Point::new(0.1, 0.1));
        assert_eq!(
            c.admin_count(&Rect::from_coords(0.0, 0.0, 0.2, 0.2))
                .max_count(),
            1
        );
        c.move_user(uid(1), Point::new(0.9, 0.9));
        assert_eq!(
            c.admin_count(&Rect::from_coords(0.0, 0.0, 0.2, 0.2))
                .max_count(),
            0
        );
        assert_eq!(
            c.admin_count(&Rect::from_coords(0.8, 0.8, 1.0, 1.0))
                .max_count(),
            1
        );
        c.sign_off(uid(1));
        assert_eq!(c.server().private_count(), 0);
    }

    #[test]
    fn stricter_profiles_yield_larger_candidate_lists() {
        let mut relaxed = Casper::new(CompletePyramid::new(8));
        let mut strict = Casper::new(CompletePyramid::new(8));
        let mut rng = StdRng::seed_from_u64(5);
        let targets: Vec<(ObjectId, Point)> = (0..2000)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        relaxed.load_targets(targets.iter().copied());
        strict.load_targets(targets.iter().copied());
        let positions: Vec<Point> = (0..200).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        for (i, &p) in positions.iter().enumerate() {
            relaxed.register_user(uid(i as u64), Profile::new(1, 0.0), p);
            strict.register_user(uid(i as u64), Profile::new(100, 0.0), p);
        }
        let mut total_relaxed = 0usize;
        let mut total_strict = 0usize;
        for i in 0..50 {
            total_relaxed += relaxed.query_nn(uid(i)).unwrap().candidates;
            total_strict += strict.query_nn(uid(i)).unwrap().candidates;
        }
        assert!(
            total_strict > total_relaxed,
            "strict {total_strict} should exceed relaxed {total_relaxed}"
        );
    }

    #[test]
    fn trace_ids_are_minted_and_unique() {
        let mut c = populated_casper();
        let a = c.query_nn(uid(0)).unwrap();
        let b = c.query_nn_private(uid(1)).unwrap();
        assert_ne!(a.trace_id, 0, "trace ids start at 1");
        assert_ne!(a.trace_id, b.trace_id, "each request gets its own id");
    }

    /// A user whose `k` exceeds the population is held back, and pushed
    /// by the registration that makes the population large enough.
    #[test]
    fn a_held_region_is_pushed_once_the_population_can_hide_it() {
        let mut c = Casper::new(CompletePyramid::new(7));
        c.register_user(uid(1), Profile::new(3, 0.0), Point::new(0.2, 0.2));
        c.register_user(uid(2), Profile::new(1, 0.0), Point::new(0.8, 0.8));
        assert_eq!(c.server().private_count(), 1, "user 1 was released early");
        c.register_user(uid(3), Profile::new(1, 0.0), Point::new(0.6, 0.1));
        let stored: Vec<Rect> = c
            .server()
            .private_entries()
            .into_iter()
            .filter(|e| e.id == ObjectId(1))
            .map(|e| e.mbr)
            .collect();
        let cloak = c.anonymizer().cloak(uid(1)).unwrap();
        assert!(cloak.user_count >= 3);
        assert_eq!(stored, vec![cloak.rect]);
        // Signing off a held user forgets them.
        c.register_user(uid(4), Profile::new(9, 0.0), Point::new(0.4, 0.4));
        c.sign_off(uid(4));
        assert!(lock(&c.core.held).is_empty());
    }

    #[test]
    fn unknown_user_query_is_none() {
        let mut c = Casper::new(CompletePyramid::new(6));
        assert!(c.query_nn(uid(404)).is_none());
        assert!(c.query_nn_private(uid(404)).is_none());
    }

    #[test]
    fn engine_requests_match_method_calls() {
        // The typed request plane and the method API are the same code
        // path; drive one Casper through each and compare.
        let mut via_methods = Casper::new(AdaptivePyramid::new(7));
        let mut via_engine = Casper::new(AdaptivePyramid::new(7));
        let mut rng = StdRng::seed_from_u64(9);
        let targets: Vec<(ObjectId, Point)> = (0..100)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        via_methods.load_targets(targets.iter().copied());
        via_engine.load_targets(targets.iter().copied());
        for i in 0..20u64 {
            let pos = Point::new(rng.gen(), rng.gen());
            via_methods.register_user(uid(i), Profile::new(3, 0.0), pos);
            via_engine.execute(Request::Register {
                uid: uid(i),
                profile: Profile::new(3, 0.0),
                pos,
            });
        }
        for i in 0..20u64 {
            let a = via_methods.query_nn(uid(i)).unwrap();
            let Response::Outcome(Some(QueryOutcome::Answered(b))) =
                via_engine.execute(Request::QueryNn {
                    uid: uid(i),
                    filters: None,
                    category: None,
                })
            else {
                panic!("engine query failed for user {i}");
            };
            assert_eq!(a.exact.map(|e| e.id), b.exact.map(|e| e.id));
            assert_eq!(a.candidates, b.candidates);
        }
    }

    /// A server link that records each query's wire pseudonym and
    /// answers with an empty candidate list.
    #[derive(Default)]
    struct RecordingLink(Mutex<Vec<u64>>);

    impl ServerLink for RecordingLink {
        fn call(&self, req: Request) -> Result<Response, NetError> {
            if let Request::NnCandidates { pseudonym, .. } = req {
                lock(&self.0).push(pseudonym);
                return Ok(Response::Candidates {
                    entries: Vec::new(),
                    processing: None,
                });
            }
            Ok(Response::Done)
        }
    }

    #[test]
    fn every_query_carries_a_fresh_pseudonym() {
        // The pseudonym is what the untrusted server sees in place of the
        // user: it must never repeat (sequential queries stay unlinkable)
        // and never be the uid.
        let core = Pipeline::new(
            RwLock::new(AdaptivePyramid::new(7)),
            RecordingLink::default(),
        );
        let user = uid(1_000);
        core.execute(Request::Register {
            uid: user,
            profile: Profile::new(1, 0.0),
            pos: Point::new(0.3, 0.6),
        });
        for _ in 0..10 {
            let outcome = core.query(user, FilterCount::Four, None, false).unwrap();
            assert!(!outcome.is_degraded());
        }
        let seen = lock(&core.link.0);
        assert_eq!(seen.len(), 10);
        let distinct: std::collections::HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), 10, "pseudonym reuse: {:?}", *seen);
        assert!(!distinct.contains(&user.0), "the uid reached the wire");
    }

    use crate::net::NetworkServer;
    use crate::retry::RetryPolicy;

    fn fast_client_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            retry: RetryPolicy {
                max_retries: 4,
                base_delay: Duration::from_millis(5),
                multiplier: 1.5,
                max_delay: Duration::from_millis(50),
                jitter: 0.2,
            },
            jitter_seed: 11,
            ..ClientConfig::default()
        }
    }

    /// One seeded script — register, move, profile change, sign-off —
    /// through both façades of the one pipeline: `Casper`, and
    /// `RemoteCasper` against a live server, both via [`Engine::execute`].
    /// Both must give the same answers.
    #[test]
    fn remote_pipeline_matches_local_answers() {
        const USERS: u64 = 40;
        let signed_off = [5u64, 17, 33];
        let mut rng = StdRng::seed_from_u64(21);
        let targets: Vec<(ObjectId, Point)> = (0..300)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let mut script: Vec<Request> = (0..USERS)
            .map(|i| Request::Register {
                uid: uid(i),
                profile: Profile::new(3, 0.0),
                pos: Point::new(rng.gen(), rng.gen()),
            })
            .collect();
        script.extend((0..USERS).step_by(3).map(|i| Request::UpdateLocation {
            uid: uid(i),
            pos: Point::new(rng.gen(), rng.gen()),
        }));
        script.extend((0..USERS).step_by(7).map(|i| Request::UpdateProfile {
            uid: uid(i),
            profile: Profile::new(8, 0.01),
        }));
        script.extend(signed_off.map(|i| Request::SignOff { uid: uid(i) }));

        let mut local = Casper::new(AdaptivePyramid::new(8));
        local.load_targets(targets.iter().copied());
        let mut backend = CasperServer::new();
        backend.load_public_targets(targets.iter().copied());
        let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
        let mut remote = RemoteCasper::new(AdaptivePyramid::new(8), server.addr());

        for req in &script {
            local.execute(req.clone());
            remote.execute(req.clone());
        }
        assert_eq!(remote.pending_updates(), 0, "server is up: nothing queued");
        let answer = |resp: Response| match resp {
            Response::Outcome(Some(QueryOutcome::Answered(a))) => {
                (a.exact.map(|e| e.id), a.candidates)
            }
            other => panic!("expected an answer, got {other:?}"),
        };
        for i in (0..USERS).filter(|i| !signed_off.contains(i)) {
            let nn = Request::QueryNn {
                uid: uid(i),
                filters: None,
                category: None,
            };
            let buddy = Request::QueryNnPrivate { uid: uid(i) };
            let want_nn = answer(remote.execute(nn.clone()));
            assert_eq!(answer(local.execute(nn)), want_nn, "user {i}");
            assert!(
                matches!(
                    local.execute(buddy),
                    Response::Outcome(Some(QueryOutcome::Answered(_)))
                ),
                "user {i}: buddy query"
            );
        }

        assert_eq!(
            local.server().private_count(),
            (USERS as usize) - signed_off.len()
        );
        // The wire has no removal message: the remote server keeps the
        // signed-off users' last regions.
        assert_eq!(server.with_server(|s| s.private_count()), USERS as usize);
        server.shutdown();
    }

    #[test]
    fn remote_pipeline_degrades_and_heals() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let addr = server.addr();
        let mut remote =
            RemoteCasper::with_config(AdaptivePyramid::new(7), addr, fast_client_config());
        for i in 0..10u64 {
            remote.register_user(
                uid(i),
                Profile::new(2, 0.0),
                Point::new(0.05 + i as f64 / 20.0, 0.5),
            );
        }
        assert_eq!(server.with_server(|s| s.private_count()), 10);
        // Kill the server: movement keeps working, updates stay owed,
        // queries degrade explicitly instead of panicking or hanging.
        server.shutdown();
        for i in 0..10u64 {
            remote.move_user(uid(i), Point::new(0.05 + i as f64 / 20.0, 0.25));
        }
        assert_eq!(remote.pending_updates(), 10);
        let outcome = remote.query_nn(uid(0)).unwrap();
        assert!(outcome.is_degraded(), "expected Degraded: {outcome:?}");
        assert_ne!(outcome.trace_id(), 0, "degraded outcomes carry a trace id");
        // Revive the server on the same address: the next query replays
        // the owed regions and answers.
        let revived = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            crate::net::ServerConfig {
                bind: addr,
                ..crate::net::ServerConfig::default()
            },
        )
        .unwrap();
        revived.with_server_mut(|s| {
            s.load_public_targets((0..50u64).map(|i| {
                (
                    ObjectId(i),
                    Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
                )
            }))
        });
        let outcome = remote.query_nn(uid(0)).unwrap();
        assert!(!outcome.is_degraded(), "expected recovery: {outcome:?}");
        assert_eq!(remote.pending_updates(), 0);
        assert_eq!(revived.with_server(|s| s.private_count()), 10);
        revived.shutdown();
    }

    #[test]
    fn degraded_boot_id_tracks_failover() {
        // Two server-tier instances with pinned boot ids stand in for a
        // primary and its promoted standby.
        let a = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            crate::net::ServerConfig {
                boot_id: Some(11),
                ..crate::net::ServerConfig::default()
            },
        )
        .unwrap();
        let b = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            crate::net::ServerConfig {
                boot_id: Some(22),
                ..crate::net::ServerConfig::default()
            },
        )
        .unwrap();
        let cfg = ClientConfig {
            retry: RetryPolicy::no_retry(),
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        let mut remote =
            RemoteCasper::with_endpoints(AdaptivePyramid::new(6), vec![a.addr(), b.addr()], cfg);
        remote.register_user(uid(1), Profile::new(1, 0.0), Point::new(0.2, 0.2));
        assert_eq!(remote.server_boot(), Some(11), "primary acked first");
        // Primary dies: the next update fails against it, rotates the
        // transport to the standby endpoint, and stays owed.
        a.shutdown();
        remote.move_user(uid(1), Point::new(0.4, 0.4));
        assert_eq!(remote.pending_updates(), 1);
        assert!(remote.net_stats().failovers >= 1);
        // The following delivery lands on the standby, whose ack carries
        // the new boot id and triggers §8 replay.
        remote.move_user(uid(1), Point::new(0.5, 0.5));
        assert_eq!(remote.pending_updates(), 0, "flushed to the standby");
        assert_eq!(remote.server_boot(), Some(22), "new epoch observed");
        // The standby dies too. The degraded outcome must report the
        // *promoted* boot id (22), not the dead primary's (11) — that is
        // the epoch a continuous monitor has to resubscribe against.
        b.shutdown();
        remote.move_user(uid(1), Point::new(0.6, 0.6));
        assert_eq!(remote.pending_updates(), 1);
        let outcome = remote.query_nn(uid(1)).unwrap();
        assert!(outcome.is_degraded(), "both endpoints down: {outcome:?}");
        assert_eq!(outcome.degraded_boot_id(), Some(22));
        assert_eq!(
            remote.pending_updates(),
            1,
            "the newest region is still owed"
        );
    }
}
