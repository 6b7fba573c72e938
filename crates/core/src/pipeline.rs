//! The end-to-end Casper pipeline (Section 6.3): anonymizer → server →
//! transmission → client, with the per-component time breakdown of
//! Figure 17.
//!
//! Both assemblies here are thin shells around one [`PipelineCore`]
//! that executes the typed [`Request`] vocabulary of [`crate::engine`]:
//! [`Casper`] runs the server tier in-process through a
//! [`crate::engine::ServerPlane`] (the paper's measurement rig), while
//! [`RemoteCasper`] reaches the *same* server semantics through the
//! real TCP boundary of [`crate::net`] — and degrades gracefully when
//! that boundary fails: cloaked updates queue in a bounded buffer while
//! the server is unreachable and flush on reconnect, and queries report
//! an explicit [`QueryOutcome::Degraded`] instead of panicking.
//!
//! The difference between "local" and "remote" is entirely the
//! [`ServerLink`] each core carries; the per-request dispatch exists
//! once, in [`PipelineCore::execute`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use casper_anonymizer::Anonymizer;
use casper_geometry::{Point, Rect};
use casper_grid::{MaintenanceStats, Profile, PyramidStructure, UserId};
use casper_index::{Entry, ObjectId};
use casper_qp::{FilterCount, RangeAnswer};

use crate::engine::{Engine, Request, Response, ServerPlane};
use crate::net::{ClientConfig, NetError, NetworkClient};
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
    /// The trace id minted for this request at pipeline entry; the
    /// per-stage spans of this request are recorded in the flight
    /// recorder under this id.
    pub trace_id: u64,
}

/// Default bound on the [`RemoteCasper`] pending-update buffer.
pub const DEFAULT_PENDING_CAP: usize = 10_000;

/// The outcome of one query against a degradable pipeline.
#[derive(Debug)]
pub enum QueryOutcome {
    /// The server answered; the candidate list was refined locally.
    Answered(EndToEndAnswer),
    /// The server was unreachable within the retry budget. The
    /// anonymizer keeps serving: updates are queued (bounded) and the
    /// caller can retry the query later.
    Degraded {
        /// Cloaked updates currently parked in the pending buffer.
        pending_updates: usize,
        /// The transport error that exhausted the retry budget.
        error: NetError,
        /// The trace id of the failed request:
        /// `casper_telemetry::flight().dump_trace(trace_id)` reconstructs
        /// what the request went through before degrading.
        trace_id: u64,
        /// The server boot id most recently observed by the transport,
        /// `None` before any successful exchange. After a failover this
        /// is the *promoted* server's boot id — pending entries that
        /// expire mid-failover report the epoch the client will replay
        /// against, not the dead primary's.
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

    /// The trace id minted for this request at pipeline entry.
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

/// A server-tier request failed at the transport. `stage` names the
/// pipeline stage that failed ("net_flush" or "query") for telemetry and
/// degradation reporting.
#[derive(Debug)]
pub(crate) struct LinkFailure {
    pub(crate) stage: &'static str,
    pub(crate) error: NetError,
}

/// How a [`PipelineCore`] reaches the server tier: in-process through a
/// [`ServerPlane`] ([`LocalLink`]) or across the wire with buffering and
/// degradation ([`RemoteLink`]). Implementations execute *server-tier*
/// [`Request`]s only; the core keeps user-tier requests on the trusted
/// side.
pub(crate) trait ServerLink {
    /// Executes one server-tier request, or reports the failed stage.
    fn execute(&mut self, req: Request) -> Result<Response, LinkFailure>;

    /// Updates currently buffered while the server is unreachable.
    fn pending(&self) -> usize {
        0
    }

    /// The server boot id most recently observed over this link, `None`
    /// for in-process links (no restart to detect) and before any
    /// successful exchange.
    fn server_boot(&self) -> Option<u64> {
        None
    }

    /// Pins the deadline governing subsequent operations (transport
    /// links stamp it into frames and bound their retries). In-process
    /// links ignore it: there is no queueing between them and the plane.
    fn set_deadline(&mut self, _deadline: Option<Instant>) {}
}

/// The in-process link: every request goes straight to the one
/// [`ServerPlane`]. Infallible.
#[derive(Debug)]
pub(crate) struct LocalLink {
    pub(crate) plane: ServerPlane,
}

impl ServerLink for LocalLink {
    fn execute(&mut self, req: Request) -> Result<Response, LinkFailure> {
        Ok(self.plane.execute(req))
    }
}

/// The wire link: region upserts land in a bounded latest-wins buffer
/// that is flushed whenever the transport cooperates, queries ride the
/// retrying [`NetworkClient`], and failures surface as [`LinkFailure`]s
/// for the core to convert into [`QueryOutcome::Degraded`].
#[derive(Debug)]
pub(crate) struct RemoteLink {
    net: NetworkClient,
    /// Cloaked updates awaiting a reachable server: `handle → (region,
    /// queued-at)`, latest-wins per handle.
    pending: BTreeMap<u64, (Rect, Instant)>,
    pending_cap: usize,
    /// Maximum age a queued update may reach before it is dropped as
    /// stale instead of delivered. `None` (the default) keeps entries
    /// until flushed or evicted by the cap.
    pending_ttl: Option<Duration>,
    dropped_updates: u64,
    overwritten_updates: u64,
    expired_updates: u64,
    pending_high_water: usize,
}

impl RemoteLink {
    fn new(server: std::net::SocketAddr, config: ClientConfig) -> Self {
        Self {
            net: NetworkClient::with_config(server, config),
            pending: BTreeMap::new(),
            pending_cap: DEFAULT_PENDING_CAP,
            pending_ttl: None,
            dropped_updates: 0,
            overwritten_updates: 0,
            expired_updates: 0,
            pending_high_water: 0,
        }
    }

    /// Drops queued updates whose age exceeds the pending TTL. Under
    /// overload a long outage makes queued regions worthless — the user
    /// has moved on and a fresher region will be cloaked at the next
    /// update — so delivering them late only adds load to a recovering
    /// server. Dropping is privacy-safe: the server keeps the previous
    /// (still k-anonymous) region; only freshness is lost.
    fn expire_stale(&mut self) {
        let Some(ttl) = self.pending_ttl else {
            return;
        };
        let now = Instant::now();
        let before = self.pending.len();
        self.pending
            .retain(|_, (_, queued)| now.duration_since(*queued) <= ttl);
        let expired = before - self.pending.len();
        if expired > 0 {
            self.expired_updates += expired as u64;
            for _ in 0..expired {
                crate::tel::record_pending_expired();
            }
        }
    }

    /// Parks a cloaked region in the bounded latest-wins buffer and
    /// attempts delivery. Transport failures are absorbed: the region
    /// stays queued.
    fn buffer_region(&mut self, handle: u64, region: Rect) {
        self.expire_stale();
        if !self.pending.contains_key(&handle) && self.pending.len() >= self.pending_cap {
            // Bounded buffer: evict the oldest queued handle. Its region
            // is stale-but-k-anonymous on the server; we only lose
            // freshness, never privacy.
            if let Some((&evicted, _)) = self.pending.iter().next() {
                self.pending.remove(&evicted);
                self.dropped_updates += 1;
                crate::tel::record_pending_drop();
            }
        }
        if self
            .pending
            .insert(handle, (region, Instant::now()))
            .is_some()
        {
            // Latest-wins coalescing: a queued region for this user was
            // replaced before it ever reached the server. Invisible in
            // `pending.len()`, so it gets its own counter.
            self.overwritten_updates += 1;
            crate::tel::record_pending_overwrite();
        }
        self.pending_high_water = self.pending_high_water.max(self.pending.len());
        crate::tel::record_pending_depth(self.pending.len());
        let _ = self.flush();
    }

    /// Delivers every queued cloaked update as one batch — up to
    /// [`ClientConfig::pipeline_window`] frames in flight, acks streaming
    /// back. Returns how many were flushed. A failed batch leaves every
    /// entry queued; re-delivery later (with fresh per-handle seqs) is
    /// idempotent, so over-delivery is safe and under-delivery is
    /// retried.
    fn flush(&mut self) -> Result<usize, NetError> {
        self.expire_stale();
        let batch: Vec<(PrivateHandle, Rect)> = self
            .pending
            .iter()
            .map(|(&handle, &(region, _))| (PrivateHandle(handle), region))
            .collect();
        let result = self.net.push_updates(&batch).map(|()| {
            self.pending.clear();
            batch.len()
        });
        crate::tel::record_pending_depth(self.pending.len());
        result
    }
}

impl ServerLink for RemoteLink {
    fn execute(&mut self, req: Request) -> Result<Response, LinkFailure> {
        match req {
            Request::UpsertRegion { handle, region, .. } => {
                // Sequencing across the wire belongs to the network
                // client (per-handle acks and replay), not the caller.
                self.buffer_region(handle, region);
                Ok(Response::Done)
            }
            Request::RemoveRegion { handle } => {
                self.pending.remove(&handle);
                crate::tel::record_pending_depth(self.pending.len());
                self.net.forget(PrivateHandle(handle));
                Ok(Response::Done)
            }
            Request::NnCandidates {
                pseudonym,
                region,
                category,
                ..
            } => {
                if category.is_some() {
                    return Err(LinkFailure {
                        stage: "query",
                        error: NetError::Protocol(
                            "categorised queries are not in the wire protocol",
                        ),
                    });
                }
                // Deliver queued updates first so the query runs against
                // current state; failure means the server is unreachable.
                self.flush().map_err(|error| LinkFailure {
                    stage: "net_flush",
                    error,
                })?;
                let entries =
                    self.net
                        .query_nn(pseudonym, region)
                        .map_err(|error| LinkFailure {
                            stage: "query",
                            error,
                        })?;
                // Over a real socket the server's internal processing
                // time is not reported back; the caller's measured round
                // trip stands in for it.
                Ok(Response::Candidates {
                    entries,
                    processing: None,
                })
            }
            Request::Metrics => {
                let page = self.net.fetch_metrics().map_err(|error| LinkFailure {
                    stage: "query",
                    error,
                })?;
                Ok(Response::MetricsPage(page))
            }
            _ => Err(LinkFailure {
                stage: "query",
                error: NetError::Protocol("request has no wire representation"),
            }),
        }
    }

    fn pending(&self) -> usize {
        self.pending.len()
    }

    fn server_boot(&self) -> Option<u64> {
        self.net.server_boot()
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.net.set_deadline(deadline);
    }
}

/// The one pipeline: a trusted [`Anonymizer`] in front of whatever
/// [`ServerLink`] reaches the server tier. All per-request dispatch —
/// local and remote alike — lives in [`PipelineCore::execute`].
#[derive(Debug)]
struct PipelineCore<P: PyramidStructure, L: ServerLink> {
    anonymizer: Anonymizer<P>,
    link: L,
    client: CasperClient,
    transmission: TransmissionModel,
    filters: FilterCount,
    /// End-to-end budget granted to each request at pipeline entry.
    /// `None` (the default) leaves operations unbounded.
    request_budget: Option<Duration>,
}

impl<P: PyramidStructure, L: ServerLink> PipelineCore<P, L> {
    fn new(anonymizer: Anonymizer<P>, link: L) -> Self {
        Self {
            anonymizer,
            link,
            client: CasperClient::new(),
            transmission: TransmissionModel::default(),
            filters: FilterCount::Four,
            request_budget: None,
        }
    }

    /// Arms the link with this request's deadline (when a budget is
    /// configured) so every downstream hop can drop doomed work early.
    fn arm_deadline(&mut self) {
        if let Some(budget) = self.request_budget {
            self.link.set_deadline(Some(Instant::now() + budget));
        }
    }

    /// Refreshes the server-side cloaked region after a trusted-tier
    /// mutation.
    fn push_region(&mut self, uid: UserId) {
        if let Some(region) = self.anonymizer.cloak_region_of(uid) {
            let _ = self.link.execute(Request::UpsertRegion {
                handle: uid.0,
                seq: 0, // link-assigned
                region: region.rect,
            });
        }
    }

    /// The single dispatch behind [`Engine::execute`] for both
    /// assemblies.
    fn execute(&mut self, req: Request) -> Response {
        self.arm_deadline();
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
                let _ = self.link.execute(Request::RemoveRegion { handle: uid.0 });
                Response::Done
            }
            Request::Cloak { uid } => Response::Cloaked(self.anonymizer.cloak_region_of(uid)),
            Request::QueryNn {
                uid,
                filters,
                category,
            } => {
                Response::Outcome(self.query(uid, filters.unwrap_or(self.filters), category, false))
            }
            Request::QueryNnPrivate { uid } => {
                Response::Outcome(self.query(uid, self.filters, None, true))
            }
            server_tier => match self.link.execute(server_tier) {
                Ok(resp) => resp,
                Err(_) => Response::Unsupported("the server link could not serve this request"),
            },
        }
    }

    /// The end-to-end query pipeline of Section 6.3, shared by the
    /// public- and private-data flavours and by both links: cloak →
    /// flush/query through the link → modelled transmission → local
    /// refinement, with the full telemetry choreography and explicit
    /// degradation on link failure.
    fn query(
        &mut self,
        uid: UserId,
        filters: FilterCount,
        category: Option<Category>,
        private_data: bool,
    ) -> Option<QueryOutcome> {
        let trace_id = casper_telemetry::next_trace_id();
        // The trace root: the cloak, link, and refinement children below —
        // and the server-side tree grafted on over the wire — all hang off
        // this span. Dropping it ends the trace and decides tail-keep.
        let mut root = crate::tel::span_root(trace_id, "query");
        self.arm_deadline();
        let t0 = Instant::now();
        let cloak_span = crate::tel::span("cloak");
        let query = self.anonymizer.cloak_query(uid)?;
        drop(cloak_span);
        let anonymizer_time = t0.elapsed();
        crate::tel::record_stage(trace_id, "anonymizer", "ok", anonymizer_time);
        // Audit plane: the served cloak decision, with the full trusted-side
        // metadata (achieved k, area, level) the wire-facing query hides.
        if let (Some(profile), Some(region)) = (
            self.anonymizer.pyramid().profile_of(uid),
            self.anonymizer.cloak_region_of(uid),
        ) {
            crate::tel::record_cloak_audit(
                trace_id,
                uid.0,
                profile.k,
                region.user_count,
                profile.a_min,
                region.rect.area(),
                region.level,
                0,
                true,
                "",
            );
        }
        let req = if private_data {
            Request::NnPrivateCandidates {
                region: query.region,
                filters: Some(filters),
                // The user's own cloaked region is stored too; drop it
                // from her buddy candidates.
                exclude: Some(uid.0),
            }
        } else {
            Request::NnCandidates {
                pseudonym: query.pseudonym.0,
                region: query.region,
                filters: Some(filters),
                category,
            }
        };
        let t1 = Instant::now();
        let mut link_span = crate::tel::span("server_link");
        let link_result = self.link.execute(req);
        link_span.set_outcome(if link_result.is_ok() { "ok" } else { "error" });
        drop(link_span);
        let (entries, processing) = match link_result {
            Ok(Response::Candidates {
                entries,
                processing,
            }) => (entries, processing),
            Ok(_) => {
                self.anonymizer.resolve(query.pseudonym);
                return None;
            }
            Err(LinkFailure { stage, error }) => {
                self.anonymizer.resolve(query.pseudonym);
                root.set_outcome("degraded");
                // Degraded requests are always worth keeping.
                crate::tel::span_flag(trace_id);
                crate::tel::record_stage(trace_id, stage, "error", t1.elapsed());
                crate::tel::record_degraded(trace_id, self.link.pending(), &error.to_string());
                // Read the boot id *after* the failed exchange: if the
                // transport failed over mid-request (multi-endpoint
                // client), any ack it saw from the promoted server has
                // already refreshed it, so expiring pending entries are
                // reported against the new epoch, not the dead one.
                return Some(QueryOutcome::Degraded {
                    pending_updates: self.link.pending(),
                    error,
                    trace_id,
                    boot_id: self.link.server_boot(),
                });
            }
        };
        // In-process links report the server's processing time; over a
        // real socket only the measured round trip is known.
        let query_time = processing.unwrap_or_else(|| t1.elapsed());
        let transmission = self.transmission.time_for_records(entries.len());
        let refine_span = crate::tel::span("client_refine");
        let pos = self.anonymizer.pyramid().position_of(uid)?;
        let exact = if private_data {
            self.client.refine_nn_private_entries(pos, &entries)
        } else {
            self.client.refine_nn_entries(pos, &entries)
        };
        drop(refine_span);
        self.anonymizer.resolve(query.pseudonym);
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
}

/// The assembled Casper framework, server tier in-process.
///
/// Generic over the pyramid structure so harnesses can compare the basic
/// and adaptive anonymizers end to end.
#[derive(Debug)]
pub struct Casper<P: PyramidStructure> {
    core: PipelineCore<P, LocalLink>,
}

impl<P: PyramidStructure> Casper<P> {
    /// Assembles the framework around an anonymizer; the paper's defaults
    /// (4 filters, 64-byte records over 100 Mbps) apply.
    pub fn new(anonymizer: Anonymizer<P>) -> Self {
        Self {
            core: PipelineCore::new(
                anonymizer,
                LocalLink {
                    plane: ServerPlane::new(CasperServer::new(), FilterCount::Four, 1),
                },
            ),
        }
    }

    /// Overrides the filter-count variant of the query processor.
    pub fn with_filters(mut self, filters: FilterCount) -> Self {
        self.core.filters = filters;
        self
    }

    /// Overrides the transmission model.
    pub fn with_transmission(mut self, model: TransmissionModel) -> Self {
        self.core.transmission = model;
        self
    }

    /// Loads the public target objects (gas stations, restaurants, ...).
    pub fn load_targets(&mut self, targets: impl IntoIterator<Item = (ObjectId, Point)>) {
        self.core.link.plane.write().load_public_targets(targets);
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
    /// transmission, refine locally at the client.
    pub fn query_nn(&mut self, uid: UserId) -> Option<EndToEndAnswer> {
        self.query_nn_with(uid, self.core.filters)
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
            .query(uid, self.core.filters, None, true)?
            .answered()
    }

    /// A public (administrator) count query over the private store: goes
    /// straight to the server, bypassing the anonymizer (Figure 1).
    pub fn admin_count(&self, area: &Rect) -> RangeAnswer {
        match self
            .core
            .link
            .plane
            .execute(Request::AdminCount { area: *area })
        {
            Response::Count(ans) => ans,
            _ => unreachable!("the plane always counts"),
        }
    }

    /// Read access to the anonymizer (harnesses, tests).
    pub fn anonymizer(&self) -> &Anonymizer<P> {
        &self.core.anonymizer
    }

    /// The configured filter-count variant.
    pub fn filter_count(&self) -> FilterCount {
        self.core.filters
    }

    /// Read access to the server (harnesses, tests).
    pub fn server(&self) -> impl std::ops::Deref<Target = CasperServer> + '_ {
        self.core.link.plane.read()
    }

    /// Mutable access to the anonymizer (e.g. for cloaking queries whose
    /// candidate lists are processed outside the built-in pipeline).
    pub fn anonymizer_mut(&mut self) -> &mut Anonymizer<P> {
        &mut self.core.anonymizer
    }

    /// Mutable access to the server (e.g. categorised target loading).
    pub fn server_mut(&mut self) -> impl std::ops::DerefMut<Target = CasperServer> + '_ {
        self.core.link.plane.write()
    }
}

/// Runtime control of the hosted server's candidate cache.
impl<P: PyramidStructure> Casper<P> {
    /// Enables or disables the server-tier candidate cache (on by
    /// default).
    pub fn with_query_cache(self, enabled: bool) -> Self {
        self.core
            .link
            .plane
            .write()
            .set_query_cache_enabled(enabled);
        self
    }

    /// Replaces the hosted server's cache with a fresh one under
    /// `config`.
    pub fn with_query_cache_config(self, config: casper_qp::cache::CacheConfig) -> Self {
        self.core.link.plane.write().set_query_cache_config(config);
        self
    }

    /// Hit/miss/invalidation counters of the hosted server's candidate
    /// cache (`None` when disabled).
    pub fn cache_stats(&self) -> Option<casper_qp::cache::CacheStats> {
        self.core.link.plane.read().cache_stats()
    }
}

impl<P: PyramidStructure> Engine for Casper<P> {
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
/// failing: cloaked updates land in a bounded latest-wins buffer
/// (overflow evicts the oldest handle, counted in
/// [`RemoteCasper::dropped_updates`]) that is flushed before the next
/// successful operation, and queries return
/// [`QueryOutcome::Degraded`].
#[derive(Debug)]
pub struct RemoteCasper<P: PyramidStructure> {
    core: PipelineCore<P, RemoteLink>,
}

impl<P: PyramidStructure> RemoteCasper<P> {
    /// Assembles the remote pipeline against a server address with the
    /// default [`ClientConfig`]. Connection is lazy: construction
    /// succeeds even while the server is down (updates queue until it
    /// comes up).
    pub fn new(anonymizer: Anonymizer<P>, server: std::net::SocketAddr) -> Self {
        Self::with_config(anonymizer, server, ClientConfig::default())
    }

    /// [`RemoteCasper::new`] with explicit client timeouts/retry policy.
    pub fn with_config(
        anonymizer: Anonymizer<P>,
        server: std::net::SocketAddr,
        config: ClientConfig,
    ) -> Self {
        Self {
            core: PipelineCore::new(anonymizer, RemoteLink::new(server, config)),
        }
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
        anonymizer: Anonymizer<P>,
        endpoints: Vec<std::net::SocketAddr>,
        config: ClientConfig,
    ) -> Self {
        let mut link = RemoteLink::new(endpoints[0], config);
        link.net = NetworkClient::with_endpoints(endpoints, config);
        Self {
            core: PipelineCore::new(anonymizer, link),
        }
    }

    /// Overrides the pending-update buffer bound.
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.core.link.pending_cap = cap.max(1);
        self
    }

    /// Sets the client's pipeline window (default 1, lockstep): flushes
    /// of the pending-update buffer keep up to `window` frames in
    /// flight on the connection and read acks as they stream back,
    /// instead of one write/read round-trip per update. Values below 1
    /// are clamped to 1. Queries still flush the buffer first, so they
    /// remain ordering barriers.
    pub fn with_pipeline_window(mut self, window: usize) -> Self {
        self.core.link.net.set_pipeline_window(window);
        self
    }

    /// Bounds how long a cloaked update may wait in the pending buffer.
    /// Entries older than `ttl` are dropped as stale (counted in
    /// [`RemoteCasper::expired_updates`]) instead of delivered — after a
    /// long outage the user has moved on, and replaying ancient regions
    /// only adds load to a recovering server. Privacy is unaffected:
    /// the server keeps the previous (still k-anonymous) region.
    pub fn with_pending_ttl(mut self, ttl: Duration) -> Self {
        self.core.link.pending_ttl = Some(ttl);
        self
    }

    /// Grants every operation an end-to-end deadline of `budget` from
    /// pipeline entry. The deadline is stamped into outgoing frames (so
    /// the server sheds doomed work), bounds the client's retry loop
    /// (see [`NetError::GaveUp`]), and expires queued work at every
    /// downstream hop.
    pub fn with_request_budget(mut self, budget: Duration) -> Self {
        self.core.request_budget = Some(budget);
        self
    }

    /// Overrides the transmission model.
    pub fn with_transmission(mut self, model: TransmissionModel) -> Self {
        self.core.transmission = model;
        self
    }

    /// Registers a mobile user and pushes (or queues) the cloaked region.
    pub fn register_user(&mut self, uid: UserId, profile: Profile, pos: Point) {
        self.core.execute(Request::Register { uid, profile, pos });
    }

    /// Processes a location update, refreshing (or queueing) the
    /// server-side cloaked region.
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

    /// Delivers queued cloaked updates until the buffer is empty or the
    /// transport fails. Returns how many were flushed.
    pub fn flush_pending(&mut self) -> Result<usize, NetError> {
        self.core.link.flush()
    }

    /// A private NN query over public data through the real network
    /// boundary. Returns `None` for unknown users; a reachable server
    /// yields [`QueryOutcome::Answered`], an unreachable one
    /// [`QueryOutcome::Degraded`].
    pub fn query_nn(&mut self, uid: UserId) -> Option<QueryOutcome> {
        self.core.query(uid, self.core.filters, None, false)
    }

    /// Cloaked updates currently awaiting a reachable server.
    pub fn pending_updates(&self) -> usize {
        self.core.link.pending.len()
    }

    /// Updates evicted from the bounded pending buffer so far.
    pub fn dropped_updates(&self) -> u64 {
        self.core.link.dropped_updates
    }

    /// Queued updates silently replaced by a newer region for the same
    /// user before reaching the server (latest-wins coalescing). These
    /// never show up in [`RemoteCasper::pending_updates`] — the queue
    /// depth is unchanged by an overwrite — so they get their own
    /// counter.
    pub fn overwritten_updates(&self) -> u64 {
        self.core.link.overwritten_updates
    }

    /// Highest pending-queue depth observed so far.
    pub fn pending_high_water(&self) -> usize {
        self.core.link.pending_high_water
    }

    /// Queued updates dropped because they outlived the pending TTL
    /// (see [`RemoteCasper::with_pending_ttl`]).
    pub fn expired_updates(&self) -> u64 {
        self.core.link.expired_updates
    }

    /// Read access to the anonymizer (harnesses, tests).
    pub fn anonymizer(&self) -> &Anonymizer<P> {
        &self.core.anonymizer
    }

    /// Client-side resilience counters of the underlying transport.
    pub fn net_stats(&self) -> crate::net::ClientStats {
        self.core.link.net.stats()
    }

    /// The server boot id last observed by the transport (`None` before
    /// the first acknowledged update). Changes exactly when the server
    /// tier restarts or fails over to a promoted standby.
    pub fn server_boot(&self) -> Option<u64> {
        self.core.link.net.server_boot()
    }
}

impl<P: PyramidStructure> Engine for RemoteCasper<P> {
    fn execute(&mut self, req: Request) -> Response {
        self.core.execute(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_anonymizer::{AdaptiveAnonymizer, BasicAnonymizer};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    fn populated_casper() -> Casper<casper_grid::AdaptivePyramid> {
        let mut c = Casper::new(AdaptiveAnonymizer::adaptive(8));
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
            let pos = c.anonymizer().pyramid().position_of(uid(i)).unwrap();
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
        let mut c = Casper::new(BasicAnonymizer::basic(7));
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
        let mut c = Casper::new(AdaptiveAnonymizer::adaptive(7));
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
        let mut c = Casper::new(BasicAnonymizer::basic(7));
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
        let mut relaxed = Casper::new(BasicAnonymizer::basic(8));
        let mut strict = Casper::new(BasicAnonymizer::basic(8));
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

    #[test]
    fn unknown_user_query_is_none() {
        let mut c = Casper::new(BasicAnonymizer::basic(6));
        assert!(c.query_nn(uid(404)).is_none());
        assert!(c.query_nn_private(uid(404)).is_none());
    }

    #[test]
    fn engine_requests_match_method_calls() {
        // The typed request plane and the method API are the same code
        // path; drive one Casper through each and compare.
        let mut via_methods = Casper::new(AdaptiveAnonymizer::adaptive(7));
        let mut via_engine = Casper::new(AdaptiveAnonymizer::adaptive(7));
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

    #[test]
    fn remote_pipeline_matches_local_answers() {
        let mut rng = StdRng::seed_from_u64(21);
        let targets: Vec<(ObjectId, Point)> = (0..300)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let positions: Vec<Point> = (0..40).map(|_| Point::new(rng.gen(), rng.gen())).collect();

        let mut local = Casper::new(AdaptiveAnonymizer::adaptive(8));
        local.load_targets(targets.iter().copied());

        let mut backend = CasperServer::new();
        backend.load_public_targets(targets.iter().copied());
        let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
        let mut remote = RemoteCasper::new(AdaptiveAnonymizer::adaptive(8), server.addr());

        for (i, &p) in positions.iter().enumerate() {
            local.register_user(uid(i as u64), Profile::new(3, 0.0), p);
            remote.register_user(uid(i as u64), Profile::new(3, 0.0), p);
        }
        assert_eq!(remote.pending_updates(), 0, "server is up: nothing queued");
        for i in 0..positions.len() as u64 {
            let l = local.query_nn(uid(i)).unwrap();
            let r = remote.query_nn(uid(i)).unwrap().answered().unwrap();
            assert_eq!(
                l.exact.map(|e| e.id),
                r.exact.map(|e| e.id),
                "user {i}: remote refinement diverged"
            );
            assert_eq!(l.candidates, r.candidates);
        }
        server.shutdown();
    }

    #[test]
    fn remote_pipeline_degrades_and_heals() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let addr = server.addr();
        let mut remote =
            RemoteCasper::with_config(AdaptiveAnonymizer::adaptive(7), addr, fast_client_config());
        for i in 0..10u64 {
            remote.register_user(
                uid(i),
                Profile::new(2, 0.0),
                Point::new(0.05 + i as f64 / 20.0, 0.5),
            );
        }
        assert_eq!(server.with_server(|s| s.private_count()), 10);
        // Kill the server: movement keeps working, updates queue, queries
        // degrade explicitly instead of panicking or hanging.
        server.shutdown();
        for i in 0..10u64 {
            remote.move_user(uid(i), Point::new(0.05 + i as f64 / 20.0, 0.25));
        }
        assert_eq!(remote.pending_updates(), 10);
        let outcome = remote.query_nn(uid(0)).unwrap();
        assert!(outcome.is_degraded(), "expected Degraded: {outcome:?}");
        assert_ne!(outcome.trace_id(), 0, "degraded outcomes carry a trace id");
        // Revive the server on the same address: the next query flushes
        // the queue and answers.
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
        assert_eq!(remote.dropped_updates(), 0);
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
        let mut remote = RemoteCasper::with_endpoints(
            AdaptiveAnonymizer::adaptive(6),
            vec![a.addr(), b.addr()],
            cfg,
        )
        .with_pending_ttl(Duration::from_millis(30));
        remote.register_user(uid(1), Profile::new(1, 0.0), Point::new(0.2, 0.2));
        assert_eq!(remote.server_boot(), Some(11), "primary acked first");
        // Primary dies: the next update fails against it, rotates the
        // transport to the standby endpoint, and parks in the buffer.
        a.shutdown();
        remote.move_user(uid(1), Point::new(0.4, 0.4));
        assert_eq!(remote.pending_updates(), 1);
        assert!(remote.net_stats().failovers >= 1);
        // The following delivery lands on the standby, whose ack carries
        // the new boot id and triggers §8 replay.
        remote.move_user(uid(1), Point::new(0.5, 0.5));
        assert_eq!(remote.pending_updates(), 0, "flushed to the standby");
        assert_eq!(remote.server_boot(), Some(22), "new epoch observed");
        // The standby dies too; a queued update expires mid-outage. The
        // degraded outcome must report the *promoted* boot id (22), not
        // the dead primary's (11) — that is the epoch a continuous
        // monitor has to resubscribe against.
        b.shutdown();
        remote.move_user(uid(1), Point::new(0.6, 0.6));
        assert_eq!(remote.pending_updates(), 1);
        std::thread::sleep(Duration::from_millis(60));
        let outcome = remote.query_nn(uid(1)).unwrap();
        assert!(outcome.is_degraded(), "both endpoints down: {outcome:?}");
        assert_eq!(outcome.degraded_boot_id(), Some(22));
        assert_eq!(remote.pending_updates(), 0, "TTL expired the entry");
        assert!(remote.expired_updates() >= 1);
    }

    #[test]
    fn pending_buffer_is_bounded_latest_wins() {
        // No server at all: everything queues against a dead address.
        let dead: std::net::SocketAddr = ([127, 0, 0, 1], 1).into();
        let mut remote = RemoteCasper::with_config(
            AdaptiveAnonymizer::adaptive(6),
            dead,
            ClientConfig {
                retry: RetryPolicy::no_retry(),
                connect_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        )
        .with_pending_cap(5);
        for i in 0..8u64 {
            remote.register_user(
                uid(i),
                Profile::new(1, 0.0),
                Point::new(0.1 + i as f64 / 10.0, 0.5),
            );
        }
        assert_eq!(remote.pending_updates(), 5, "buffer must stay bounded");
        assert_eq!(remote.dropped_updates(), 3);
        assert_eq!(remote.pending_high_water(), 5);
        assert_eq!(remote.overwritten_updates(), 0);
        // Re-updating a queued user overwrites in place (latest-wins), it
        // does not evict — but the replaced region is counted.
        remote.move_user(uid(7), Point::new(0.9, 0.9));
        assert_eq!(remote.pending_updates(), 5);
        assert_eq!(remote.dropped_updates(), 3);
        assert_eq!(remote.overwritten_updates(), 1);
        assert_eq!(remote.pending_high_water(), 5);
    }
}
