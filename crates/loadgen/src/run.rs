//! One workload, end to end: set-up, warm-up, the rounds (a piece of the
//! open-loop latency window, then a closed-loop capacity burst), the
//! traced window, the layer replays and the teardown checks.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use casper_core::CasperClient;
use casper_geometry::{Point, Rect};
use casper_grid::{MaintenanceStats, UserId};
use casper_index::Entry;

use crate::driver::{
    drive, OpRecord, PhaseClock, PhaseLimits, PhaseLog, QueryDone, Target, UpdatesDone,
};
use crate::layers::{self, LayerInputs};
use crate::procfs;
use crate::spans::{Recorder, Span, SpanKind};
use crate::stack::{cloak_honours, handle_of, recover, Shutdown, Stack, StorageStats, TrustedTier};
use crate::stats::{sliced_latency, SlicedLatency, Summary, SLICES};
use crate::workload::{
    Op, OpKind, PhaseStream, Population, RunStreams, Scale, Tier, Windows, WorkloadSpec, ROUNDS,
};

/// One query in this many has its refined answer compared with a
/// brute-force exact nearest neighbour from the user's true position.
const EXACT_CHECK_EVERY: u32 = 16;

/// Open-loop operations not started this long after their phase ended
/// (or half the phase's length, if that is longer) are given up on and
/// counted as failed. Until then a late operation is executed and
/// reported with the latency it really had, so a stall of the host
/// shows as latency, not as failures.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(5);

/// Leading share of the closed-loop window that is run but not measured.
const CAPACITY_RAMP_SHARE: f64 = 0.3;

/// Requests of the traced window kept per driver for the layer replays.
pub const REPLAY_SAMPLE: usize = 4096;

/// Candidate lists of the traced window kept per driver for the
/// wire-codec timing.
const ANSWER_SAMPLE: usize = 256;

/// Operations per driver whose spans go into the trace file.
const TRACE_FILE_OPS: u32 = 2000;

/// What to run and how long.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Population size.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Phase lengths.
    pub windows: Windows,
    /// How many times set-up is carried out in full (the last one is
    /// kept and measured on); `setup_s` is the median.
    pub setups: usize,
    /// Length of the no-traffic hold that measures idle CPU, seconds.
    pub idle_hold_s: f64,
    /// Arrival rate to use instead of the workload's pinned one (which
    /// was pinned for [`Scale::FULL`]).
    pub rate_override: Option<f64>,
    /// Where to write the Chrome trace of the traced window.
    pub trace_out: Option<PathBuf>,
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload's name.
    pub name: &'static str,
    /// The open-loop arrival rate used.
    pub rate_ops_s: f64,
    /// Operations attempted in all phases, warm-up included.
    pub attempted: u64,
    /// Operations that failed: errors, sheds, unsynced commits, and every
    /// operation on which an oracle check failed.
    pub failed: u64,
    /// Teardown checks that failed, in words (empty = all passed).
    pub teardown_failures: Vec<String>,
    /// End-to-end metrics measured (absent = not defined here).
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics (empty without a traced window).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Hash of the generated operation streams.
    pub stream_hash: u64,
    /// The percentiles `op_p95_ms` and `op_p99_ms` actually hold: lower
    /// than asked when a slice has too few samples beyond them.
    pub tail_quantiles: (f64, f64),
    /// The per-slice values behind the sliced end-to-end metrics, in
    /// window order, so a reader can see a stall or a drift for herself.
    pub by_slice: BTreeMap<&'static str, Vec<f64>>,
    /// Worst backlog per slice of the open-loop windows, both drivers.
    pub backlog_by_slice: [u32; SLICES],
    /// Whether a capacity burst's stream ran out before its time did.
    pub capacity_stream_exhausted: bool,
}

impl WorkloadResult {
    /// Whether every operation, every oracle check and every teardown
    /// check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.teardown_failures.is_empty()
    }
}

/// What a driver gathers while spans are on, beyond the spans.
#[derive(Debug, Clone, Default)]
pub struct TracedTallies {
    /// Updates applied at the trusted tier.
    pub updates: u64,
    /// Sum of their maintenance costs.
    pub maintenance: MaintenanceStats,
    /// Updates whose durability horizon was not reached.
    pub unsynced: u64,
    /// Highest replication lag seen after an op.
    pub lag_max: u64,
    /// Cloaks served (for updates and for queries).
    pub cloaks: u64,
    /// Sums over those cloaks.
    pub levels_climbed: u64,
    /// Σ area / A_min.
    pub area_over_amin: f64,
    /// Σ k' / k.
    pub k_over_k: f64,
    /// `(handle, region)` of updates, for the plane replay.
    pub update_sample: Vec<(u64, Rect)>,
    /// Regions of queries, for the plane and query-processor replays.
    pub region_sample: Vec<Rect>,
    /// Candidate lists, for the wire-codec timing.
    pub answer_sample: Vec<Vec<Entry>>,
    /// Σ end-to-end ns, and Σ ns per budget column, over updates.
    pub update_budget: Budget,
    /// The same over queries.
    pub query_budget: Budget,
}

/// Where the end-to-end time of the traced operations went, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Operations summed over.
    pub ops: u64,
    /// Σ due → done.
    pub total_ns: u64,
    /// Σ due → picked up.
    pub queue_wait_ns: u64,
    /// Σ trusted-tier update calls the op waited for.
    pub trusted_tier_ns: u64,
    /// Σ cloak calls the op waited for.
    pub cloak_ns: u64,
    /// Σ network calls the op waited for.
    pub net_ns: u64,
    /// Σ client refinement.
    pub refine_ns: u64,
}

impl Budget {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Budget) {
        self.ops += other.ops;
        self.total_ns += other.total_ns;
        self.queue_wait_ns += other.queue_wait_ns;
        self.trusted_tier_ns += other.trusted_tier_ns;
        self.cloak_ns += other.cloak_ns;
        self.net_ns += other.net_ns;
        self.refine_ns += other.refine_ns;
    }

    /// What no column covers.
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(
            self.queue_wait_ns
                + self.trusted_tier_ns
                + self.cloak_ns
                + self.net_ns
                + self.refine_ns,
        )
    }
}

/// One driver's half of the real stack: the [`Target`] the load
/// generator drives. Lives across the phases of a workload.
pub struct StackTarget<'p> {
    population: &'p Population,
    tier: TrustedTier,
    client: casper_core::NetworkClient,
    refiner: CasperClient,
    /// True position of every user as last acknowledged (only this
    /// driver's users are ever touched).
    positions: Vec<Point>,
    next_pseudonym: u64,
    queries_seen: u32,
    recorder: Recorder,
    tallies: TracedTallies,
    /// Scratch for one window of `(handle, region)`.
    window: Vec<(casper_core::PrivateHandle, Rect)>,
}

impl<'p> StackTarget<'p> {
    fn new(
        population: &'p Population,
        tier: TrustedTier,
        client: casper_core::NetworkClient,
        driver: usize,
    ) -> Self {
        Self {
            population,
            tier,
            client,
            refiner: CasperClient::new(),
            positions: population.trace.initial.clone(),
            next_pseudonym: (driver as u64) << 48,
            queries_seen: 0,
            recorder: Recorder::new(false, 0),
            tallies: TracedTallies::default(),
            window: Vec::with_capacity(crate::workload::PIPELINE_WINDOW),
        }
    }

    fn tracing(&self) -> bool {
        self.recorder.enabled()
    }

    /// Checks a served cloak and, while tracing, tallies its shape.
    fn note_cloak(&mut self, uid: u32, region: &casper_grid::CloakedRegion) -> bool {
        let profile = &self.population.profiles[uid as usize];
        let honoured = cloak_honours(profile, region);
        if self.tracing() {
            let t = &mut self.tallies;
            t.cloaks += 1;
            t.levels_climbed += u64::from(region.levels_climbed);
            t.k_over_k += region.k_accuracy(profile);
            if profile.a_min > 0.0 {
                t.area_over_amin += region.area() / profile.a_min;
            }
        }
        honoured
    }

    /// The exact nearest public target to `pos`, by exhaustive search.
    fn exact_nn_distance(&self, pos: Point) -> f64 {
        self.population
            .targets
            .iter()
            .map(|t| t.dist(pos))
            .fold(f64::INFINITY, f64::min)
    }
}

impl Target for StackTarget<'_> {
    fn updates(&mut self, ops: &[Op], first: u32, clock: &PhaseClock) -> UpdatesDone {
        let tracing = self.tracing();
        let picked_up = if tracing { clock.now_ns() } else { 0 };
        let mut failed = 0u32;
        let (mut tier_ns, mut cloak_ns) = (0u64, 0u64);
        self.window.clear();
        for (i, op) in ops.iter().enumerate() {
            let index = first + i as u32;
            let uid = UserId(u64::from(op.uid));
            let t0 = if tracing { clock.now_ns() } else { 0 };
            let applied = self.tier.update(uid, op.pos);
            let t1 = if tracing { clock.now_ns() } else { 0 };
            let applied = match applied {
                Ok(a) => a,
                Err(_) => {
                    failed |= 1 << i;
                    continue;
                }
            };
            self.positions[op.uid as usize] = op.pos;
            let region = self.tier.cloak(uid);
            let t2 = if tracing { clock.now_ns() } else { 0 };
            if tracing {
                let kind = match self.tier {
                    TrustedTier::Sharded(_) => SpanKind::ShardedUpdate,
                    TrustedTier::Durable(_) => SpanKind::DurabilityCommit,
                    TrustedTier::Replicated(_) => SpanKind::ReplicationCommit,
                };
                self.recorder.record(kind, t0, t1, index, 1);
                self.recorder.record(SpanKind::GridCloak, t1, t2, index, 1);
                tier_ns += t1 - t0;
                cloak_ns += t2 - t1;
                let lag = self.tier.replication_lag() as u64;
                let t = &mut self.tallies;
                t.updates += 1;
                t.maintenance += applied.stats;
                t.lag_max = t.lag_max.max(lag);
                if !applied.synced {
                    t.unsynced += 1;
                }
            }
            if !applied.synced {
                failed |= 1 << i;
            }
            match region {
                Some(region) => {
                    if !self.note_cloak(op.uid, &region) {
                        failed |= 1 << i;
                    }
                    if tracing && self.tallies.update_sample.len() < REPLAY_SAMPLE {
                        self.tallies
                            .update_sample
                            .push((u64::from(op.uid), region.rect));
                    }
                    self.window.push((handle_of(op.uid), region.rect));
                }
                None => failed |= 1 << i,
            }
        }
        let t3 = if tracing { clock.now_ns() } else { 0 };
        if self.client.push_updates(&self.window).is_err() {
            // Which acks of the window landed is not reported: the whole
            // window counts as failed.
            failed = u32::MAX >> (32 - ops.len());
        }
        let done_ns = clock.now_ns();
        if tracing {
            self.recorder.record(
                SpanKind::NetUpdateWindow,
                t3,
                done_ns,
                first,
                ops.len() as u32,
            );
            let net_ns = done_ns - t3;
            for (i, op) in ops.iter().enumerate() {
                let index = first + i as u32;
                self.recorder
                    .record(SpanKind::QueueWait, op.due_ns, picked_up, index, 1);
                self.recorder
                    .record(SpanKind::OpUpdate, op.due_ns, done_ns, index, 1);
                // Every op of the window waits for the whole window.
                self.tallies.update_budget.add(&Budget {
                    ops: 1,
                    total_ns: done_ns.saturating_sub(op.due_ns),
                    queue_wait_ns: picked_up.saturating_sub(op.due_ns),
                    trusted_tier_ns: tier_ns,
                    cloak_ns,
                    net_ns,
                    refine_ns: 0,
                });
            }
        }
        UpdatesDone { done_ns, failed }
    }

    fn query(&mut self, op: &Op, index: u32, clock: &PhaseClock) -> QueryDone {
        let tracing = self.tracing();
        let uid = UserId(u64::from(op.uid));
        let pos = self.positions[op.uid as usize];
        let t0 = if tracing { clock.now_ns() } else { 0 };
        let region = self.tier.cloak(uid);
        let t1 = if tracing { clock.now_ns() } else { 0 };
        let Some(region) = region else {
            return QueryDone {
                done_ns: clock.now_ns(),
                ok: false,
                candidates: 0,
            };
        };
        self.next_pseudonym += 1;
        let answer = self.client.query_nn(self.next_pseudonym, region.rect);
        let t2 = if tracing { clock.now_ns() } else { 0 };
        let (refined, entries) = match answer {
            Ok(entries) => (self.refiner.refine_nn_entries(pos, &entries), entries),
            Err(_) => (None, Vec::new()),
        };
        let done_ns = clock.now_ns();

        // Everything below happens after the completion stamp.
        let mut ok = self.note_cloak(op.uid, &region) && refined.is_some();
        self.queries_seen += 1;
        if let (Some(best), true) = (refined, self.queries_seen.is_multiple_of(EXACT_CHECK_EVERY)) {
            // Inclusiveness: the list must hold the true nearest target,
            // so refining it must reach the exact minimum distance.
            ok &= best.mbr.min_dist(pos) <= self.exact_nn_distance(pos);
        }
        if tracing {
            self.recorder.record(SpanKind::GridCloak, t0, t1, index, 1);
            self.recorder.record(SpanKind::NetQuery, t1, t2, index, 1);
            self.recorder
                .record(SpanKind::ClientRefine, t2, done_ns, index, 1);
            self.recorder
                .record(SpanKind::QueueWait, op.due_ns, t0, index, 1);
            self.recorder
                .record(SpanKind::OpQuery, op.due_ns, done_ns, index, 1);
            self.tallies.query_budget.add(&Budget {
                ops: 1,
                total_ns: done_ns.saturating_sub(op.due_ns),
                queue_wait_ns: t0.saturating_sub(op.due_ns),
                trusted_tier_ns: 0,
                cloak_ns: t1 - t0,
                net_ns: t2 - t1,
                refine_ns: done_ns - t2,
            });
            if self.tallies.region_sample.len() < REPLAY_SAMPLE {
                self.tallies.region_sample.push(region.rect);
            }
            if self.tallies.answer_sample.len() < ANSWER_SAMPLE {
                self.tallies.answer_sample.push(entries.clone());
            }
        }
        QueryDone {
            done_ns,
            ok,
            candidates: entries.len() as u32,
        }
    }
}

/// What one phase produced.
struct PhaseOutcome {
    logs: Vec<PhaseLog>,
    /// Process CPU (ms) sampled by the main thread at every slice
    /// boundary of the phase: one reading more than it has slices.
    cpu_ms: Vec<f64>,
    spans: Vec<Vec<Span>>,
}

/// Runs one phase on both drivers and waits for it.
fn run_phase(
    targets: &mut [StackTarget<'_>],
    stream: &PhaseStream,
    window_s: f64,
    slices: usize,
    closed: bool,
    traced: bool,
) -> PhaseOutcome {
    let window_ns = (window_s * 1e9) as u64;
    let limits = PhaseLimits {
        window_ns,
        slices,
        closed,
        grace_ns: (OPEN_LOOP_GRACE.as_nanos() as u64).max(window_ns / 2),
    };
    for (target, ops) in targets.iter_mut().zip(&stream.per_driver) {
        // Per op at most: tier, cloak, net, refine, wait, op.
        target.recorder = Recorder::new(traced, ops.len() * 6);
    }
    // A moment ahead, so both drivers are parked on the clock by then.
    let clock = PhaseClock::starting_at(Instant::now() + Duration::from_millis(2));
    let mut cpu_ms = Vec::with_capacity(slices + 1);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(&stream.per_driver)
            .map(|(target, ops)| {
                scope.spawn(move || {
                    clock.sleep_until(0);
                    drive(ops, limits, target, &clock)
                })
            })
            .collect();
        for boundary in 0..=slices as u64 {
            clock.sleep_until(window_ns / slices as u64 * boundary);
            cpu_ms.push(procfs::process_cpu_ms().unwrap_or(0.0));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a driver thread panicked"))
            .collect()
    });
    let spans = targets
        .iter_mut()
        .map(|t| std::mem::replace(&mut t.recorder, Recorder::new(false, 0)).into_spans())
        .collect();
    PhaseOutcome {
        logs,
        cpu_ms,
        spans,
    }
}

/// Attempted and failed operations of a phase.
fn tally(outcome: &PhaseOutcome) -> (u64, u64) {
    outcome.logs.iter().fold((0, 0), |(a, f), log| {
        let bad = log.records.iter().filter(|r| !r.ok).count() as u64;
        (
            a + log.records.len() as u64 + log.not_started,
            f + bad + log.not_started,
        )
    })
}

fn records(outcome: &PhaseOutcome) -> impl Iterator<Item = &OpRecord> {
    outcome.logs.iter().flat_map(|l| l.records.iter())
}

/// A measured window as it was run: in one piece (the traced window) or
/// in [`ROUNDS`] equal pieces with other phases between them (latency,
/// capacity). It is cut into [`SLICES`] slices all the same; a slice
/// never straddles two pieces.
struct Window<'a> {
    pieces: &'a [PhaseOutcome],
    /// Length of one piece, seconds.
    piece_s: f64,
}

const _: () = assert!(SLICES.is_multiple_of(ROUNDS));

impl Window<'_> {
    fn piece_ns(&self) -> u64 {
        (self.piece_s * 1e9) as u64
    }

    /// Length of the window, its pieces laid end to end.
    fn window_ns(&self) -> u64 {
        self.piece_ns() * self.pieces.len() as u64
    }

    fn slices_per_piece(&self) -> usize {
        SLICES / self.pieces.len()
    }

    /// Every operation with the start of its piece within the window.
    fn records(&self) -> impl Iterator<Item = (u64, &OpRecord)> {
        let piece_ns = self.piece_ns();
        self.pieces
            .iter()
            .enumerate()
            .flat_map(move |(i, piece)| records(piece).map(move |r| (i as u64 * piece_ns, r)))
    }

    /// Where in the window an operation was due. (An operation is always
    /// due inside its piece; only its completion can come later.)
    fn due_offset(&self, piece_start: u64, r: &OpRecord) -> u64 {
        piece_start + r.due_ns.min(self.piece_ns().saturating_sub(1))
    }

    /// `(due offset, latency in ms)` of every operation of `kind`.
    fn latency_samples(&self, kind: Option<OpKind>) -> Vec<(u64, f64)> {
        self.records()
            .filter(|(_, r)| kind.is_none_or(|k| r.kind == k))
            .map(|(start, r)| (self.due_offset(start, r), r.latency_ms()))
            .collect()
    }

    /// Per slice, the operations that completed correctly in it. The
    /// leading `skip_share` of every piece is left out: its slices cover
    /// the rest.
    fn completed_by_slice(&self, skip_share: f64) -> Vec<u64> {
        let per_piece = self.slices_per_piece();
        let from_ns = (self.piece_s * skip_share * 1e9) as u64;
        let slice_ns = ((self.piece_ns() - from_ns) / per_piece as u64).max(1);
        let mut counts = vec![0u64; SLICES];
        for (i, piece) in self.pieces.iter().enumerate() {
            let counts = &mut counts[i * per_piece..(i + 1) * per_piece];
            for r in records(piece).filter(|r| r.ok && r.done_ns >= from_ns) {
                if let Some(c) = counts.get_mut(((r.done_ns - from_ns) / slice_ns) as usize) {
                    *c += 1;
                }
            }
        }
        counts
    }

    /// Per slice, the process CPU time used in it, ms.
    fn cpu_ms_by_slice(&self) -> Vec<f64> {
        self.pieces
            .iter()
            .flat_map(|p| p.cpu_ms.windows(2).map(|w| w[1] - w[0]))
            .collect()
    }

    /// Per slice, the worst backlog either driver saw.
    fn worst_backlog(&self) -> [u32; SLICES] {
        let per_piece = self.slices_per_piece();
        let mut worst = [0u32; SLICES];
        for (i, piece) in self.pieces.iter().enumerate() {
            for log in &piece.logs {
                for (w, &b) in worst[i * per_piece..].iter_mut().zip(&log.backlog_max) {
                    *w = (*w).max(b);
                }
            }
        }
        worst
    }

    /// The latency distribution of `kind`, slice by slice.
    fn sliced_latency(&self, kind: Option<OpKind>) -> Option<SlicedLatency> {
        sliced_latency(&self.latency_samples(kind), self.window_ns())
    }
}

/// Server-side and storage-side counters read around the traced window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Primary WAL directory.
    pub disk: StorageStats,
    /// Standby WAL directory.
    pub standby_disk: StorageStats,
    /// `NetStats::stale_updates` of the server.
    pub stale_updates: u64,
    /// Σ `NetworkClient::stats` over the drivers.
    pub client_retries: u64,
    /// Σ `Overloaded` replies seen by the drivers.
    pub client_overloaded: u64,
    /// `CasperServer::cache_stats`.
    pub cache: Option<casper_core::CacheStats>,
}

fn read_counters(stack_parts: &StackParts<'_>, targets: &[StackTarget<'_>]) -> Counters {
    Counters {
        disk: stack_parts.disk.map(|d| d.stats()).unwrap_or_default(),
        standby_disk: stack_parts
            .standby_disk
            .map(|d| d.stats())
            .unwrap_or_default(),
        stale_updates: stack_parts.server.stats().stale_updates,
        client_retries: targets.iter().map(|t| t.client.stats().retries).sum(),
        client_overloaded: targets
            .iter()
            .map(|t| t.client.stats().overloaded_replies)
            .sum(),
        cache: stack_parts.server.with_server(|s| s.cache_stats()),
    }
}

/// The parts of a [`Stack`] that stay with the main thread while the
/// clients and tier handles are out with the drivers.
struct StackParts<'s> {
    server: &'s casper_core::NetworkServer,
    disk: Option<&'s Arc<crate::stack::Disk>>,
    standby_disk: Option<&'s Arc<crate::stack::Disk>>,
}

/// Time all the set-ups of a run may take together. Another one is
/// started only if, taking as long as the first, it would end within
/// this: a set-up of seconds (20 000 registrations each acknowledged by
/// a standby's flush) is repeated once, the others twice.
const SETUP_BUDGET: Duration = Duration::from_secs(15);

/// Carries set-up out in full up to `setups` times (fewer when
/// [`SETUP_BUDGET`] says so), tearing every stack but the last down
/// again, and returns the last with every wall time.
fn set_up(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    rate_ops_s: f64,
) -> (Population, RunStreams, Stack, Vec<f64>) {
    let mut times: Vec<f64> = Vec::with_capacity(cfg.setups);
    let mut kept: Option<(Population, RunStreams, Stack)> = None;
    let first_started = Instant::now();
    for _ in 0..cfg.setups.max(1) {
        if let Some(&first) = times.first() {
            let would_end = first_started.elapsed() + Duration::from_secs_f64(first);
            if would_end > SETUP_BUDGET {
                break;
            }
        }
        if let Some((_, _, stack)) = kept.take() {
            drop(stack.shutdown());
        }
        let started = Instant::now();
        let population = Population::build(cfg.scale, cfg.seed);
        let streams = RunStreams::generate(&population, spec, rate_ops_s, cfg.windows, cfg.seed);
        let stack = Stack::assemble(spec, &population);
        times.push(started.elapsed().as_secs_f64());
        kept = Some((population, streams, stack));
    }
    let (population, streams, stack) = kept.expect("at least one set-up ran");
    (population, streams, stack, times)
}

/// The end-to-end metrics of the open-loop latency window.
fn latency_metrics(latency: &Window<'_>, result: &mut WorkloadResult) {
    if let Some(all) = latency.sliced_latency(None) {
        result.tail_quantiles = (all.p95.q, all.p99.q);
        for (name, quantile) in [
            ("op_p50_ms", all.p50),
            ("op_p95_ms", all.p95),
            ("op_p99_ms", all.p99),
        ] {
            result.end_to_end.insert(name, quantile.summary);
            result.by_slice.insert(name, quantile.by_slice);
        }
    }
    for (kind, p50, p99) in [
        (OpKind::Update, "update_p50_ms", "update_p99_ms"),
        (OpKind::Query, "query_p50_ms", "query_p99_ms"),
    ] {
        if let Some(s) = latency.sliced_latency(Some(kind)) {
            result.end_to_end.insert(p50, s.p50.summary);
            result.end_to_end.insert(p99, s.p99.summary);
        }
    }
    let done = latency.completed_by_slice(0.0);
    let cpu_per_op: Vec<f64> = latency
        .cpu_ms_by_slice()
        .into_iter()
        .zip(&done)
        .filter(|(_, &n)| n > 0)
        .map(|(cpu_ms, &n)| cpu_ms / n as f64)
        .collect();
    result.end_to_end.insert(
        "cpu_ms_per_op",
        Summary {
            n: done.iter().sum(),
            ..Summary::of(&cpu_per_op)
        },
    );
    result.by_slice.insert("cpu_ms_per_op", cpu_per_op);
    let slice_ns = (latency.window_ns() / SLICES as u64).max(1);
    let mut cand_by_slice = [(0u64, 0u64); SLICES];
    for (start, r) in latency
        .records()
        .filter(|(_, r)| r.kind == OpKind::Query && r.ok)
    {
        let s = ((latency.due_offset(start, r) / slice_ns) as usize).min(SLICES - 1);
        cand_by_slice[s].0 += u64::from(r.candidates);
        cand_by_slice[s].1 += 1;
    }
    let queries: u64 = cand_by_slice.iter().map(|c| c.1).sum();
    if queries > 0 {
        let means: Vec<f64> = cand_by_slice
            .iter()
            .filter(|c| c.1 > 0)
            .map(|c| c.0 as f64 / c.1 as f64)
            .collect();
        result.end_to_end.insert(
            "candidates_per_query",
            Summary {
                n: queries,
                ..Summary::of(&means)
            },
        );
    }
    result.backlog_by_slice = latency.worst_backlog();
}

/// `capacity_ops_s` from the closed-loop bursts, whose streams held
/// `burst_ops` operations each.
fn capacity_metrics(capacity: &Window<'_>, burst_ops: &[usize], result: &mut WorkloadResult) {
    // Throughput climbs for a moment after the drivers go from paced to
    // back-to-back; that ramp is run but not measured.
    let slice_s =
        capacity.piece_s * (1.0 - CAPACITY_RAMP_SHARE) / capacity.slices_per_piece() as f64;
    let done = capacity.completed_by_slice(CAPACITY_RAMP_SHARE);
    let exhausted: Vec<bool> = capacity
        .pieces
        .iter()
        .zip(burst_ops)
        .map(|(piece, &ops)| records(piece).count() == ops)
        .collect();
    result.capacity_stream_exhausted = exhausted.contains(&true);
    // A slice the burst's stream did not last into says nothing about speed.
    let rates: Vec<f64> = done
        .iter()
        .enumerate()
        .filter(|&(i, &n)| n > 0 || !exhausted[i / capacity.slices_per_piece()])
        .map(|(_, &n)| n as f64 / slice_s)
        .collect();
    result.end_to_end.insert(
        "capacity_ops_s",
        Summary {
            n: done.iter().sum(),
            ..Summary::of(&rates)
        },
    );
    result.by_slice.insert("capacity_ops_s", rates);
}

/// Runs `spec` under `cfg`.
pub fn run_workload(spec: &WorkloadSpec, cfg: &RunConfig) -> WorkloadResult {
    let rate_ops_s = cfg.rate_override.unwrap_or(spec.rate_ops_s);
    procfs::reset_peak_rss();
    let (population, streams, mut stack, setup_times) = set_up(spec, cfg, rate_ops_s);
    let windows = cfg.windows;

    let mut result = WorkloadResult {
        name: spec.name,
        rate_ops_s,
        attempted: 0,
        failed: stack.setup_violations,
        teardown_failures: Vec::new(),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        stream_hash: streams.hash(),
        tail_quantiles: (0.0, 0.0),
        by_slice: BTreeMap::new(),
        backlog_by_slice: [0; SLICES],
        capacity_stream_exhausted: false,
    };
    result
        .end_to_end
        .insert("setup_s", Summary::of(&setup_times));

    let mut targets: Vec<StackTarget<'_>> = std::mem::take(&mut stack.clients)
        .into_iter()
        .enumerate()
        .map(|(d, client)| StackTarget::new(&population, stack.tier.clone(), client, d))
        .collect();
    let parts = StackParts {
        server: &stack.server,
        disk: stack.disk.as_ref(),
        standby_disk: stack.standby.as_ref().map(|s| &s.disk),
    };
    let count = |outcome: &PhaseOutcome, result: &mut WorkloadResult| {
        let (attempted, failed) = tally(outcome);
        result.attempted += attempted;
        result.failed += failed;
    };

    // Warm-up: untimed, same pacing as the measured windows.
    let warm = run_phase(
        &mut targets,
        &streams.warmup,
        windows.warmup_s,
        SLICES,
        false,
        false,
    );
    count(&warm, &mut result);

    // The rounds: a piece of the open-loop latency window, then a
    // closed-loop capacity burst, spans off.
    let (latency_piece_s, burst_s) = (
        windows.latency_s / ROUNDS as f64,
        windows.capacity_s / ROUNDS as f64,
    );
    let (mut latency, mut capacity) = (Vec::new(), Vec::new());
    for round in &streams.rounds {
        let piece = run_phase(
            &mut targets,
            &round.paced,
            latency_piece_s,
            SLICES / ROUNDS,
            false,
            false,
        );
        count(&piece, &mut result);
        latency.push(piece);
        if burst_s > 0.0 {
            let burst = run_phase(
                &mut targets,
                &round.burst,
                burst_s,
                SLICES / ROUNDS,
                true,
                false,
            );
            count(&burst, &mut result);
            capacity.push(burst);
        }
    }
    latency_metrics(
        &Window {
            pieces: &latency,
            piece_s: latency_piece_s,
        },
        &mut result,
    );
    if burst_s > 0.0 {
        let burst_ops: Vec<usize> = streams.rounds.iter().map(|r| r.burst.len()).collect();
        capacity_metrics(
            &Window {
                pieces: &capacity,
                piece_s: burst_s,
            },
            &burst_ops,
            &mut result,
        );
    }

    // Traced window: the same open-loop stream shape, spans on. It and
    // the layer replays come last: the replays leave the server's
    // sequence table and candidate cache in a state no client produced.
    if windows.traced_s > 0.0 {
        for t in &mut targets {
            t.tallies = TracedTallies::default();
        }
        let before = read_counters(&parts, &targets);
        let traced = [run_phase(
            &mut targets,
            &streams.traced,
            windows.traced_s,
            SLICES,
            false,
            true,
        )];
        let after = read_counters(&parts, &targets);
        count(&traced[0], &mut result);
        let maintained_cells = stack.tier.maintained_cells();

        // Hold the connections open with no traffic: idle CPU.
        let hold = Duration::from_secs_f64(cfg.idle_hold_s);
        let cpu0 = procfs::process_cpu_ms().unwrap_or(0.0);
        std::thread::sleep(hold);
        let cpu1 = procfs::process_cpu_ms().unwrap_or(0.0);
        let idle_cpu_ms_per_s = (cpu1 - cpu0) / hold.as_secs_f64().max(1e-9);

        let untraced_p50 = result.end_to_end.get("op_p50_ms").map_or(0.0, |s| s.median);
        let traced_window = Window {
            pieces: &traced,
            piece_s: windows.traced_s,
        };
        let inputs = LayerInputs {
            spec,
            population: &population,
            spans: &traced[0].spans,
            tallies: targets.iter().map(|t| &t.tallies).collect(),
            sched_lag_ns: traced[0]
                .logs
                .iter()
                .flat_map(|l| l.sched_lag_ns.iter().copied())
                .collect(),
            backlog_by_slice: traced_window.worst_backlog(),
            ops: records(&traced[0]).count() as u64,
            before: &before,
            after: &after,
            maintained_cells,
            idle_cpu_ms_per_s,
            trace_overhead_ratio: match traced_window.sliced_latency(None) {
                Some(t) if untraced_p50 > 0.0 => t.p50.summary.median / untraced_p50,
                _ => 0.0,
            },
            plane: stack.server.plane(),
        };
        result.per_layer = layers::compute(&inputs);
        if let Some(path) = &cfg.trace_out {
            let per_driver: Vec<&[Span]> = traced[0].spans.iter().map(Vec::as_slice).collect();
            if let Err(e) = crate::spans::write_chrome_trace(path, &per_driver, TRACE_FILE_OPS) {
                eprintln!("casper-loadgen: could not write {}: {e}", path.display());
            }
        }
    }

    // Teardown. (A violated cloak or a wrong answer has already failed
    // the operation that saw it.)
    let positions = merge_positions(&targets, &population);
    let expected_private = population.users();
    let private_count = stack.server.with_server(|s| s.private_count());
    if private_count != expected_private {
        result.teardown_failures.push(format!(
            "server holds {private_count} private regions, expected {expected_private}"
        ));
    }
    stack.clients = targets.into_iter().map(|t| t.client).collect();
    let durable = spec.tier != Tier::Sharded;
    let shutdown = stack.shutdown();
    if durable {
        let recovery_s = check_recovery(&shutdown, &positions, &mut result.teardown_failures);
        if windows.traced_s > 0.0 {
            result.per_layer.insert("durability.recovery_s", recovery_s);
        }
    }
    drop(shutdown);

    if windows.traced_s > 0.0 {
        for key in [
            "budget.update_unattributed_share",
            "budget.query_unattributed_share",
        ] {
            let share = result.per_layer.get(key).copied().unwrap_or(0.0);
            if share > crate::metrics::MAX_UNATTRIBUTED_SHARE {
                result.teardown_failures.push(format!(
                    "{key} is {share:.3}: the layer table no longer adds up"
                ));
            }
        }
    }
    result.end_to_end.insert(
        "failed_ratio",
        Summary::single(result.failed as f64 / result.attempted.max(1) as f64),
    );
    result.end_to_end.insert(
        "peak_rss_mb",
        Summary::single(procfs::peak_rss_mib().unwrap_or(0.0)),
    );
    result
}

/// The acknowledged position of every user: each driver knows its own.
fn merge_positions(targets: &[StackTarget<'_>], population: &Population) -> Vec<Point> {
    (0..population.users())
        .map(|uid| targets[uid % targets.len()].positions[uid])
        .collect()
}

/// Re-opens the WAL directory the run wrote and checks what comes back:
/// every user at her last acknowledged position, bit for bit, and the
/// standby's fsync horizon level with the primary's. Returns the
/// recovery's wall time in seconds.
fn check_recovery(shutdown: &Shutdown, positions: &[Point], failures: &mut Vec<String>) -> f64 {
    if let (Some(p), Some(s)) = (shutdown.primary_durable_seq, shutdown.standby_durable_seq) {
        if p != s {
            failures.push(format!(
                "standby durable_seq {s} differs from the primary's {p}"
            ));
        }
    }
    let Some(disk) = &shutdown.disk else {
        return 0.0;
    };
    let (recovered, report) = match recover(disk) {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("recovery failed: {e}"));
            return 0.0;
        }
    };
    use casper_core::AnonymizerService as _;
    if recovered.user_count() != positions.len() {
        failures.push(format!(
            "recovered {} users, expected {}",
            recovered.user_count(),
            positions.len()
        ));
    }
    let moved = positions
        .iter()
        .enumerate()
        .filter(|(uid, want)| {
            recovered
                .position_of(UserId(*uid as u64))
                .is_none_or(|got| {
                    got.x.to_bits() != want.x.to_bits() || got.y.to_bits() != want.y.to_bits()
                })
        })
        .count();
    if moved > 0 {
        failures.push(format!(
            "{moved} users recovered away from their last acknowledged position"
        ));
    }
    report.duration.as_secs_f64()
}
