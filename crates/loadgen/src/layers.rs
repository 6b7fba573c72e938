//! Per-layer metrics, all taken from outside the layers: the spans and
//! tallies of the traced window, public counters read before and after
//! it, and replays of the window's own requests against the program's
//! public functions (`ServerPlane`, `wire`, `codec`, `casper_qp`,
//! `casper_index`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use casper_core::codec::{encode_frame, FrameDecoder};
use casper_core::engine::{Request, Response, ServerPlane};
use casper_core::wire::{decode, encode, Message};
use casper_core::CacheConfig;
use casper_geometry::Rect;
use casper_index::{Entry, ObjectId, RTree, SpatialIndex};
use casper_qp::{assign_filters_public, extended_area_public};

use crate::run::{Budget, Counters, TracedTallies};
use crate::spans::{Span, SpanKind};
use crate::stack::FILTERS;
use crate::stats::{mean, mean_p99, percentile, SLICES};
use crate::workload::{Population, WorkloadSpec};

/// Sequence numbers of replayed upserts start here, above anything a
/// client assigned, so the plane applies every one of them.
const REPLAY_SEQ_BASE: u64 = 1 << 48;

/// Messages timed per wire-codec figure (the sample is cycled).
const CODEC_ITERATIONS: usize = 50_000;

/// Updates (each with its ack) in the wire-codec sample; every one is
/// the same fixed-size record, so a few hundred say as much as all.
const CODEC_UPDATE_SAMPLE: usize = 256;

/// Everything [`compute`] needs.
pub struct LayerInputs<'a> {
    /// The workload.
    pub spec: &'a WorkloadSpec,
    /// The run's population (for the benchmark's own R-tree copy).
    pub population: &'a Population,
    /// Spans of the traced window, per driver.
    pub spans: &'a [Vec<Span>],
    /// Tallies of the traced window, per driver.
    pub tallies: Vec<&'a TracedTallies>,
    /// How late the drivers woke from their sleeps, ns.
    pub sched_lag_ns: Vec<u64>,
    /// Worst backlog per slice of the traced window.
    pub backlog_by_slice: [u32; SLICES],
    /// Operations executed in the traced window.
    pub ops: u64,
    /// Counters read before the window.
    pub before: &'a Counters,
    /// Counters read after it.
    pub after: &'a Counters,
    /// `maintained_cells()` after the window.
    pub maintained_cells: usize,
    /// Process CPU per wall second during the idle hold.
    pub idle_cpu_ms_per_s: f64,
    /// Traced ÷ untraced `op_p50_ms`.
    pub trace_overhead_ratio: f64,
    /// The server's request plane, for direct replays.
    pub plane: &'a Arc<ServerPlane>,
}

fn durations_us(spans: &[Vec<Span>], kind: SpanKind) -> Vec<f64> {
    spans
        .iter()
        .flatten()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every per-layer metric of one traced window.
pub fn compute(inputs: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let kops = inputs.ops as f64 / 1e3;
    let tallies = &inputs.tallies;
    let updates: u64 = tallies.iter().map(|t| t.updates).sum();

    // loadgen
    let mut lag_ms: Vec<f64> = inputs
        .sched_lag_ns
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    lag_ms.sort_by(f64::total_cmp);
    m.insert("loadgen.sched_lag_p99_ms", percentile(&lag_ms, 0.99));
    let backlog = inputs.backlog_by_slice;
    m.insert(
        "loadgen.backlog_max_ops",
        f64::from(backlog.iter().copied().max().unwrap_or(0)),
    );
    let third = |s: &[u32]| s.iter().map(|&b| f64::from(b)).sum::<f64>() / s.len() as f64;
    m.insert(
        "loadgen.backlog_growth_ops",
        third(&backlog[SLICES - 3..]) - third(&backlog[..3]),
    );
    m.insert("loadgen.trace_overhead_ratio", inputs.trace_overhead_ratio);

    // sharded / grid
    let (mean_us, p99_us) = mean_p99(&mut durations_us(inputs.spans, SpanKind::ShardedUpdate));
    m.insert("sharded.update_mean_us", mean_us);
    m.insert("sharded.update_p99_us", p99_us);
    m.insert("sharded.maintained_cells", inputs.maintained_cells as f64);
    let maintenance = tallies
        .iter()
        .fold(casper_grid::MaintenanceStats::ZERO, |a, t| {
            a + t.maintenance
        });
    let per_update = |n: u64| ratio(n as f64, updates as f64);
    m.insert(
        "grid.counter_updates_per_update",
        per_update(maintenance.counter_updates),
    );
    m.insert(
        "grid.hash_updates_per_update",
        per_update(maintenance.hash_updates),
    );
    m.insert(
        "grid.splits_per_kupdate",
        per_update(maintenance.splits) * 1e3,
    );
    m.insert(
        "grid.merges_per_kupdate",
        per_update(maintenance.merges) * 1e3,
    );
    let (mean_us, p99_us) = mean_p99(&mut durations_us(inputs.spans, SpanKind::GridCloak));
    m.insert("grid.cloak_mean_us", mean_us);
    m.insert("grid.cloak_p99_us", p99_us);
    let cloaks: u64 = tallies.iter().map(|t| t.cloaks).sum();
    let per_cloak = |sum: f64| ratio(sum, cloaks as f64);
    m.insert(
        "grid.levels_climbed_mean",
        per_cloak(tallies.iter().map(|t| t.levels_climbed).sum::<u64>() as f64),
    );
    m.insert(
        "grid.cloak_area_over_amin_mean",
        per_cloak(tallies.iter().map(|t| t.area_over_amin).sum()),
    );
    m.insert(
        "grid.k_achieved_over_k_mean",
        per_cloak(tallies.iter().map(|t| t.k_over_k).sum()),
    );

    // durability (recovery_s is filled in at teardown)
    let (mean_us, p99_us) = mean_p99(&mut durations_us(inputs.spans, SpanKind::DurabilityCommit));
    m.insert("durability.commit_mean_us", mean_us);
    m.insert("durability.commit_p99_us", p99_us);
    let disk = inputs.after.disk.since(&inputs.before.disk);
    let mut flush_us: Vec<f64> = disk.sync_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let (mean_us, p99_us) = mean_p99(&mut flush_us);
    m.insert("durability.fsync_mean_us", mean_us);
    m.insert("durability.fsync_p99_us", p99_us);
    m.insert(
        "durability.fsyncs_per_op",
        per_update(disk.sync_ns.len() as u64),
    );
    m.insert("durability.wal_bytes_per_op", per_update(disk.append_bytes));
    m.insert("durability.checkpoints", disk.checkpoint_ns.len() as f64);
    m.insert(
        "durability.checkpoint_mean_ms",
        ratio(
            disk.checkpoint_ns.iter().sum::<u64>() as f64 / 1e6,
            disk.checkpoint_ns.len() as f64,
        ),
    );
    m.insert("durability.recovery_s", 0.0);

    // replication
    let (mean_us, p99_us) = mean_p99(&mut durations_us(inputs.spans, SpanKind::ReplicationCommit));
    m.insert("replication.commit_mean_us", mean_us);
    m.insert("replication.commit_p99_us", p99_us);
    m.insert(
        "replication.lag_max_ops",
        tallies.iter().map(|t| t.lag_max).max().unwrap_or(0) as f64,
    );
    m.insert(
        "replication.degraded_ratio",
        per_update(tallies.iter().map(|t| t.unsynced).sum()),
    );
    let standby = inputs.after.standby_disk.since(&inputs.before.standby_disk);
    m.insert(
        "replication.standby_fsyncs_per_op",
        per_update(standby.sync_ns.len() as u64),
    );

    // The window's own requests, pooled over the drivers.
    let update_sample: Vec<(u64, Rect)> = tallies
        .iter()
        .flat_map(|t| t.update_sample.iter().copied())
        .collect();
    let query_regions: Vec<Rect> = tallies
        .iter()
        .flat_map(|t| t.region_sample.iter().copied())
        .collect();
    let answers: Vec<&Vec<Entry>> = tallies.iter().flat_map(|t| &t.answer_sample).collect();

    // wire / codec
    let codec = time_codec(&update_sample, &query_regions, &answers);
    m.insert("wire.encode_mean_ns", codec.encode_ns);
    m.insert("wire.decode_mean_ns", codec.decode_ns);
    m.insert("codec.frame_roundtrip_mean_ns", codec.frame_ns);
    m.insert("wire.bytes_per_update", codec.bytes_per_update);
    m.insert("wire.bytes_per_query", codec.bytes_per_query);

    // engine (ServerPlane): direct replays
    let upsert_us = replay_upserts(inputs.plane, &update_sample);
    let mut nn_us = replay_queries(inputs.plane, &query_regions, inputs.spec.cache);
    let plane_upsert_mean = mean(&upsert_us);
    let (plane_nn_mean, plane_nn_p99) = mean_p99(&mut nn_us);
    m.insert("plane.upsert_mean_us", plane_upsert_mean);
    m.insert("plane.nn_mean_us", plane_nn_mean);
    m.insert("plane.nn_p99_us", plane_nn_p99);

    // net / reactor
    let windows: Vec<&Span> = inputs
        .spans
        .iter()
        .flatten()
        .filter(|s| s.kind == SpanKind::NetUpdateWindow)
        .collect();
    let mut window_us: Vec<f64> = windows.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
    let window_total_us: f64 = window_us.iter().sum();
    let window_updates: u64 = windows.iter().map(|s| u64::from(s.ops)).sum();
    let (mean_us, p99_us) = mean_p99(&mut window_us);
    m.insert("net.update_window_rtt_mean_us", mean_us);
    m.insert("net.update_window_rtt_p99_us", p99_us);
    let (query_rtt_mean, query_rtt_p99) =
        mean_p99(&mut durations_us(inputs.spans, SpanKind::NetQuery));
    m.insert("net.query_rtt_mean_us", query_rtt_mean);
    m.insert("net.query_rtt_p99_us", query_rtt_p99);
    // Round trip minus the same request executed directly on the plane.
    m.insert(
        "transport.update_overhead_mean_us",
        if window_updates > 0 {
            window_total_us / window_updates as f64 - plane_upsert_mean
        } else {
            0.0
        },
    );
    m.insert(
        "transport.query_overhead_mean_us",
        if query_rtt_mean > 0.0 {
            query_rtt_mean - plane_nn_mean
        } else {
            0.0
        },
    );
    let (before, after) = (inputs.before, inputs.after);
    m.insert(
        "net.retries_per_kop",
        ratio((after.client_retries - before.client_retries) as f64, kops),
    );
    m.insert(
        "net.overloaded_per_kop",
        ratio(
            (after.client_overloaded - before.client_overloaded) as f64,
            kops,
        ),
    );
    m.insert(
        "net.stale_updates_per_kop",
        ratio((after.stale_updates - before.stale_updates) as f64, kops),
    );
    m.insert("reactor.idle_cpu_ms_per_s", inputs.idle_cpu_ms_per_s);

    // qp / index: Algorithm 2's steps on the benchmark's own R-tree copy.
    let regions = if query_regions.is_empty() {
        update_sample.iter().map(|&(_, r)| r).collect()
    } else {
        query_regions
    };
    let qp = time_query_processor(inputs.population, &regions);
    m.insert("qp.filter_mean_us", qp.filter_us);
    m.insert("qp.extend_mean_us", qp.extend_us);
    m.insert("index.range_mean_us", qp.range_us);
    m.insert("qp.candidates_mean", qp.candidates);
    let cache = |c: &Counters| c.cache.unwrap_or_default();
    let (c0, c1) = (cache(before), cache(after));
    let lookups = ((c1.hits + c1.misses + c1.stale) - (c0.hits + c0.misses + c0.stale)) as f64;
    m.insert(
        "qp.cache_hit_rate",
        ratio((c1.hits - c0.hits) as f64, lookups),
    );
    m.insert(
        "qp.cache_stale_rate",
        ratio((c1.stale - c0.stale) as f64, lookups),
    );
    m.insert(
        "qp.cache_evictions_per_kquery",
        ratio((c1.evictions - c0.evictions) as f64, lookups / 1e3),
    );

    // client
    m.insert(
        "client.refine_mean_us",
        mean(&durations_us(inputs.spans, SpanKind::ClientRefine)),
    );

    // budget: where the traced end-to-end mean went.
    let mut update_budget = Budget::default();
    let mut query_budget = Budget::default();
    for t in tallies {
        update_budget.add(&t.update_budget);
        query_budget.add(&t.query_budget);
    }
    let share = |part: u64, b: &Budget| ratio(part as f64, b.total_ns as f64);
    let b = &update_budget;
    m.insert(
        "budget.update_mean_us",
        ratio(b.total_ns as f64 / 1e3, b.ops as f64),
    );
    m.insert("budget.update_queue_wait_share", share(b.queue_wait_ns, b));
    m.insert(
        "budget.update_trusted_tier_share",
        share(b.trusted_tier_ns, b),
    );
    m.insert("budget.update_cloak_share", share(b.cloak_ns, b));
    m.insert("budget.update_net_share", share(b.net_ns, b));
    m.insert(
        "budget.update_unattributed_share",
        share(b.unattributed_ns(), b),
    );
    let b = &query_budget;
    m.insert(
        "budget.query_mean_us",
        ratio(b.total_ns as f64 / 1e3, b.ops as f64),
    );
    m.insert("budget.query_queue_wait_share", share(b.queue_wait_ns, b));
    m.insert("budget.query_cloak_share", share(b.cloak_ns, b));
    m.insert("budget.query_net_share", share(b.net_ns, b));
    m.insert("budget.query_refine_share", share(b.refine_ns, b));
    m.insert(
        "budget.query_unattributed_share",
        share(b.unattributed_ns(), b),
    );
    m
}

struct CodecTimes {
    encode_ns: f64,
    decode_ns: f64,
    frame_ns: f64,
    bytes_per_update: f64,
    bytes_per_query: f64,
}

/// Times `wire::encode` / `wire::decode` and `codec::encode_frame` +
/// `FrameDecoder::push` / `next_frame` on the window's own messages:
/// every request as it was sent and every reply as it came back.
fn time_codec(updates: &[(u64, Rect)], queries: &[Rect], answers: &[&Vec<Entry>]) -> CodecTimes {
    let mut messages: Vec<Message> = Vec::new();
    for (i, &(handle, region)) in updates.iter().take(CODEC_UPDATE_SAMPLE).enumerate() {
        let seq = i as u64 + 1;
        messages.push(Message::CloakedUpdate {
            handle,
            seq,
            region,
        });
        messages.push(Message::UpdateAck {
            boot_id: 1,
            handle,
            seq,
        });
    }
    for (i, (&region, list)) in queries.iter().zip(answers).enumerate() {
        messages.push(Message::CloakedQuery {
            pseudonym: i as u64,
            region,
        });
        messages.push(Message::Candidates((*list).clone()));
    }
    let frame_len = |m: &Message| encode_frame(&encode(m)).len() as f64;
    let bytes_per_update = if updates.is_empty() {
        0.0
    } else {
        // Every update and every ack is one fixed-size record.
        frame_len(&messages[0]) + frame_len(&messages[1])
    };
    let query_bytes: Vec<f64> = queries
        .iter()
        .zip(answers)
        .map(|(&region, list)| {
            frame_len(&Message::CloakedQuery {
                pseudonym: 0,
                region,
            }) + frame_len(&Message::Candidates((*list).clone()))
        })
        .collect();
    if messages.is_empty() {
        return CodecTimes {
            encode_ns: 0.0,
            decode_ns: 0.0,
            frame_ns: 0.0,
            bytes_per_update,
            bytes_per_query: 0.0,
        };
    }
    let encoded: Vec<Bytes> = messages.iter().map(encode).collect();
    let per_message =
        |elapsed: std::time::Duration| elapsed.as_nanos() as f64 / CODEC_ITERATIONS as f64;

    let start = Instant::now();
    for m in messages.iter().cycle().take(CODEC_ITERATIONS) {
        black_box(encode(black_box(m)));
    }
    let encode_ns = per_message(start.elapsed());

    let start = Instant::now();
    for b in encoded.iter().cycle().take(CODEC_ITERATIONS) {
        black_box(decode(black_box(b.clone())).is_ok());
    }
    let decode_ns = per_message(start.elapsed());

    let mut decoder = FrameDecoder::new();
    let start = Instant::now();
    for b in encoded.iter().cycle().take(CODEC_ITERATIONS) {
        decoder.push(&encode_frame(black_box(b)));
        black_box(decoder.next_frame().is_ok());
    }
    let frame_ns = per_message(start.elapsed());

    CodecTimes {
        encode_ns,
        decode_ns,
        frame_ns,
        bytes_per_update,
        bytes_per_query: mean(&query_bytes),
    }
}

/// Replays the window's updates as `UpsertRegion` requests straight on
/// the plane; returns each call's wall time in µs.
fn replay_upserts(plane: &ServerPlane, updates: &[(u64, Rect)]) -> Vec<f64> {
    updates
        .iter()
        .enumerate()
        .map(|(i, &(handle, region))| {
            let request = Request::UpsertRegion {
                handle,
                seq: REPLAY_SEQ_BASE + i as u64,
                region,
            };
            let start = Instant::now();
            let response = plane.execute(request);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            debug_assert!(matches!(
                response,
                Response::RegionAck { applied: true, .. }
            ));
            black_box(response);
            us
        })
        .collect()
}

/// Replays the window's queries as `NnCandidates` requests straight on
/// the plane, in their original order, and returns each call's wall
/// time in µs. With the candidate cache on it is emptied first, so the
/// replay sees the sample's own locality rather than a cache the window
/// itself just filled.
fn replay_queries(plane: &ServerPlane, regions: &[Rect], cache: bool) -> Vec<f64> {
    if cache && !regions.is_empty() {
        plane.write().set_query_cache_config(CacheConfig::default());
    }
    regions
        .iter()
        .enumerate()
        .map(|(i, &region)| {
            let request = Request::NnCandidates {
                pseudonym: i as u64,
                region,
                filters: None,
                category: None,
            };
            let start = Instant::now();
            let response = plane.execute(request);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            black_box(response);
            us
        })
        .collect()
}

struct QpTimes {
    filter_us: f64,
    extend_us: f64,
    range_us: f64,
    candidates: f64,
}

/// Times the three steps of Algorithm 2 separately — filter selection,
/// `A_EXT`, range search — on an R-tree the benchmark bulk-loads from
/// the same targets, with the window's own cloaked regions.
fn time_query_processor(population: &Population, regions: &[Rect]) -> QpTimes {
    let index = RTree::bulk_load(
        population
            .targets
            .iter()
            .enumerate()
            .map(|(i, &p)| Entry::point(ObjectId(i as u64), p)),
    );
    let (mut filter_ns, mut extend_ns, mut range_ns, mut candidates) = (0u128, 0u128, 0u128, 0u64);
    let mut timed = 0u64;
    for region in regions {
        let t0 = Instant::now();
        let Some(filters) = assign_filters_public(&index, black_box(region), FILTERS) else {
            continue;
        };
        let t1 = Instant::now();
        let a_ext = extended_area_public(region, black_box(&filters));
        let t2 = Instant::now();
        let found = index.range(black_box(&a_ext));
        let t3 = Instant::now();
        filter_ns += (t1 - t0).as_nanos();
        extend_ns += (t2 - t1).as_nanos();
        range_ns += (t3 - t2).as_nanos();
        candidates += found.len() as u64;
        timed += 1;
    }
    let per = |ns: u128| ratio(ns as f64 / 1e3, timed as f64);
    QpTimes {
        filter_us: per(filter_ns),
        extend_us: per(extend_ns),
        range_us: per(range_ns),
        candidates: ratio(candidates as f64, timed as f64),
    }
}
