//! The metric vocabulary: every end-to-end and per-layer metric the
//! benchmark prints, with its unit, direction, bound and — for layer
//! metrics — the end-to-end metric it was predicted to move, written
//! down before anything was measured. `BENCHMARK.json` lists the same
//! names; a self-test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as printed and as stored in result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` calls it a regression; `Some(0.0)` = any rise is
    /// one; `None` = reported, not judged. This table is the one place
    /// bounds are written down: `compare` reads it, `BENCHMARK.json` is
    /// generated from it (`metrics --benchmark-json`, checked by a
    /// self-test) and `metrics` prints it. Every bound was widened until
    /// the two agreement run sets under `baseline/` — the same commit
    /// twice — read `unchanged`; a metric that no bound below 50 % could
    /// hold still is reported only. The metrics handed to the driver
    /// carry the widest bound it allows.
    pub bound: Option<f64>,
    /// Whether `BENCHMARK.json` hands the metric to the driver, which
    /// rejects a run set whose spread exceeds the bound and allows no
    /// bound above 25 %. Such a metric has to exist on every workload,
    /// never be zero, and hold still on this host: the per-kind latencies
    /// and the candidate count do not exist without that kind of
    /// operation, `failed_ratio` is 0 on a healthy run, the tail
    /// percentiles of the durable workloads double in the shared disk's
    /// slow minutes, and CPU time per operation swells by half for
    /// minutes when the host's core is shared. Those stay in the result
    /// files and in `compare`.
    pub in_driver_list: bool,
    /// What it measures.
    pub meaning: &'static str,
}

/// Every end-to-end metric, in printing order.
pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.25),
        in_driver_list: true,
        meaning: "build population and streams, spawn servers, connect, register every user, push every first region",
    },
    EndToEnd {
        name: "capacity_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.25),
        in_driver_list: true,
        meaning: "closed loop, both drivers back to back: completed-and-correct operations per second",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.25),
        in_driver_list: true,
        meaning: "open loop at the pinned rate: due -> done over every operation of the mix, median",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
        in_driver_list: false,
        meaning: "same, 95th percentile",
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
        in_driver_list: false,
        meaning: "same, 99th percentile (or the highest percentile with 10 samples beyond it in every slice)",
    },
    EndToEnd {
        name: "update_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.30),
        in_driver_list: false,
        meaning: "due -> applied at the anonymizer at the workload's durability horizon and region acked by the server",
    },
    EndToEnd {
        name: "update_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
        in_driver_list: false,
        meaning: "same, tail percentile",
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.30),
        in_driver_list: false,
        meaning: "due -> cloak -> query_nn -> refine_nn_entries returns the answer",
    },
    EndToEnd {
        name: "query_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
        in_driver_list: false,
        meaning: "same, tail percentile",
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "share",
        better: Better::Lower,
        bound: Some(0.0),
        in_driver_list: false,
        meaning: "operations that errored, were shed, gave up, were not standby-synced or failed a check, over operations attempted",
    },
    EndToEnd {
        name: "candidates_per_query",
        unit: "entries",
        better: Better::Lower,
        bound: Some(0.15),
        in_driver_list: false,
        meaning: "mean candidate-list length: the bytes the paper ships to the device",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.50),
        in_driver_list: false,
        meaning: "process user+sys CPU over the open-loop window divided by operations completed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Some(0.25),
        in_driver_list: true,
        meaning: "VmHWM when the workload ends",
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric, taken from outside the layer during the traced
/// window (or from a replay of the run's own requests right after it).
/// A value of 0 on a workload means the layer is not on its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Name: `<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Which end-to-end metric, on which workload, the metric was
    /// predicted to move (README, "How the metrics interact").
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const UPDATE_PATH: &str =
    "capacity_ops_s and update_p50_ms on update_stream; no change on query_snapshot";
const FSYNC_PATH: &str = "update_p50_ms, update_p99_ms, capacity_ops_s on mixed_durable and mixed_replicated; none on update_stream or query_snapshot";
const REPLICATION_PATH: &str =
    "update_p50_ms and update_p99_ms on mixed_replicated only; mixed_durable is its control";
const QUERY_RTT: &str = "query_p50_ms on query_snapshot (one reactor wake per op)";
const PER_MESSAGE: &str =
    "capacity_ops_s on update_stream (per-message cost at the smallest message size)";
const QP_PATH: &str = "query_p50_ms and candidates_per_query on query_snapshot";
const CACHE_PATH: &str =
    "query_p50_ms on mixed_durable and mixed_replicated; must not move query_snapshot";
const CLOAK_SIZE: &str =
    "candidates_per_query on every query workload (bigger cloaks, longer lists)";
const GENERATOR: &str = "none: a check on the generator itself";

/// Every per-layer metric, grouped by layer.
pub const PER_LAYER: [PerLayer; 68] = [
    // loadgen
    layer("loadgen.sched_lag_p99_ms", "ms", Better::Lower, GENERATOR),
    layer("loadgen.backlog_max_ops", "count", Better::Lower, GENERATOR),
    layer("loadgen.backlog_growth_ops", "count", Better::Lower, GENERATOR),
    layer("loadgen.trace_overhead_ratio", "ratio", Better::Lower, GENERATOR),
    // sharded / grid
    layer("sharded.update_mean_us", "us", Better::Lower, UPDATE_PATH),
    layer("sharded.update_p99_us", "us", Better::Lower, UPDATE_PATH),
    layer("sharded.maintained_cells", "count", Better::Lower, UPDATE_PATH),
    layer("grid.counter_updates_per_update", "count", Better::Lower, UPDATE_PATH),
    layer("grid.hash_updates_per_update", "count", Better::Lower, UPDATE_PATH),
    layer("grid.splits_per_kupdate", "count", Better::Lower, UPDATE_PATH),
    layer("grid.merges_per_kupdate", "count", Better::Lower, UPDATE_PATH),
    layer("grid.cloak_mean_us", "us", Better::Lower, "update_p50_ms on update_stream and query_p50_ms on query_snapshot"),
    layer("grid.cloak_p99_us", "us", Better::Lower, "update_p99_ms on update_stream and query_p99_ms on query_snapshot"),
    layer("grid.levels_climbed_mean", "count", Better::Lower, "grid.cloak_mean_us, then as above"),
    layer("grid.cloak_area_over_amin_mean", "ratio", Better::Lower, CLOAK_SIZE),
    layer("grid.k_achieved_over_k_mean", "ratio", Better::Lower, CLOAK_SIZE),
    // durability
    layer("durability.commit_mean_us", "us", Better::Lower, FSYNC_PATH),
    layer("durability.commit_p99_us", "us", Better::Lower, FSYNC_PATH),
    layer("durability.fsync_mean_us", "us", Better::Lower, FSYNC_PATH),
    layer("durability.fsync_p99_us", "us", Better::Lower, FSYNC_PATH),
    layer("durability.fsyncs_per_op", "count", Better::Lower, FSYNC_PATH),
    layer("durability.wal_bytes_per_op", "B", Better::Lower, FSYNC_PATH),
    layer("durability.checkpoints", "count", Better::Lower, "update_p99_ms only (periodic spikes a median hides)"),
    layer("durability.checkpoint_mean_ms", "ms", Better::Lower, "update_p99_ms only (periodic spikes a median hides)"),
    layer("durability.recovery_s", "s", Better::Lower, "none during the run: restart time after a crash"),
    // replication
    layer("replication.commit_mean_us", "us", Better::Lower, REPLICATION_PATH),
    layer("replication.commit_p99_us", "us", Better::Lower, REPLICATION_PATH),
    layer("replication.lag_max_ops", "count", Better::Lower, REPLICATION_PATH),
    layer("replication.degraded_ratio", "share", Better::Lower, "failed_ratio on mixed_replicated"),
    layer("replication.standby_fsyncs_per_op", "count", Better::Lower, REPLICATION_PATH),
    // wire / codec
    layer("wire.encode_mean_ns", "ns", Better::Lower, PER_MESSAGE),
    layer("wire.decode_mean_ns", "ns", Better::Lower, PER_MESSAGE),
    layer("codec.frame_roundtrip_mean_ns", "ns", Better::Lower, PER_MESSAGE),
    layer("wire.bytes_per_update", "B", Better::Lower, PER_MESSAGE),
    layer("wire.bytes_per_query", "B", Better::Lower, "query_p50_ms on query_snapshot, with candidates_per_query"),
    // net / reactor
    layer("net.update_window_rtt_mean_us", "us", Better::Lower, UPDATE_PATH),
    layer("net.update_window_rtt_p99_us", "us", Better::Lower, "update_p99_ms on update_stream"),
    layer("net.query_rtt_mean_us", "us", Better::Lower, QUERY_RTT),
    layer("net.query_rtt_p99_us", "us", Better::Lower, "query_p99_ms on query_snapshot"),
    layer("transport.update_overhead_mean_us", "us", Better::Lower, PER_MESSAGE),
    layer("transport.query_overhead_mean_us", "us", Better::Lower, QUERY_RTT),
    layer("net.retries_per_kop", "count", Better::Lower, "op_p99_ms and failed_ratio on every workload"),
    layer("net.overloaded_per_kop", "count", Better::Lower, "failed_ratio on every workload"),
    layer("net.stale_updates_per_kop", "count", Better::Lower, "none on a healthy run: replayed or reordered updates"),
    layer("reactor.idle_cpu_ms_per_s", "ms/s", Better::Lower, "cpu_ms_per_op on every workload"),
    // engine (ServerPlane)
    layer("plane.upsert_mean_us", "us", Better::Lower, UPDATE_PATH),
    layer("plane.nn_mean_us", "us", Better::Lower, QP_PATH),
    layer("plane.nn_p99_us", "us", Better::Lower, "query_p99_ms on mixed_durable and mixed_replicated, beside a rising plane.upsert_mean_us: reads wait on the plane lock before throughput stops rising"),
    // qp / index
    layer("qp.filter_mean_us", "us", Better::Lower, QP_PATH),
    layer("qp.extend_mean_us", "us", Better::Lower, QP_PATH),
    layer("index.range_mean_us", "us", Better::Lower, QP_PATH),
    layer("qp.candidates_mean", "entries", Better::Lower, QP_PATH),
    layer("qp.cache_hit_rate", "share", Better::Higher, CACHE_PATH),
    layer("qp.cache_stale_rate", "share", Better::Lower, CACHE_PATH),
    layer("qp.cache_evictions_per_kquery", "count", Better::Lower, CACHE_PATH),
    // client
    layer("client.refine_mean_us", "us", Better::Lower, "query_p50_ms on query_snapshot, with candidates_per_query"),
    // budget: shares of the traced end-to-end mean, which add up to 1
    layer("budget.update_mean_us", "us", Better::Lower, "the traced run's own end-to-end update mean: the base of the shares below"),
    layer("budget.update_queue_wait_share", "share", Better::Lower, "update_p50_ms: time spent due but not yet picked up"),
    layer("budget.update_trusted_tier_share", "share", Better::Lower, "update_p50_ms: sharded / durability / replication calls"),
    layer("budget.update_cloak_share", "share", Better::Lower, "update_p50_ms: grid.cloak calls"),
    layer("budget.update_net_share", "share", Better::Lower, "update_p50_ms: push_updates windows"),
    layer("budget.update_unattributed_share", "share", Better::Lower, "none: what no span covers; the run fails above 0.10"),
    layer("budget.query_mean_us", "us", Better::Lower, "the traced run's own end-to-end query mean: the base of the shares below"),
    layer("budget.query_queue_wait_share", "share", Better::Lower, "query_p50_ms: time spent due but not yet picked up"),
    layer("budget.query_cloak_share", "share", Better::Lower, "query_p50_ms: grid.cloak calls"),
    layer("budget.query_net_share", "share", Better::Lower, "query_p50_ms: query_nn round trips"),
    layer("budget.query_refine_share", "share", Better::Lower, "query_p50_ms: refine_nn_entries calls"),
    layer("budget.query_unattributed_share", "share", Better::Lower, "none: what no span covers; the run fails above 0.10"),
];

/// Above this share of the traced end-to-end mean not covered by any
/// span, the run fails: the layer table no longer explains the total.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .filter(|m| m.in_driver_list)
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(end_to_end("setup_s").is_some_and(|m| m.in_driver_list));
    }
}
