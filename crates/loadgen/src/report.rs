//! Result files and what `run` prints: the host's shape, every metric
//! by name with its unit and `{median, iqr, n}`, and the one-line JSON
//! object the benchmark driver reads.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::run::{RunConfig, WorkloadResult};
use crate::stack::flush_probe_ms;
use crate::stats::{percentile, Summary};
use crate::workload::{DRIVERS, PIPELINE_WINDOW, PYRAMID_HEIGHT, SHARD_LEVEL, WORKLOADS};

/// Identifies the layout of result files; `compare` refuses others.
pub const SCHEMA: &str = "casper-loadgen/1";

/// Stand-alone `append` + `sync` pairs in the fsync probe.
const FSYNC_PROBE_SAMPLES: usize = 50;

/// The shape of the host a run was made on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Processors available to the process.
    pub nproc: usize,
    /// Filesystem type under the scratch directory.
    pub scratch_fs: String,
    /// Median stand-alone 4 KiB append + fsync on the scratch directory.
    pub fsync_probe_ms: f64,
    /// `rustc --version`.
    pub rustc: String,
    /// Checked-out commit, if the working directory is a repository.
    pub commit: String,
    /// Where the external crates of this build came from: the registry,
    /// or the stand-ins under `vendor/` (`offline/config.toml` says so
    /// through `CASPER_LOADGEN_DEPS` at compile time).
    pub deps: &'static str,
}

/// [`Host::deps`] of a build against the published crates.
const REGISTRY_DEPS: &str = "registry";

impl Host {
    /// Probes the host. Creates (and removes) a scratch directory.
    pub fn probe() -> std::io::Result<Host> {
        let dir = crate::scratch::ScratchDir::create("probe")?;
        Ok(Host {
            nproc: procfs::nproc(),
            scratch_fs: procfs::fs_type_of(dir.path()),
            fsync_probe_ms: percentile(&flush_probe_ms(dir.path(), FSYNC_PROBE_SAMPLES, 4096), 0.5),
            rustc: procfs::rustc_version(),
            commit: procfs::git_commit(Path::new(".")),
            deps: option_env!("CASPER_LOADGEN_DEPS").unwrap_or(REGISTRY_DEPS),
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("scratch_fs", Json::str(&self.scratch_fs)),
            ("fsync_probe_ms", Json::Num(self.fsync_probe_ms)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
            ("deps", Json::str(self.deps)),
            (
                "network",
                Json::str("loopback interface of this host, not a link"),
            ),
            (
                "fsync",
                Json::str("this host's (a sandbox's shared disk), not a device's: fsync_probe_ms tells its drift from a change to the program"),
            ),
        ])
    }
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("iqr", Json::Num(s.iqr)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
    ])
}

fn workload_json(r: &WorkloadResult) -> Json {
    let end_to_end = END_TO_END.iter().filter_map(|m| {
        r.end_to_end
            .get(m.name)
            .map(|s| (m.name, summary_json(s, m.unit)))
    });
    let per_layer = PER_LAYER.iter().filter_map(|m| {
        r.per_layer.get(m.name).map(|&v| {
            (
                m.name,
                // A layer metric is one reading of one traced window.
                summary_json(&Summary::single(v), m.unit),
            )
        })
    });
    Json::obj([
        ("name", Json::str(r.name)),
        ("rate_ops_s", Json::Num(r.rate_ops_s)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("correct", Json::Bool(r.correct())),
        (
            "teardown_failures",
            Json::Arr(r.teardown_failures.iter().map(Json::str).collect()),
        ),
        ("stream_hash", Json::str(format!("{:016x}", r.stream_hash))),
        (
            "tail_quantiles",
            Json::obj([
                ("op_p95_ms", Json::Num(r.tail_quantiles.0)),
                ("op_p99_ms", Json::Num(r.tail_quantiles.1)),
            ]),
        ),
        (
            "backlog_by_slice",
            Json::Arr(
                r.backlog_by_slice
                    .iter()
                    .map(|&b| Json::Num(f64::from(b)))
                    .collect(),
            ),
        ),
        (
            "capacity_stream_exhausted",
            Json::Bool(r.capacity_stream_exhausted),
        ),
        (
            "by_slice",
            Json::obj(r.by_slice.iter().map(|(name, values)| {
                (
                    *name,
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                )
            })),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
    ])
}

/// The whole result file of one `run`.
pub fn result_file(host: &Host, cfg: &RunConfig, results: &[WorkloadResult]) -> Json {
    let w = cfg.windows;
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("host", host.to_json()),
        ("seed", Json::Num(cfg.seed as f64)),
        (
            "load_shape",
            Json::obj([
                ("users", Json::Num(cfg.scale.users as f64)),
                ("targets", Json::Num(cfg.scale.targets as f64)),
                ("recorded_ticks", Json::Num(cfg.scale.ticks as f64)),
                ("pyramid_height", Json::Num(f64::from(PYRAMID_HEIGHT))),
                ("shard_level", Json::Num(f64::from(SHARD_LEVEL))),
                ("drivers", Json::Num(DRIVERS as f64)),
                ("pipeline_window", Json::Num(PIPELINE_WINDOW as f64)),
                ("setups", Json::Num(cfg.setups as f64)),
            ]),
        ),
        (
            "windows_s",
            Json::obj([
                ("warmup", Json::Num(w.warmup_s)),
                ("latency", Json::Num(w.latency_s)),
                ("traced", Json::Num(w.traced_s)),
                ("capacity", Json::Num(w.capacity_s)),
                ("idle_hold", Json::Num(cfg.idle_hold_s)),
            ]),
        ),
        (
            "workloads",
            Json::Arr(results.iter().map(workload_json).collect()),
        ),
    ])
}

/// Prints every metric of `r` by name with its unit, to stderr (stdout
/// is kept for the driver's line).
pub fn print_workload(r: &WorkloadResult) {
    eprintln!(
        "== {} (rate {} ops/s, {} attempted, {} failed, stream {:016x})",
        r.name, r.rate_ops_s, r.attempted, r.failed, r.stream_hash
    );
    for m in &END_TO_END {
        match r.end_to_end.get(m.name) {
            Some(s) => eprintln!(
                "  {:<38} {:>14.6} {:<8} iqr {:.6} n {}",
                m.name, s.median, m.unit, s.iqr, s.n
            ),
            None => eprintln!("  {:<38} {:>14} {:<8}", m.name, "n/a", m.unit),
        }
    }
    let (p95, p99) = r.tail_quantiles;
    if p99 > 0.0 && (p95 < 0.95 || p99 < 0.99) {
        eprintln!(
            "  (too few samples per slice: op_p95_ms holds the {p95:.4} quantile, *_p99_ms the {p99:.4} quantile)"
        );
    }
    for m in &PER_LAYER {
        if let Some(v) = r.per_layer.get(m.name) {
            eprintln!("  {:<38} {:>14.6} {}", m.name, v, m.unit);
        }
    }
    for failure in &r.teardown_failures {
        eprintln!("  FAILED: {failure}");
    }
}

/// Which half of the metrics the driver asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMetrics {
    /// `--trace 0`: every end-to-end metric `BENCHMARK.json` lists.
    EndToEnd,
    /// `--trace 1`: every per-layer metric.
    PerLayer,
}

/// The single JSON object the driver reads from the last line of
/// standard output.
pub fn driver_line(r: &WorkloadResult, which: DriverMetrics) -> String {
    let value =
        |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
    let metrics = match which {
        DriverMetrics::EndToEnd => {
            Json::obj(END_TO_END.iter().filter(|m| m.in_driver_list).map(|m| {
                let v = r.end_to_end.get(m.name).map_or(0.0, |s| s.median);
                (m.name, value(v, m.unit))
            }))
        }
        DriverMetrics::PerLayer => Json::obj(PER_LAYER.iter().map(|m| {
            let v = r.per_layer.get(m.name).copied().unwrap_or(0.0);
            (m.name, value(v, m.unit))
        })),
    };
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const DRIVER_RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json` as the tables in `metrics.rs` and `workload.rs`
/// define it. The committed file is this output; a self-test compares.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--config",
                "crates/loadgen/offline/config.toml",
                "-p",
                "casper-loadgen",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["crates/loadgen"])),
        ("run_seconds", Json::Num(f64::from(DRIVER_RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_driver_list)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            (
                                "bound",
                                Json::Num(m.bound.expect("a driver-list metric has a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
