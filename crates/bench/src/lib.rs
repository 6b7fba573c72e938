//! Benchmark harness for the Casper reproduction.
//!
//! The `figures` binary (`cargo run -p casper-bench --release --bin
//! figures -- all`) regenerates every figure of the paper's Section 6 as
//! a text table from the workload builders in [`workload`] — see
//! [`figures`]. The other binaries measure the subsystems beyond the
//! paper (`recovery`, `qp_cache`, `failover`, `overload` and
//! `trace_overhead` write the `BENCH_*.json` artifacts) or audit a
//! cloaking log (`privacy_audit`).
//!
//! Experiment scale: the paper uses up to 50K users and 10K targets. The
//! figure harness defaults to a reduced scale so `figures all` finishes in
//! a couple of minutes on a laptop; pass `--full` for paper scale. The
//! *shapes* (orderings, crossovers) reproduce at both scales; see
//! EXPERIMENTS.md.

pub mod figures;
pub mod table;
pub mod workload;

pub use table::Table;

/// Version of the `BENCH_*.json` result schema. Every emitter writes it
/// as a top-level `"schema_version"` field; CI validates its presence so
/// downstream tooling can detect shape changes instead of misparsing.
pub const SCHEMA_VERSION: u32 = 1;

/// Schema of `recovery` since `checkpoint_size` reports `bytes` /
/// `bytes_per_user` of the one checkpoint format instead of comparing
/// it with the retired v1 encoder. CI validates each artifact against
/// its expected per-file version.
pub const SCHEMA_VERSION_V3: u32 = 3;

/// Schema of `trace_overhead` since `overhead_pct` is the median of
/// paired repetitions written as `{median, iqr, n}` instead of one
/// number.
pub const SCHEMA_VERSION_V2: u32 = 2;
