//! **casper-loadgen** — the reference end-to-end benchmark of the Casper
//! stack.
//!
//! One command assembles the real system in one process — the trusted
//! tier (`ShardedAnonymizer`, `DurableAnonymizer` over `DirStorage`, or
//! a `ReplicatedAnonymizer` with a hot `Standby`), `NetworkClient` →
//! loopback TCP → `NetworkServer` on the default reactor transport →
//! `ServerPlane` → `CasperServer` / `casper_qp`, and `CasperClient`
//! refinement — drives it open loop from pre-recorded, seeded inputs,
//! checks every answer, and prints every metric by name with its unit.
//!
//! The benchmark does not touch the program. Each layer is measured
//! from outside: timers around the calls into its public functions,
//! public counters read before and after a window, a [`stack::TimedStorage`]
//! decorator around the WAL directory, and replays of the run's own
//! requests against `ServerPlane`, `wire`, `codec`, `casper_qp` and
//! `casper_index`. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod run;
pub mod scratch;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod workload;
