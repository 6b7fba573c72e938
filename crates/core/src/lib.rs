//! The **Casper framework** (Figure 1): everything between a mobile user's
//! location-aware device and her query answer.
//!
//! ```text
//!  mobile user ──(uid, x, y, profile)──▶ location anonymizer (trusted)
//!                                              │ cloaked regions,
//!                                              │ pseudonyms
//!                                              ▼
//!                              privacy-aware query processor
//!                              inside the location-based server
//!                                              │ candidate list
//!                                              ▼
//!  mobile user ◀──────(local refinement)── anonymizer routes back
//! ```
//!
//! * [`CasperServer`] — the location-based database server: a *public*
//!   store of exact target objects and a *private* store of cloaked user
//!   regions, with the `casper_qp` privacy-aware query processor embedded.
//! * [`CasperClient`] — the client-side refinement step: evaluating the
//!   exact answer locally from the candidate list.
//! * [`Casper`] — the end-to-end pipeline combining an anonymizer, the
//!   server and the transmission model; produces the per-component time
//!   breakdown of Figure 17.
//! * [`TransmissionModel`] — Section 6.3's cost model: 64-byte records
//!   over a 100 Mbps channel.
//! * [`wire`] — the message encoding between anonymizer and server
//!   (fixed-size records matching the cost model).
//! * [`net`] — the *real* TCP boundary: a hardened server
//!   (frame-length/connection caps, per-connection error accounting) and
//!   a resilient client (timeouts, retry with backoff + jitter,
//!   reconnect-and-replay). [`RemoteCasper`] assembles the pipeline
//!   across it with graceful degradation.
//! * [`engine`] — the **unified request plane**: the typed
//!   [`Request`]/[`Response`] vocabulary, the [`Engine`] interface every
//!   assembly implements, the single [`engine::ServerPlane`] executor
//!   behind both the local pipeline and the TCP server, and
//!   [`ParallelEngine`] — the concurrent assembly that drives a
//!   [`ShardedAnonymizer`] with per-shard parallelism and batch entry
//!   points.
//! * [`faults`] (cargo feature `faults`, on by default — the only
//!   feature; see DESIGN.md "Build configuration") — a deterministic
//!   chaos proxy that drops/corrupts/truncates/delays frames to test the
//!   above.
//! * [`durability`] — crash safety for the trusted tier: a
//!   group-committing write-ahead log, `CSPA` checkpoints, torn-tail
//!   recovery with boot-epoch bumping, and a fault-injecting storage for
//!   kill-loop testing.
//! * [`overload`] — overload control across the request plane: deadline
//!   propagation on every hop, per-shard admission queues with CoDel
//!   shedding and priority classes, per-connection circuit breakers, and
//!   a brownout ladder whose hard invariant is **fail private, not fail
//!   open** — cloaking never weakens `(k, A_min)` under load; work is
//!   shed instead.
//! * [`replication`] — high availability for the trusted tier: the
//!   primary streams its WAL to a hot standby over the wire protocol,
//!   client acknowledgement is gated on a configurable durability mode,
//!   and the standby promotes itself (bumping the §8 boot epoch, fencing
//!   the old primary) when heartbeats stop.
//! * **Candidate caching** — the server tier memoises candidate lists
//!   keyed by cloaked region and query shape, invalidated exactly through
//!   per-cell version counters bumped on every object mutation;
//!   [`ContinuousSet`] builds shared incremental continuous-query
//!   execution on top of it.

#![warn(missing_docs)]

mod client;
pub mod codec;
#[cfg(feature = "faults")]
pub mod conformance;
mod continuous;
mod cost;
pub mod durability;
pub mod engine;
#[cfg(feature = "faults")]
pub mod faults;
pub mod net;
pub mod overload;
mod pipeline;
mod policy;
mod reactor;
pub mod replication;
pub mod retry;
mod server;
mod sharded;
pub mod snapshot;
mod tel;
pub mod wire;

pub use casper_qp::cache::{CacheConfig, CacheStats};
pub use client::CasperClient;
pub use continuous::{ContinuousNn, ContinuousSet};
pub use cost::TransmissionModel;
pub use durability::{
    recover_sharded_engine, DirStorage, DurabilityConfig, DurabilityError, DurableAnonymizer,
    MemStorage, RecoveryReport, Storage,
};
pub use engine::{AnonymizerService, Engine, ParallelEngine, Request, Response, WorkerPool};
pub use net::{ClientConfig, NetError, NetworkClient, NetworkServer, ServerConfig, MAX_FRAME_LEN};
pub use overload::{
    BreakerConfig, BreakerState, BrownoutConfig, BrownoutController, BrownoutLevel, CircuitBreaker,
    Deadline, OverloadConfig, OverloadStats, Priority, Shed, ShedReason,
};
pub use pipeline::{Casper, EndToEndAnswer, EndToEndBreakdown, QueryOutcome, RemoteCasper};
pub use policy::FilterPolicy;
pub use replication::{
    Committed, DurabilityMode, ReplicatedAnonymizer, ReplicationConfig, ReplicationError, Standby,
};
pub use retry::RetryPolicy;
pub use server::{CasperServer, Category, PrivateHandle, QueryStats};
pub use sharded::ShardedAnonymizer;
