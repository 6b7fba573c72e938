//! A real, fault-tolerant network boundary between the anonymizer and the
//! server.
//!
//! Everything else in this crate models the anonymizer↔server hop with the
//! Section 6.3 cost model; this module makes the hop real — and makes it
//! survive the failures a deployed location-based service actually sees:
//!
//! * **Framing** — [`crate::wire`] records behind an 8-byte header
//!   (`u32` length + `u32` CRC-32), so the payload bytes on the wire are
//!   exactly what the cost model prices and corrupted frames are detected
//!   rather than silently decoded into bogus regions.
//! * **Hardened server** — frames are length-capped
//!   ([`MAX_FRAME_LEN`], checked *before* allocating), concurrent
//!   connections are capped, and every malformed frame kills exactly one
//!   connection with an accounted, logged [`NetError`] instead of silently
//!   unwinding a detached thread. Per-handle sequence numbers make cloaked
//!   -update replay idempotent: stale updates are discarded.
//! * **Resilient client** — connect/read/write timeouts, retry with
//!   exponential backoff + deterministic jitter
//!   ([`crate::retry::RetryPolicy`]), and transparent reconnect that
//!   replays every handle's last-known cloaked region so a server restart
//!   loses no private state.
//!
//! The implementation is deliberately std-only: the workspace's
//! dependency budget has no async runtime. Connections are served by the
//! event-driven reactor pool in `crate::reactor` — a few threads
//! multiplexing every connection over non-blocking sockets, with many
//! pipelined frames in flight per connection, executed out of order on a
//! shared pool and replied to in request order (see [`crate::codec`]);
//! `tests/pipeline_conformance.rs` holds it to a strictly serial
//! reference run. The `faults` cargo feature adds [`crate::faults`], a
//! deterministic chaos proxy that drops/corrupts/truncates/delays these
//! frames to prove the above under fire.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use casper_geometry::Rect;
use casper_qp::FilterCount;

use crate::engine::{Request, Response, ServerPlane};
use crate::overload::{BreakerConfig, CircuitBreaker};
use crate::retry::{RetryPolicy, SplitMix64};
use crate::wire::{decode, encode, encode_with_budget, Message, WireError};
use crate::{CasperServer, PrivateHandle};

/// Hard cap on a frame's payload length (1 MiB ≈ 16K records). A peer
/// advertising more is a protocol violation: the frame is rejected
/// *before* any buffer is allocated.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Default cap on concurrently served connections.
pub const MAX_CONNECTIONS: usize = 256;

/// Frame header: payload length (`u32`) + CRC-32 of the payload (`u32`).
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// Errors surfaced by the networked endpoints.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent an undecodable frame.
    Wire(WireError),
    /// The peer violated the protocol (oversized frame, checksum
    /// mismatch, unexpected message kind, ...).
    Protocol(&'static str),
    /// The peer shed the request (or a local circuit breaker fast-failed
    /// it). Back off for at least `retry_after` before trying again.
    Overloaded {
        /// Suggested back-off before the next attempt.
        retry_after: Duration,
    },
    /// The retry loop stopped early because the remaining request budget
    /// could not cover another attempt's worst-case timeout: retrying
    /// would only deliver an answer after its deadline.
    GaveUp {
        /// Budget that was left when the client gave up.
        remaining_budget: Duration,
    },
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(what) => write!(f, "protocol: {what}"),
            NetError::Overloaded { retry_after } => {
                write!(f, "overloaded: retry after {retry_after:?}")
            }
            NetError::GaveUp { remaining_budget } => write!(
                f,
                "gave up: {remaining_budget:?} budget cannot cover another attempt"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// CRC-32 (IEEE 802.3, reflected) of `data`. Bitwise, table-free: frames
/// are small and this avoids a 1 KiB static table.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Splits a frame header into `(payload length, expected CRC-32)`.
pub(crate) fn parse_header(h: &[u8; FRAME_HEADER_LEN]) -> (usize, u32) {
    (
        u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize,
        u32::from_be_bytes([h[4], h[5], h[6], h[7]]),
    )
}

/// Writes one checksummed frame.
pub(crate) fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    stream.write_all(&header)?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME_LEN`] before allocating and the
/// checksum after reading. Used by the client and the replication sender
/// (the server decodes incrementally, see [`crate::codec::FrameDecoder`]).
pub(crate) fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let (len, crc) = parse_header(&header);
    if len > MAX_FRAME_LEN {
        return Err(NetError::Protocol("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    if crc32(&buf) != crc {
        return Err(NetError::Protocol("frame checksum mismatch"));
    }
    Ok(buf)
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Address to bind (default `127.0.0.1:0`, an OS-assigned port).
    /// Binding a *fixed* port lets a restarted server reclaim its old
    /// address so clients heal by reconnecting.
    pub bind: SocketAddr,
    /// Per-frame payload cap; frames advertising more are rejected
    /// without allocation. Defaults to [`MAX_FRAME_LEN`].
    pub max_frame_len: usize,
    /// Cap on concurrently served connections; excess connections are
    /// accepted and immediately closed. Defaults to [`MAX_CONNECTIONS`].
    pub max_connections: usize,
    /// Address for the optional plain-HTTP metrics listener (`/metrics`
    /// and `/flight`, e.g. `127.0.0.1:0` for an OS-assigned port).
    /// `None` (the default) starts no listener; the metrics page is still
    /// reachable over the wire protocol via [`Message::MetricsRequest`].
    pub metrics_http: Option<SocketAddr>,
    /// Explicit boot id to echo in update acks instead of the minted
    /// time-based one. Crash-recovered deployments pass the durability
    /// layer's boot epoch here, so the §8 restart-detection signal fires
    /// exactly once per recovery and is stable under clock trouble.
    /// `None` (the default) mints a fresh id per spawn.
    pub boot_id: Option<u64>,
    /// Reactor threads multiplexing the connections. Defaults to 2.
    pub reactor_threads: usize,
    /// Executor threads completing pipelined frames, shared across all
    /// connections. Defaults to 4.
    pub executor_threads: usize,
    /// Cap on frames in flight per connection; further frames stay
    /// buffered unread — the transport's backpressure. Defaults to 64.
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_frame_len: MAX_FRAME_LEN,
            max_connections: MAX_CONNECTIONS,
            metrics_http: None,
            boot_id: None,
            reactor_threads: 2,
            executor_threads: 4,
            max_pipeline: 64,
        }
    }
}

/// Internal atomic counters shared between the accept loop, the reactor
/// threads and the executor pool.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_connections: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) oversize_frames: AtomicU64,
    pub(crate) checksum_failures: AtomicU64,
    pub(crate) wire_errors: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) stale_updates: AtomicU64,
    pub(crate) connection_errors: AtomicU64,
    pub(crate) half_frame_disconnects: AtomicU64,
    pub(crate) overloaded_replies: AtomicU64,
}

/// A point-in-time snapshot of the server's per-connection error
/// accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Connections accepted (including ones later rejected by the cap).
    pub accepted: u64,
    /// Connections closed immediately because the connection cap was hit.
    pub rejected_connections: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Well-formed frames served.
    pub frames: u64,
    /// Frames rejected for advertising a payload over the cap.
    pub oversize_frames: u64,
    /// Frames rejected for a CRC mismatch.
    pub checksum_failures: u64,
    /// Frames that failed to decode.
    pub wire_errors: u64,
    /// Other protocol violations (unexpected message kinds, ...).
    pub protocol_errors: u64,
    /// Cloaked updates discarded as stale (older sequence number than the
    /// newest applied for that handle).
    pub stale_updates: u64,
    /// Connections that terminated with an error (each logged).
    pub connection_errors: u64,
    /// Connections that hit a clean EOF mid-frame: the client vanished
    /// (crash, power loss, proxy truncation) between the bytes of a
    /// frame. A normal way for a connection to end — counted separately
    /// from [`NetStats::connection_errors`] precisely so ordinary client
    /// disconnects never look like protocol violations.
    pub half_frame_disconnects: u64,
    /// Requests answered with [`Message::Overloaded`] instead of being
    /// executed (expired deadline or shed by admission control).
    pub overloaded_replies: u64,
}

impl StatsInner {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            oversize_frames: self.oversize_frames.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            stale_updates: self.stale_updates.load(Ordering::Relaxed),
            connection_errors: self.connection_errors.load(Ordering::Relaxed),
            half_frame_disconnects: self.half_frame_disconnects.load(Ordering::Relaxed),
            overloaded_replies: self.overloaded_replies.load(Ordering::Relaxed),
        }
    }
}

/// Decrements the active-connection gauge when dropped. The guard lives in
/// the connection's reactor-side state, so every way a connection can end
/// deregisters it.
pub(crate) struct ActiveGuard(Arc<StatsInner>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
        crate::tel::net_server().active.add(-1);
    }
}

/// The networked privacy-aware server: accepts anonymizer connections and
/// serves cloaked updates and queries against a shared [`ServerPlane`].
///
/// Per-message semantics live in [`ServerPlane::execute`]; this type is
/// pure transport — framing, checksums, connection caps, shutdown.
pub struct NetworkServer {
    addr: SocketAddr,
    plane: Arc<ServerPlane>,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reactor: crate::reactor::ReactorPool,
    metrics_http: Option<casper_telemetry::MetricsHttp>,
}

impl NetworkServer {
    /// Starts serving `server` on an OS-assigned localhost port with
    /// default hardening ([`ServerConfig::default`]).
    pub fn spawn(server: CasperServer, filters: FilterCount) -> std::io::Result<Self> {
        Self::spawn_with(server, filters, ServerConfig::default())
    }

    /// Starts serving `server` under an explicit [`ServerConfig`].
    pub fn spawn_with(
        server: CasperServer,
        filters: FilterCount,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        let addr = listener.local_addr()?;
        // A fresh boot id per server instance, echoed in every update ack.
        // Clients compare acked boot ids: a change is the positive signal
        // that the server restarted (and lost its private store), which is
        // the only reliable trigger for a full replay — a reconnect alone
        // is indistinguishable from a transient network blip.
        static BOOT_COUNTER: AtomicU64 = AtomicU64::new(1);
        let boot_id = config.boot_id.unwrap_or_else(|| {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let n = BOOT_COUNTER.fetch_add(1, Ordering::Relaxed);
            // Counter in the high bits keeps same-process restarts
            // distinct even if the clock is coarse or stuck.
            (t ^ (n << 48)) | n
        });
        let plane = Arc::new(ServerPlane::new(server, filters, boot_id));
        let stats = Arc::new(StatsInner::default());
        let stop = Arc::new(AtomicBool::new(false));
        // The reactor pool is spawned up front; the accept loop then only
        // accepts, checks the cap, and hands the stream to a reactor
        // thread.
        let (reactor, mut registrar) =
            crate::reactor::ReactorPool::spawn(&plane, &stats, &stop, &config);
        // A short accept timeout lets the loop notice the stop flag.
        listener.set_nonblocking(true)?;
        let (stats2, stop2) = (Arc::clone(&stats), Arc::clone(&stop));
        let accept_thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stats2.accepted.fetch_add(1, Ordering::Relaxed);
                        crate::tel::net_server().accepted.inc();
                        if stats2.active.load(Ordering::Relaxed) >= config.max_connections as u64 {
                            stats2.rejected_connections.fetch_add(1, Ordering::Relaxed);
                            crate::tel::net_server().rejected_connections.inc();
                            drop(stream); // close immediately: over the cap
                            continue;
                        }
                        stats2.active.fetch_add(1, Ordering::Relaxed);
                        crate::tel::net_server().active.add(1);
                        registrar.register(stream, ActiveGuard(Arc::clone(&stats2)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        // The optional plain-HTTP scrape endpoint (`curl .../metrics`):
        // serves the process-wide registry and flight recorder, which this
        // server records into.
        let metrics_http = match config.metrics_http {
            Some(bind) => Some(casper_telemetry::MetricsHttp::serve_telemetry(
                bind,
                casper_telemetry::global(),
            )?),
            None => None,
        };
        Ok(Self {
            addr,
            plane,
            stats,
            stop,
            accept_thread: Some(accept_thread),
            reactor,
            metrics_http,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The request plane this server dispatches into. Replication
    /// attaches its standby hook here and flips the serving gate during
    /// promotion; everything else should go through
    /// [`NetworkServer::with_server`].
    pub fn plane(&self) -> &Arc<ServerPlane> {
        &self.plane
    }

    /// The bound address of the HTTP metrics listener, when
    /// [`ServerConfig::metrics_http`] asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(|h| h.addr())
    }

    /// A snapshot of the error-accounting counters.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Runs a read-only closure against the hosted server (diagnostics).
    pub fn with_server<R>(&self, f: impl FnOnce(&CasperServer) -> R) -> R {
        f(&self.plane.read())
    }

    /// Runs a mutating closure against the hosted server (e.g. loading
    /// public targets out-of-band).
    pub fn with_server_mut<R>(&self, f: impl FnOnce(&mut CasperServer) -> R) -> R {
        f(&mut self.plane.write())
    }

    /// Stops accepting and joins the accept, reactor and executor threads
    /// — so after `shutdown` returns, the port is free, every connection
    /// is closed and nothing still serves a client of the "dead" server.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        if let Some(http) = self.metrics_http.take() {
            http.shutdown();
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Reactor threads notice the stop flag within one tick and drop
        // every connection they own, which settles the active gauge.
        self.reactor.join();
    }
}

impl Drop for NetworkServer {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// Executes one checksum-verified request frame against the plane and
/// returns the encoded reply payload, with all per-frame accounting.
///
/// This is the application-visible half of a connection: the reactor's
/// executor pool calls it concurrently (safe — the plane is the crate's
/// one synchronized dispatch point, and per-handle sequence numbers make
/// update application order-independent) and the conformance harness
/// calls it serially as the reference.
pub(crate) fn process_frame(
    plane: &ServerPlane,
    stats: &StatsInner,
    frame: Vec<u8>,
) -> Result<Vec<u8>, NetError> {
    // The deadline budget rides the record padding; read it before the
    // buffer moves into the decoder. Always zero ("no deadline") for
    // peers that never stamp budgets.
    let budget_ms = crate::wire::frame_budget(&frame);
    // The trace context rides the padding too: adopting it here links
    // this server-side span tree to the anonymizer's client span, so
    // one trace covers both processes.
    let mut frame_span = match crate::wire::frame_trace(&frame) {
        Some(tc) if tc.trace_id != 0 => crate::tel::span_remote_root(
            casper_telemetry::SpanContext {
                trace_id: tc.trace_id,
                span_id: tc.parent_span,
                sampled: tc.sampled,
            },
            "server_frame",
        ),
        // No wire context → an inert guard (worker threads carry no
        // local context of their own).
        _ => crate::tel::span("server_frame"),
    };
    let msg = match decode(Bytes::from(frame)) {
        Ok(msg) => msg,
        Err(e) => {
            stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().wire_errors.inc();
            return Err(e.into());
        }
    };
    stats.frames.fetch_add(1, Ordering::Relaxed);
    crate::tel::net_server().frames.inc();
    // From here the connection is pure translation: wire message →
    // typed request → the one ServerPlane dispatch → wire reply.
    let req = match Request::from_wire(msg) {
        Ok(req) => req,
        Err(what) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().protocol_errors.inc();
            return Err(NetError::Protocol(what));
        }
    };
    // Budget check at the last hop: work whose deadline has already
    // passed is answered `Overloaded` without touching the plane —
    // the answer would arrive dead anyway, and under a flash crowd
    // executing doomed work is exactly what melts the queue.
    let resp = plane.execute_with_deadline(
        req,
        crate::overload::Deadline::from_budget_millis(budget_ms),
    );
    if let Response::RegionAck { applied: false, .. } = resp {
        stats.stale_updates.fetch_add(1, Ordering::Relaxed);
        crate::tel::net_server().stale_updates.inc();
    }
    if let Response::Overloaded { .. } = resp {
        stats.overloaded_replies.fetch_add(1, Ordering::Relaxed);
        crate::tel::net_server().overloaded_replies.inc();
    }
    frame_span.set_outcome(match &resp {
        Response::Overloaded { .. } => "shed",
        _ => "ok",
    });
    let reply = match resp.into_wire() {
        Ok(reply) => reply,
        Err(what) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().protocol_errors.inc();
            return Err(NetError::Protocol(what));
        }
    };
    Ok(encode(&reply).to_vec())
}

/// Client tuning knobs: timeouts and the retry/backoff policy.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (a dropped response surfaces after this).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Retry/backoff policy for transient transport failures.
    pub retry: RetryPolicy,
    /// Seed for the deterministic backoff jitter stream.
    pub jitter_seed: u64,
    /// Default per-operation deadline budget. When set, every operation
    /// gets `Deadline::within(budget)` at its first attempt: the budget is
    /// stamped into outgoing frames (so the server sheds doomed work) and
    /// bounds the retry loop (see [`NetError::GaveUp`]). `None` (the
    /// default) keeps the pre-deadline behaviour: unbounded operations.
    pub request_budget: Option<Duration>,
    /// Circuit-breaker tuning for this connection. `None` (the default)
    /// disables the breaker. With a breaker, repeated transport failures
    /// or `Overloaded` replies trip it open and subsequent operations
    /// fast-fail with [`NetError::Overloaded`] — no socket work, no
    /// timeout burned — until the cooldown admits a probe.
    pub breaker: Option<BreakerConfig>,
    /// Frames kept in flight by [`NetworkClient::push_updates`]: up to
    /// this many cloaked updates are written before their acks are read,
    /// amortizing one round trip over the whole window. `1` (the
    /// default) is lockstep: one write, one read. Acks are matched
    /// positionally (the server replies in request order), and each
    /// ack's handle and sequence number are checked against the update
    /// it answers.
    pub pipeline_window: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            jitter_seed: 0x00CA_5BE7,
            request_budget: None,
            breaker: None,
            pipeline_window: 1,
        }
    }
}

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Successful TCP (re)connects, including the first.
    pub connects: u64,
    /// Operations that were retried at least once.
    pub retries: u64,
    /// Cloaked regions replayed to a freshly reconnected server.
    pub replayed_regions: u64,
    /// Operations fast-failed by the local circuit breaker (no socket
    /// work at all).
    pub breaker_fast_fails: u64,
    /// Operations abandoned because the remaining deadline budget could
    /// not cover another attempt ([`NetError::GaveUp`]).
    pub gave_up: u64,
    /// `Overloaded` replies received from the server.
    pub overloaded_replies: u64,
    /// Endpoint rotations after a failed attempt (only possible when the
    /// client was built with [`NetworkClient::with_endpoints`] and more
    /// than one endpoint).
    pub failovers: u64,
}

/// The anonymizer-side connection to a [`NetworkServer`].
///
/// Resilient by construction: every operation runs under the configured
/// [`RetryPolicy`], transparently reconnecting on transport failures. On
/// reconnect the client replays each handle's last-known cloaked region
/// (tracked with per-handle sequence numbers, so replay is idempotent and
/// the server discards anything stale) — a restarted server recovers the
/// full private-region population without anonymizer-side bookkeeping.
#[derive(Debug)]
pub struct NetworkClient {
    /// Ordered endpoint list (primary first, standbys after). A plain
    /// client holds exactly one entry; [`NetworkClient::with_endpoints`]
    /// builds the failover form. `active` indexes the endpoint the next
    /// attempt dials; failed attempts rotate it.
    endpoints: Vec<SocketAddr>,
    active: usize,
    config: ClientConfig,
    stream: Option<TcpStream>,
    jitter: SplitMix64,
    /// `handle → (newest sequence, last-known region)`; the replay set.
    last_known: std::collections::BTreeMap<u64, (u64, Rect)>,
    /// Handles whose last-known region may be missing server-side.
    /// Replay works through this set and clears each handle as its ack
    /// lands, so progress survives a reconnect that itself fails
    /// mid-replay — without this, one fault during an N-region replay
    /// would restart it from scratch and a lossy link could starve replay
    /// forever. All tracked handles are marked dirty when the server's
    /// boot id changes (see `note_boot`), never on a mere transport
    /// error: a blip on a lossy link loses no server state, so
    /// re-replaying everything would only feed the starvation above.
    dirty: std::collections::BTreeSet<u64>,
    /// The boot id last seen in an update ack. `None` until the first
    /// ack; a change means the server restarted and lost its private
    /// store, so every tracked handle must be replayed.
    server_boot: Option<u64>,
    /// Explicit deadline for the next operations, overriding the
    /// config-derived per-operation budget (see `set_deadline`).
    deadline: Option<Instant>,
    breaker: Option<CircuitBreaker>,
    stats: ClientStats,
}

impl NetworkClient {
    /// Connects to a server eagerly with the default [`ClientConfig`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut client = Self::with_config(addr, ClientConfig::default());
        match client.ensure_connected() {
            Ok(()) => Ok(client),
            Err(NetError::Io(e)) => Err(e),
            Err(other) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
    }

    /// Creates a client that connects lazily on first use — construction
    /// succeeds even while the server is down, which is what a degraded
    /// anonymizer needs.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        Self {
            endpoints: vec![addr],
            active: 0,
            config,
            stream: None,
            jitter: SplitMix64::new(config.jitter_seed),
            last_known: std::collections::BTreeMap::new(),
            dirty: std::collections::BTreeSet::new(),
            server_boot: None,
            deadline: None,
            breaker: config.breaker.map(CircuitBreaker::new),
            stats: ClientStats::default(),
        }
    }

    /// Creates a lazy client over an ordered endpoint list — primary
    /// first, standbys after. Any failed attempt (transport error or an
    /// `Overloaded` shed, which is what a not-yet-promoted standby
    /// answers) rotates to the next endpoint before the next attempt, so
    /// a primary crash steers the client onto the promoted standby
    /// within its normal retry budget. No extra failover bookkeeping is
    /// needed: the promoted standby's first ack carries a *new* boot id,
    /// and the §8 machinery already answers that with a full idempotent
    /// replay of every tracked handle.
    ///
    /// # Panics
    /// If `endpoints` is empty.
    pub fn with_endpoints(endpoints: Vec<SocketAddr>, config: ClientConfig) -> Self {
        assert!(
            !endpoints.is_empty(),
            "a NetworkClient needs at least one endpoint"
        );
        let mut client = Self::with_config(endpoints[0], config);
        client.endpoints = endpoints;
        client
    }

    /// The boot id last observed in an update ack (`None` before the
    /// first ack). After a failover this is the *promoted* server's
    /// epoch — which is the id degraded-mode reporting must carry so
    /// continuous monitors resubscribe against the right generation.
    pub fn server_boot(&self) -> Option<u64> {
        self.server_boot
    }

    /// The endpoint the next attempt will dial.
    pub fn active_endpoint(&self) -> SocketAddr {
        self.endpoints[self.active]
    }

    /// Rotates to the next endpoint after a failed attempt (a no-op with
    /// a single endpoint). The dirty set is deliberately untouched:
    /// whether the next endpoint is the same primary restarted or a
    /// promoted standby, the boot id in its first ack decides what must
    /// be replayed.
    fn fail_over(&mut self) {
        if self.endpoints.len() > 1 {
            self.active = (self.active + 1) % self.endpoints.len();
            self.stats.failovers += 1;
            crate::tel::record_client_failover();
        }
    }

    /// Pins an explicit deadline for subsequent operations (overriding
    /// [`ClientConfig::request_budget`]); `None` reverts to the
    /// config-derived budget. The pipeline sets this per query so one
    /// end-to-end deadline governs cloak, transport and refinement.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The circuit breaker's current state, when one is configured.
    pub fn breaker_state(&self) -> Option<crate::overload::BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// Resilience counters (reconnects, retries, replays).
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The effective pipeline window (always at least 1; see
    /// [`ClientConfig::pipeline_window`]).
    pub fn pipeline_window(&self) -> usize {
        self.config.pipeline_window.max(1)
    }

    /// Reconfigures the pipeline window for subsequent
    /// [`NetworkClient::push_updates`] calls. `1` restores lockstep.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.config.pipeline_window = window.max(1);
    }

    /// Whether a live TCP stream is currently held. (`false` after a
    /// transport error until the next operation reconnects.)
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Number of handles whose regions will be replayed on reconnect.
    pub fn tracked_handles(&self) -> usize {
        self.last_known.len()
    }

    /// Stops tracking (and replaying) a handle — call when a user signs
    /// off.
    pub fn forget(&mut self, handle: PrivateHandle) {
        self.last_known.remove(&handle.0);
        self.dirty.remove(&handle.0);
    }

    /// Discards the stream after a transport error. Deliberately does
    /// *not* touch the dirty set: a transport blip loses no server state,
    /// and a genuine restart is detected positively through the boot id
    /// in the next ack (`note_boot`).
    fn drop_stream(&mut self) {
        self.stream = None;
    }

    /// Records the boot id carried by an ack. Returns `true` — and marks
    /// every tracked handle dirty — when it differs from the remembered
    /// one, i.e. the server restarted and lost its private store.
    fn note_boot(&mut self, boot_id: u64) -> bool {
        let restarted = self.server_boot.is_some_and(|known| known != boot_id);
        self.server_boot = Some(boot_id);
        if restarted {
            self.dirty.extend(self.last_known.keys().copied());
            crate::tel::record_boot_change(self.dirty.len());
        }
        restarted
    }

    /// Establishes the TCP stream if absent, then replays any dirty
    /// handles ([`Self::flush_dirty`]).
    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.stream.is_none() {
            let addr = self.endpoints[self.active];
            let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(self.config.read_timeout)).ok();
            stream
                .set_write_timeout(Some(self.config.write_timeout))
                .ok();
            self.stream = Some(stream);
            self.stats.connects += 1;
            crate::tel::record_client_connect();
        }
        self.flush_dirty()
    }

    /// Replays every *dirty* handle's last-known region so the server
    /// converges to current state even after losing everything: one raw
    /// attempt over the dirty set — no gate, no retry and no deadline,
    /// because replay is background repair work, not a client-visible
    /// operation. Each acked replay clears its handle immediately, so a
    /// replay interrupted mid-way resumes from where it stopped on the
    /// next reconnect instead of starting over. If an ack reveals a
    /// restart mid-replay (`note_boot`), the newly dirtied handles get the
    /// next pass.
    fn flush_dirty(&mut self) -> Result<(), NetError> {
        while !self.dirty.is_empty() {
            let msgs: Vec<Message> = self
                .dirty
                .iter()
                .map(|handle| {
                    // `dirty` only ever holds tracked handles: `forget`
                    // clears both sets.
                    let (seq, region) = self.last_known[handle];
                    Message::CloakedUpdate {
                        handle: *handle,
                        seq,
                        region,
                    }
                })
                .collect();
            let mut answered = 0;
            let outcome = self.attempt(&msgs, &mut answered, None, &mut Vec::new());
            self.stats.replayed_regions += answered as u64;
            crate::tel::record_client_replay(answered as u64);
            if let Err(e) = outcome {
                self.drop_stream();
                // A shed replay is a failed repair, not the answer to the
                // caller's operation: report it like any other broken
                // exchange so the caller backs off and retries.
                return Err(match e {
                    NetError::Overloaded { .. } => NetError::Protocol("replay was shed"),
                    e => e,
                });
            }
        }
        Ok(())
    }

    /// One attempt at `msgs[*answered..]` on the live stream, no retry:
    /// keeps up to [`Self::pipeline_window`] frames written ahead of the
    /// replies it reads back and advances `*answered` past every request
    /// whose reply arrived, so a retry resends exactly the unanswered
    /// suffix. The server replies in request order, so each reply must
    /// answer the oldest in-flight request: update acks are absorbed into
    /// the replay bookkeeping here, payload-carrying replies are appended
    /// to `replies`. The remaining deadline budget and the calling
    /// thread's span context are stamped into every outgoing frame's
    /// record padding, so the server can shed doomed work and graft its
    /// spans onto this trace.
    fn attempt(
        &mut self,
        msgs: &[Message],
        answered: &mut usize,
        deadline: Option<Instant>,
        replies: &mut Vec<Message>,
    ) -> Result<(), NetError> {
        let window = self.pipeline_window();
        let budget_ms = match deadline {
            None => 0,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                (left.as_millis() as u64).max(1)
            }
        };
        let trace = crate::tel::span_current().map(|ctx| crate::wire::TraceContext {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
            sampled: ctx.sampled,
        });
        let mut sent = *answered;
        while *answered < msgs.len() {
            let stream = self
                .stream
                .as_mut()
                .ok_or(NetError::Protocol("not connected"))?;
            // Keep the window full before blocking on a reply.
            while sent < msgs.len() && sent - *answered < window {
                let payload = encode_with_budget(&msgs[sent], budget_ms);
                let payload = match &trace {
                    Some(tc) => crate::wire::stamp_trace(payload, tc),
                    None => payload,
                };
                write_frame(stream, &payload)?;
                sent += 1;
            }
            let reply = decode(Bytes::from(read_frame(stream)?))?;
            match (&msgs[*answered], reply) {
                (_, Message::Overloaded { retry_after_ms }) => {
                    // The shed answers this request completely, but the
                    // replies to the frames written behind it are still in
                    // flight: kept, the stream would pair them with the
                    // next exchange's requests.
                    if sent - *answered > 1 {
                        self.drop_stream();
                    }
                    return Err(NetError::Overloaded {
                        retry_after: Duration::from_millis(retry_after_ms),
                    });
                }
                // Both the handle and the seq must echo the update. A
                // middlebox that swallows one frame shifts every later ack
                // left; the handle check catches that even when
                // neighbouring updates happen to share a seq.
                (
                    Message::CloakedUpdate { handle, seq, .. },
                    Message::UpdateAck {
                        boot_id,
                        handle: acked,
                        seq: acked_seq,
                    },
                ) if acked == *handle && acked_seq == *seq => {
                    self.note_boot(boot_id);
                    self.dirty.remove(handle);
                }
                (Message::CloakedQuery { .. }, reply @ Message::Candidates(_))
                | (Message::MetricsRequest, reply @ Message::MetricsText(_)) => replies.push(reply),
                _ => {
                    return Err(NetError::Protocol(
                        "reply does not answer the oldest in-flight request",
                    ))
                }
            }
            *answered += 1;
        }
        Ok(())
    }

    /// Worst-case wall-clock cost of one more attempt: a reconnect plus a
    /// full request/response exchange, each bounded by its timeout.
    fn attempt_cost(&self) -> Duration {
        self.config.connect_timeout + self.config.read_timeout + self.config.write_timeout
    }

    /// Runs `msgs` as one exchange under the retry policy and returns the
    /// payload-carrying replies in request order. Any failure drops the
    /// stream (the next attempt reconnects and replays), sleeps the
    /// backoff, and resends what is still unanswered. Safe for every
    /// message kind: queries are read-only and updates are idempotent
    /// under their sequence number.
    ///
    /// Deadline-aware: retries stop with [`NetError::GaveUp`] as soon as
    /// the remaining budget cannot cover the backoff sleep plus another
    /// attempt's worst-case timeouts. Breaker-aware: an open breaker
    /// fast-fails without touching the socket, and an `Overloaded` reply
    /// from the server surfaces immediately as [`NetError::Overloaded`] —
    /// retrying into a shedding server only deepens its queues.
    fn exchange(&mut self, msgs: &[Message]) -> Result<Vec<Message>, NetError> {
        if let Some(b) = self.breaker.as_mut() {
            if let Err(retry_after) = b.check(Instant::now()) {
                self.stats.breaker_fast_fails += 1;
                crate::tel::record_breaker("fast_fail");
                return Err(NetError::Overloaded { retry_after });
            }
        }
        // Budget check at the first hop: a deadline that has already
        // expired cannot be met by any reply, so fail fast without
        // spending a socket round trip on dead work.
        if let Some(d) = self.deadline {
            if d <= Instant::now() {
                self.stats.gave_up += 1;
                return Err(NetError::GaveUp {
                    remaining_budget: Duration::ZERO,
                });
            }
        }
        let deadline = self
            .deadline
            .or_else(|| self.config.request_budget.map(|b| Instant::now() + b));
        let mut replies = Vec::new();
        let mut answered = 0usize;
        let mut last_err = NetError::Protocol("retry budget exhausted");
        for attempt in 0..self.config.retry.attempts() {
            if attempt > 0 {
                if attempt == 1 {
                    self.stats.retries += 1;
                    crate::tel::record_client_retry();
                    // A retried request is interesting however fast it
                    // ends: promote its trace for tail-keep.
                    if let Some(ctx) = crate::tel::span_current() {
                        crate::tel::span_flag(ctx.trace_id);
                    }
                }
                let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                match self.config.retry.delay_within(
                    attempt - 1,
                    remaining,
                    self.attempt_cost(),
                    &mut self.jitter,
                ) {
                    Some(delay) => std::thread::sleep(delay),
                    None => {
                        self.stats.gave_up += 1;
                        return Err(NetError::GaveUp {
                            remaining_budget: remaining.unwrap_or_default(),
                        });
                    }
                }
            }
            // One span per attempt: a retried request shows every socket
            // round trip (and its outcome) in the trace, not just the sum.
            let mut attempt_span = crate::tel::span("client_attempt");
            if attempt_span.is_active() && attempt > 0 {
                attempt_span.set_detail(format!("attempt={attempt}"));
            }
            let outcome = self
                .ensure_connected()
                .and_then(|()| self.attempt(msgs, &mut answered, deadline, &mut replies));
            attempt_span.set_outcome(match &outcome {
                Ok(()) => "ok",
                Err(NetError::Overloaded { .. }) => "overloaded",
                Err(_) => "error",
            });
            drop(attempt_span);
            match outcome {
                Ok(()) => {
                    if let Some(b) = self.breaker.as_mut() {
                        b.record_success();
                    }
                    // An ack that betrayed a server restart left the other
                    // tracked regions dirty: replay them now, best-effort
                    // — anything still dirty is retried by the next
                    // operation.
                    let _ = self.flush_dirty();
                    return Ok(replies);
                }
                Err(e @ NetError::Overloaded { .. }) => {
                    // An explicit shed is a *complete* answer: surface it
                    // without retrying, and let the breaker learn that the
                    // peer is saturated. (`attempt` has already decided
                    // whether the stream survives it.)
                    self.stats.overloaded_replies += 1;
                    if let Some(b) = self.breaker.as_mut() {
                        b.record_failure(Instant::now());
                    }
                    // A shed from one endpoint of a replicated pair may
                    // just be a standby that has not promoted yet: point
                    // the *next* operation at the other endpoint.
                    self.fail_over();
                    return Err(e);
                }
                Err(e) => {
                    if let Some(b) = self.breaker.as_mut() {
                        b.record_failure(Instant::now());
                        if b.state() == crate::overload::BreakerState::Open {
                            crate::tel::record_breaker("open");
                        }
                    }
                    self.drop_stream();
                    self.fail_over();
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Pushes a cloaked location update for `handle`, retrying through
    /// disconnects. The region is remembered for replay-on-reconnect
    /// until overwritten by a newer update or [`NetworkClient::forget`].
    pub fn push_update(&mut self, handle: PrivateHandle, region: Rect) -> Result<(), NetError> {
        self.push_updates(&[(handle, region)])
    }

    /// Pushes a batch of cloaked updates with up to
    /// [`ClientConfig::pipeline_window`] frames in flight, amortizing one
    /// round trip over the whole window instead of paying one per update.
    ///
    /// Sequence numbers are assigned (and the replay set updated) up
    /// front, in batch order; every ack must echo the handle and sequence
    /// of the update it answers, a boot-id change observed in an ack
    /// triggers the dirty-replay, and on a transport error the retry loop
    /// reconnects and resends exactly the unacked suffix — safe because
    /// updates are idempotent under their per-handle sequence numbers.
    pub fn push_updates(&mut self, updates: &[(PrivateHandle, Rect)]) -> Result<(), NetError> {
        if updates.is_empty() {
            return Ok(());
        }
        let msgs: Vec<Message> = updates
            .iter()
            .map(|&(handle, region)| {
                let seq = self
                    .last_known
                    .get(&handle.0)
                    .map_or(1, |&(newest, _)| newest + 1);
                self.last_known.insert(handle.0, (seq, region));
                Message::CloakedUpdate {
                    handle: handle.0,
                    seq,
                    region,
                }
            })
            .collect();
        self.exchange(&msgs).map(drop)
    }

    /// Runs a cloaked NN query, returning the candidate list. Retries
    /// through disconnects (queries are read-only, so this is safe).
    pub fn query_nn(
        &mut self,
        pseudonym: u64,
        region: Rect,
    ) -> Result<Vec<casper_index::Entry>, NetError> {
        match self
            .exchange(&[Message::CloakedQuery { pseudonym, region }])?
            .pop()
        {
            Some(Message::Candidates(list)) => Ok(list),
            _ => Err(NetError::Protocol("expected a candidate list")),
        }
    }

    /// Fetches the server's rendered metrics page over the wire protocol
    /// (the in-band alternative to the HTTP listener). Retries through
    /// disconnects like every other operation.
    pub fn fetch_metrics(&mut self) -> Result<String, NetError> {
        match self.exchange(&[Message::MetricsRequest])?.pop() {
            Some(Message::MetricsText(page)) => Ok(page),
            _ => Err(NetError::Protocol("expected a metrics page")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_geometry::{Point, Rect};
    use casper_index::ObjectId;

    fn server_with_targets(n: u64) -> CasperServer {
        let mut s = CasperServer::new();
        s.load_public_targets((0..n).map(|i| {
            (
                ObjectId(i),
                Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
            )
        }));
        s
    }

    /// A client config tuned for fast tests: short timeouts, quick
    /// backoff.
    fn fast_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(500),
            retry: RetryPolicy {
                max_retries: 8,
                base_delay: Duration::from_millis(5),
                multiplier: 1.6,
                max_delay: Duration::from_millis(100),
                jitter: 0.2,
            },
            jitter_seed: 7,
            ..ClientConfig::default()
        }
    }

    /// Polls `f` until it returns true or ~2 s elapse.
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..200 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn query_round_trip_over_tcp() {
        let server = NetworkServer::spawn(server_with_targets(100), FilterCount::Four).unwrap();
        let mut client = NetworkClient::connect(server.addr()).unwrap();
        let region = Rect::from_coords(0.42, 0.42, 0.58, 0.58);
        let list = client.query_nn(1, region).unwrap();
        assert!(!list.is_empty());
        assert!(list.len() < 100, "candidate list must prune");
        // The same query locally gives the same candidates.
        let local = server.with_server(|s| s.nn_public(&region, FilterCount::Four).0);
        let mut a: Vec<u64> = list.iter().map(|e| e.id.0).collect();
        let mut b: Vec<u64> = local.candidates.iter().map(|e| e.id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        server.shutdown();
    }

    #[test]
    fn updates_become_visible_to_admin_queries() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let mut client = NetworkClient::connect(server.addr()).unwrap();
        for i in 0..25u64 {
            client
                .push_update(PrivateHandle(i), Rect::from_coords(0.1, 0.1, 0.2, 0.2))
                .unwrap();
        }
        assert_eq!(server.with_server(|s| s.private_count()), 25);
        // Re-pushing the same handles replaces, not duplicates.
        client
            .push_update(PrivateHandle(0), Rect::from_coords(0.8, 0.8, 0.9, 0.9))
            .unwrap();
        assert_eq!(server.with_server(|s| s.private_count()), 25);
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_one_server() {
        let server = NetworkServer::spawn(server_with_targets(50), FilterCount::Four).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut client = NetworkClient::connect(addr).unwrap();
                let mut total = 0usize;
                for i in 0..50 {
                    let x = 0.1 + ((t * 50 + i) % 8) as f64 / 10.0;
                    let region = Rect::from_coords(x, 0.4, x + 0.1, 0.5);
                    total += client.query_nn(i as u64, region).unwrap().len();
                }
                total
            }));
        }
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_clean_while_clients_exist() {
        let server = NetworkServer::spawn(server_with_targets(10), FilterCount::One).unwrap();
        let _client = NetworkClient::connect(server.addr()).unwrap();
        server.shutdown(); // must not hang on the idle connection
    }

    #[test]
    fn oversize_frame_is_rejected_without_allocation() {
        let server = NetworkServer::spawn(server_with_targets(10), FilterCount::Four).unwrap();
        // A raw peer advertising a 4 GiB payload: the server must reject
        // the header (no allocation) and kill only this connection.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        raw.write_all(&header).unwrap();
        raw.flush().unwrap();
        assert!(
            eventually(|| server.stats().oversize_frames == 1),
            "oversize frame was not rejected"
        );
        // The connection is dead...
        let mut probe = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(2))).ok();
        assert!(matches!(raw.read(&mut probe), Ok(0) | Err(_)));
        // ...but the server still serves fresh clients.
        let mut client = NetworkClient::connect(server.addr()).unwrap();
        let list = client
            .query_nn(1, Rect::from_coords(0.4, 0.4, 0.6, 0.6))
            .unwrap();
        assert!(!list.is_empty());
        server.shutdown();
    }

    #[test]
    fn corrupted_frame_kills_one_connection_not_the_server() {
        let server = NetworkServer::spawn(server_with_targets(10), FilterCount::Four).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        // A well-formed query frame with a corrupted payload byte (the
        // CRC no longer matches).
        let payload = encode(&Message::CloakedQuery {
            pseudonym: 1,
            region: Rect::from_coords(0.4, 0.4, 0.6, 0.6),
        });
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4..].copy_from_slice(&crc32(&payload).to_be_bytes());
        let mut bad = payload.to_vec();
        bad[20] ^= 0xFF;
        raw.write_all(&header).unwrap();
        raw.write_all(&bad).unwrap();
        raw.flush().unwrap();
        assert!(
            eventually(|| server.stats().checksum_failures == 1),
            "checksum failure not detected"
        );
        assert!(eventually(|| server.stats().connection_errors == 1));
        // A fresh client is unaffected.
        let mut client = NetworkClient::connect(server.addr()).unwrap();
        assert!(!client
            .query_nn(2, Rect::from_coords(0.4, 0.4, 0.6, 0.6))
            .unwrap()
            .is_empty());
        server.shutdown();
    }

    #[test]
    fn stale_updates_are_discarded() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).ok();
        let newer = Rect::from_coords(0.6, 0.6, 0.7, 0.7);
        let older = Rect::from_coords(0.1, 0.1, 0.2, 0.2);
        for (seq, region) in [(5u64, newer), (3u64, older)] {
            let msg = Message::CloakedUpdate {
                handle: 42,
                seq,
                region,
            };
            write_frame(&mut raw, &encode(&msg)).unwrap();
            let ack = read_frame(&mut raw).unwrap();
            // Both updates — including the stale one — are acked, with
            // the sequence echoed back.
            match decode(Bytes::from(ack)).unwrap() {
                Message::UpdateAck { seq: acked, .. } => assert_eq!(acked, seq),
                other => panic!("wrong ack: {other:?}"),
            }
        }
        assert_eq!(server.stats().stale_updates, 1);
        // The out-of-order (stale) region never overwrote the newer one.
        let entries = server.with_server(|s| s.private_entries());
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].mbr, newer);
        server.shutdown();
    }

    #[test]
    fn client_reconnects_and_replays_after_server_restart() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let addr = server.addr();
        let mut client = NetworkClient::with_config(addr, fast_config());
        for i in 0..5u64 {
            let x = i as f64 / 10.0;
            client
                .push_update(PrivateHandle(i), Rect::from_coords(x, 0.1, x + 0.05, 0.15))
                .unwrap();
        }
        assert_eq!(server.with_server(|s| s.private_count()), 5);
        // Restart the server on the same address: all private state is
        // lost server-side.
        server.shutdown();
        let revived = NetworkServer::spawn_with(
            CasperServer::new(),
            FilterCount::Four,
            ServerConfig {
                bind: addr,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(revived.with_server(|s| s.private_count()), 0);
        // The next update transparently reconnects and replays every
        // handle's last-known region first.
        client
            .push_update(PrivateHandle(0), Rect::from_coords(0.8, 0.8, 0.9, 0.9))
            .unwrap();
        assert_eq!(revived.with_server(|s| s.private_count()), 5);
        let stats = client.stats();
        assert!(stats.connects >= 2, "expected a reconnect: {stats:?}");
        // Handle 0's newest region travelled in the triggering update
        // itself; the other four were replayed once the ack's boot id
        // betrayed the restart.
        assert!(
            stats.replayed_regions >= 4,
            "expected a full replay: {stats:?}"
        );
        // The replayed handle 0 carries its *newest* region.
        let entries = revived.with_server(|s| s.private_entries());
        let h0 = entries.iter().find(|e| e.id.0 == 0).copied().unwrap();
        assert_eq!(h0.mbr, Rect::from_coords(0.8, 0.8, 0.9, 0.9));
        revived.shutdown();
    }

    #[test]
    fn connection_cap_rejects_excess_clients() {
        let server = NetworkServer::spawn_with(
            server_with_targets(10),
            FilterCount::Four,
            ServerConfig {
                max_connections: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let mut c1 = NetworkClient::connect(server.addr()).unwrap();
        let mut c2 = NetworkClient::connect(server.addr()).unwrap();
        c1.query_nn(1, region).unwrap();
        c2.query_nn(2, region).unwrap();
        // Both worker slots are now occupied; a third client is accepted
        // at the TCP level but closed before service.
        let mut c3 = NetworkClient::with_config(
            server.addr(),
            ClientConfig {
                retry: RetryPolicy::no_retry(),
                read_timeout: Duration::from_millis(300),
                ..ClientConfig::default()
            },
        );
        assert!(c3.query_nn(3, region).is_err());
        assert!(server.stats().rejected_connections >= 1);
        // The first two clients still work.
        assert!(!c1.query_nn(4, region).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn forget_stops_replay() {
        let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
        let mut client = NetworkClient::with_config(server.addr(), fast_config());
        client
            .push_update(PrivateHandle(1), Rect::from_coords(0.1, 0.1, 0.2, 0.2))
            .unwrap();
        client
            .push_update(PrivateHandle(2), Rect::from_coords(0.3, 0.3, 0.4, 0.4))
            .unwrap();
        assert_eq!(client.tracked_handles(), 2);
        client.forget(PrivateHandle(1));
        assert_eq!(client.tracked_handles(), 1);
        server.shutdown();
    }

    #[test]
    fn metrics_page_served_over_wire_and_http() {
        let server = NetworkServer::spawn_with(
            server_with_targets(10),
            FilterCount::Four,
            ServerConfig {
                metrics_http: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = NetworkClient::connect(server.addr()).unwrap();
        client
            .query_nn(1, Rect::from_coords(0.4, 0.4, 0.6, 0.6))
            .unwrap();
        // In-band: the wire-protocol metrics frame.
        let page = client.fetch_metrics().unwrap();
        assert!(
            page.contains("casper_net_server_frames_total"),
            "wire metrics page missing server counters:\n{page}"
        );
        // Out-of-band: the HTTP scrape endpoint.
        let http = server.metrics_addr().expect("listener requested");
        let mut sock = TcpStream::connect(http).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).ok();
        write!(sock, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut scraped = String::new();
        sock.read_to_string(&mut scraped).unwrap();
        assert!(scraped.starts_with("HTTP/1.1 200 OK"));
        assert!(scraped.contains("casper_net_server_frames_total"));
        server.shutdown();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn half_frame_disconnect_is_not_a_protocol_error() {
        // A peer that dies mid-frame (header sent, payload truncated)
        // was a normal disconnect all along — it must land in the
        // dedicated half-frame counter, not in connection_errors.
        let server = NetworkServer::spawn(server_with_targets(10), FilterCount::Four).unwrap();
        let payload = encode(&Message::CloakedQuery {
            pseudonym: 1,
            region: Rect::from_coords(0.4, 0.4, 0.6, 0.6),
        });
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4..].copy_from_slice(&crc32(&payload).to_be_bytes());
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&header).unwrap();
        raw.write_all(&payload[..payload.len() / 2]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        assert!(
            eventually(|| server.stats().half_frame_disconnects == 1),
            "half-frame disconnect not classified: {:?}",
            server.stats()
        );
        let stats = server.stats();
        assert_eq!(
            stats.connection_errors, 0,
            "half frame miscounted as connection error"
        );
        assert_eq!(stats.protocol_errors, 0);
        server.shutdown();
    }

    #[test]
    fn pipelined_push_matches_lockstep_final_state() {
        // The same batch through a window-16 pipelined client and a
        // window-1 lockstep client leaves identical server state.
        let mut finals = Vec::new();
        for window in [1usize, 16] {
            let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
            let mut client = NetworkClient::with_config(
                server.addr(),
                ClientConfig {
                    pipeline_window: window,
                    ..fast_config()
                },
            );
            let batch: Vec<(PrivateHandle, Rect)> = (0..30u64)
                .map(|i| {
                    let x = (i % 9) as f64 / 10.0;
                    (
                        PrivateHandle(i % 11),
                        Rect::from_coords(x, 0.1, x + 0.08, 0.2),
                    )
                })
                .collect();
            client.push_updates(&batch).unwrap();
            let mut entries = server.with_server(|s| s.private_entries());
            entries.sort_by_key(|e| e.id.0);
            finals.push(entries);
            assert_eq!(server.stats().connection_errors, 0);
            server.shutdown();
        }
        assert_eq!(finals[0], finals[1], "window 16 diverged from lockstep");
    }
}
