//! Deterministic fault injection for the anonymizer↔server hop.
//!
//! [`ChaosProxy`] is an in-process, frame-aware TCP proxy: it sits between
//! a [`crate::net::NetworkClient`] and a [`crate::net::NetworkServer`],
//! parses the 8-byte frame headers, and — driven by a seeded
//! [`SplitMix64`] stream — drops frames, corrupts payload bytes (leaving
//! the original CRC so the corruption is *detectable*), truncates frames
//! mid-payload, delays delivery, and severs connections mid-stream.
//!
//! Determinism is the point: the same [`FaultConfig`] (same seed, same
//! rates) injects the same fault sequence per connection/direction, so a
//! chaos test that fails replays bit-identically. Each proxied connection
//! derives its injector seeds from `seed ^ connection index ^ direction`,
//! which keeps connections independent but reproducible.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::{parse_header, FRAME_HEADER_LEN};
use crate::net::MAX_FRAME_LEN;
use crate::retry::SplitMix64;

/// Per-frame fault probabilities and the seed that makes them replayable.
///
/// Probabilities are evaluated in order (drop, corrupt, truncate,
/// disconnect) from a single uniform draw, so they should sum to at most
/// 1; the remainder delivers the frame intact. An independent draw decides
/// whether a delivered/corrupted frame is additionally delayed.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_frame: f64,
    /// Probability one payload byte is flipped (CRC left intact, so the
    /// receiver detects it).
    pub corrupt_frame: f64,
    /// Probability the frame is cut mid-payload and the connection then
    /// severed (a torn write).
    pub truncate_frame: f64,
    /// Probability the connection is severed before the frame is sent.
    pub disconnect: f64,
    /// Probability a delivered frame is delayed by [`FaultConfig::delay`].
    pub delay_frame: f64,
    /// The injected delay duration.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xDEAD_BEEF,
            drop_frame: 0.0,
            corrupt_frame: 0.0,
            truncate_frame: 0.0,
            disconnect: 0.0,
            delay_frame: 0.0,
            delay: Duration::from_millis(5),
        }
    }
}

impl FaultConfig {
    /// Preset: a peer that is alive but pathologically slow — every
    /// frame arrives, every frame is late by `delay`. Models a stalled
    /// upstream that keeps connections open (the worst case for naive
    /// timeouts: nothing ever *fails*, everything just crawls).
    pub fn stalled_peer(seed: u64, delay: Duration) -> Self {
        Self {
            seed,
            delay_frame: 1.0,
            delay,
            ..Self::default()
        }
    }

    /// Preset: an overloaded peer shedding under pressure — most frames
    /// are late, a few are dropped outright. Models a remote tier whose
    /// queues are full but whose sockets are still up.
    pub fn overloaded_peer(seed: u64) -> Self {
        Self {
            seed,
            drop_frame: 0.05,
            delay_frame: 0.6,
            delay: Duration::from_millis(10),
            ..Self::default()
        }
    }
}

/// What the injector decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward the frame unmodified.
    Deliver,
    /// Swallow the frame entirely.
    Drop,
    /// Flip one payload byte (keeping the original CRC).
    Corrupt,
    /// Forward only part of the frame, then sever the connection.
    Truncate,
    /// Sever the connection without forwarding.
    Disconnect,
}

/// A seeded per-direction fault stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SplitMix64,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector drawing from `config`'s probabilities with the
    /// given stream seed (callers usually derive it from `config.seed`).
    pub fn new(config: FaultConfig, stream_seed: u64) -> Self {
        Self {
            config,
            rng: SplitMix64::new(stream_seed),
            injected: 0,
        }
    }

    /// Decides the fate of the next frame: an action plus an optional
    /// extra delivery delay.
    pub fn next_action(&mut self) -> (FaultAction, Option<Duration>) {
        let draw = self.rng.next_f64();
        let c = &self.config;
        let mut edge = c.drop_frame;
        let action = if draw < edge {
            FaultAction::Drop
        } else if draw < {
            edge += c.corrupt_frame;
            edge
        } {
            FaultAction::Corrupt
        } else if draw < {
            edge += c.truncate_frame;
            edge
        } {
            FaultAction::Truncate
        } else if draw < {
            edge += c.disconnect;
            edge
        } {
            FaultAction::Disconnect
        } else {
            FaultAction::Deliver
        };
        if action != FaultAction::Deliver {
            self.injected += 1;
        }
        let delay = if c.delay_frame > 0.0 && self.rng.next_f64() < c.delay_frame {
            self.injected += 1;
            Some(c.delay)
        } else {
            None
        };
        (action, delay)
    }

    /// Flips one payload byte in place (no-op on empty payloads).
    pub fn corrupt_byte(&mut self, payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let idx = self.rng.next_below(payload.len() as u64) as usize;
        payload[idx] ^= 0x80 | (self.rng.next_u64() as u8 & 0x7F);
    }

    /// Number of faults injected so far on this stream.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Per-kind injected-fault totals of a [`ChaosProxy`], for asserting that
/// observed client-side retries line up with what was actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Frames silently dropped.
    pub drops: u64,
    /// Frames with one payload byte flipped (CRC left intact).
    pub corrupts: u64,
    /// Frames cut mid-payload with the connection then severed.
    pub truncates: u64,
    /// Connections severed before a frame was forwarded.
    pub disconnects: u64,
    /// Frames delivered late.
    pub delays: u64,
}

impl FaultTally {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.drops + self.corrupts + self.truncates + self.disconnects + self.delays
    }
}

/// Shared per-kind fault counters (one set per proxy, updated by every
/// pump thread).
#[derive(Debug, Default)]
struct TallyCells {
    drops: AtomicU64,
    corrupts: AtomicU64,
    truncates: AtomicU64,
    disconnects: AtomicU64,
    delays: AtomicU64,
}

impl TallyCells {
    fn note(cell: &AtomicU64, kind: &'static str) {
        cell.fetch_add(1, Ordering::Relaxed);
        crate::tel::record_injected_fault(kind);
    }

    fn snapshot(&self) -> FaultTally {
        FaultTally {
            drops: self.drops.load(Ordering::Relaxed),
            corrupts: self.corrupts.load(Ordering::Relaxed),
            truncates: self.truncates.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

/// A frame-aware chaos proxy between a client and an upstream server.
///
/// Listens on an OS-assigned localhost port; every accepted connection is
/// paired with a fresh upstream connection and pumped in both directions
/// by two threads, each with its own deterministic [`FaultInjector`].
pub struct ChaosProxy {
    addr: SocketAddr,
    tally: Arc<TallyCells>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts proxying to `upstream` with faults drawn from `config`.
    pub fn spawn(upstream: SocketAddr, config: FaultConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tally = Arc::new(TallyCells::default());
        let (stop2, tally2) = (Arc::clone(&stop), Arc::clone(&tally));
        let accept_thread = std::thread::spawn(move || {
            let mut conn_index = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        conn_index += 1;
                        let server = match TcpStream::connect(upstream) {
                            Ok(s) => s,
                            Err(_) => continue, // upstream down: drop the client
                        };
                        for (src, dst, salt) in [
                            (client.try_clone(), server.try_clone(), 0x5EED_0001u64),
                            (server.try_clone(), client.try_clone(), 0x5EED_0002u64),
                        ] {
                            let (Ok(src), Ok(dst)) = (src, dst) else {
                                continue;
                            };
                            let injector = FaultInjector::new(
                                config,
                                config.seed ^ conn_index.rotate_left(17) ^ salt,
                            );
                            let stop3 = Arc::clone(&stop2);
                            let tally3 = Arc::clone(&tally2);
                            std::thread::spawn(move || {
                                pump(src, dst, injector, &stop3, &tally3);
                            });
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Self {
            addr,
            tally,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total faults injected across all connections and directions.
    pub fn injected(&self) -> u64 {
        self.tally.snapshot().total()
    }

    /// Per-kind injected-fault totals across all connections and
    /// directions.
    pub fn tally(&self) -> FaultTally {
        self.tally.snapshot()
    }

    /// Stops accepting new connections and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Fills `buf` from `src`, keeping progress across read timeouts so the
/// stop flag is observed. `false` on shutdown, EOF or a socket error:
/// all three end the pair the same way.
fn read_full(src: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut done = 0usize;
    while done < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        match src.read(&mut buf[done..]) {
            Ok(0) => return false,
            Ok(n) => done += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
    true
}

/// Pumps frames from `src` to `dst`, injecting faults per frame. Exits on
/// EOF, any socket error, an injected disconnect/truncation, or shutdown.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    mut injector: FaultInjector,
    stop: &AtomicBool,
    tally: &TallyCells,
) {
    src.set_nodelay(true).ok();
    dst.set_nodelay(true).ok();
    // Short read timeouts keep the pump responsive to the stop flag.
    src.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let sever = |src: &TcpStream, dst: &TcpStream| {
        src.shutdown(Shutdown::Both).ok();
        dst.shutdown(Shutdown::Both).ok();
    };
    loop {
        let mut header = [0u8; FRAME_HEADER_LEN];
        if !read_full(&mut src, &mut header, stop) {
            sever(&src, &dst);
            return;
        }
        let (len, _crc) = parse_header(&header);
        if len > MAX_FRAME_LEN {
            // Never proxy an allocation attack against ourselves; forward
            // the hostile header and let the receiver reject it.
            if dst.write_all(&header).is_err() {
                sever(&src, &dst);
                return;
            }
            continue;
        }
        let mut payload = vec![0u8; len];
        if !read_full(&mut src, &mut payload, stop) {
            sever(&src, &dst);
            return;
        }
        let (action, delay) = injector.next_action();
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => TallyCells::note(&tally.drops, "drop"),
            FaultAction::Corrupt => TallyCells::note(&tally.corrupts, "corrupt"),
            FaultAction::Truncate => TallyCells::note(&tally.truncates, "truncate"),
            FaultAction::Disconnect => TallyCells::note(&tally.disconnects, "disconnect"),
        }
        if let Some(d) = delay {
            TallyCells::note(&tally.delays, "delay");
            std::thread::sleep(d);
        }
        let forwarded = match action {
            FaultAction::Drop => Ok(()),
            FaultAction::Deliver => dst
                .write_all(&header)
                .and_then(|()| dst.write_all(&payload))
                .and_then(|()| dst.flush()),
            FaultAction::Corrupt => {
                injector.corrupt_byte(&mut payload);
                dst.write_all(&header)
                    .and_then(|()| dst.write_all(&payload))
                    .and_then(|()| dst.flush())
            }
            FaultAction::Truncate => {
                let cut = payload.len() / 2;
                let _ = dst
                    .write_all(&header)
                    .and_then(|()| dst.write_all(&payload[..cut]))
                    .and_then(|()| dst.flush());
                sever(&src, &dst);
                return;
            }
            FaultAction::Disconnect => {
                sever(&src, &dst);
                return;
            }
        };
        if forwarded.is_err() {
            sever(&src, &dst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetworkClient, NetworkServer};
    use crate::CasperServer;
    use casper_geometry::{Point, Rect};
    use casper_index::ObjectId;
    use casper_qp::FilterCount;

    #[test]
    fn injector_is_deterministic() {
        let config = FaultConfig {
            seed: 99,
            drop_frame: 0.2,
            corrupt_frame: 0.1,
            truncate_frame: 0.05,
            disconnect: 0.05,
            delay_frame: 0.1,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(config, 1234);
        let mut b = FaultInjector::new(config, 1234);
        for _ in 0..500 {
            assert_eq!(a.next_action(), b.next_action());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "faults should fire at these rates");
    }

    #[test]
    fn injector_rates_are_roughly_honoured() {
        let config = FaultConfig {
            seed: 7,
            drop_frame: 0.3,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(config, 7);
        let drops = (0..10_000)
            .filter(|_| matches!(inj.next_action().0, FaultAction::Drop))
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate} far from 0.3");
    }

    #[test]
    fn corrupt_byte_changes_exactly_one_byte() {
        let mut inj = FaultInjector::new(FaultConfig::default(), 5);
        let original = vec![0u8; 64];
        let mut copy = original.clone();
        inj.corrupt_byte(&mut copy);
        let diffs = original.iter().zip(&copy).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        // Empty payloads are a no-op, not a panic.
        inj.corrupt_byte(&mut []);
    }

    #[test]
    fn overload_presets_shape_the_fault_stream() {
        let stalled = FaultConfig::stalled_peer(9, Duration::from_millis(3));
        let mut inj = FaultInjector::new(stalled, 9);
        for _ in 0..100 {
            let (action, delay) = inj.next_action();
            assert_eq!(
                action,
                FaultAction::Deliver,
                "stalled peer never loses frames"
            );
            assert_eq!(delay, Some(Duration::from_millis(3)));
        }
        let overloaded = FaultConfig::overloaded_peer(9);
        let mut inj = FaultInjector::new(overloaded, 9);
        let (mut drops, mut delays) = (0u32, 0u32);
        for _ in 0..2_000 {
            let (action, delay) = inj.next_action();
            drops += u32::from(action == FaultAction::Drop);
            delays += u32::from(delay.is_some());
        }
        assert!(drops > 0, "overloaded peer drops some frames");
        assert!(delays > drops, "delays dominate drops under overload");
    }

    #[test]
    fn transparent_proxy_preserves_traffic() {
        // With all rates at zero the proxy must be invisible.
        let mut backend = CasperServer::new();
        backend.load_public_targets((0..50u64).map(|i| {
            (
                ObjectId(i),
                Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
            )
        }));
        let server = NetworkServer::spawn(backend, FilterCount::Four).unwrap();
        let proxy = ChaosProxy::spawn(server.addr(), FaultConfig::default()).unwrap();
        let mut via_proxy = NetworkClient::connect(proxy.addr()).unwrap();
        let mut direct = NetworkClient::connect(server.addr()).unwrap();
        let region = Rect::from_coords(0.3, 0.3, 0.7, 0.7);
        let mut a: Vec<u64> = via_proxy
            .query_nn(1, region)
            .unwrap()
            .iter()
            .map(|e| e.id.0)
            .collect();
        let mut b: Vec<u64> = direct
            .query_nn(2, region)
            .unwrap()
            .iter()
            .map(|e| e.id.0)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(proxy.injected(), 0);
        assert_eq!(proxy.tally(), FaultTally::default());
        proxy.shutdown();
        server.shutdown();
    }
}
