//! Event-driven server transport: a small reactor pool multiplexing many
//! connections, each frame executed on the reactor thread that read it.
//!
//! The workspace's dependency budget has no async runtime, so readiness
//! comes from one hand-declared `poll(2)`: each reactor thread blocks, with
//! no timeout, on its own non-blocking sockets plus a per-reactor *wake
//! socket* (one end of a `UnixStream` pair). It runs only when bytes
//! arrive, a socket it has replies for turns writable, the accept loop
//! hands over a connection, or the server stops; an idle server burns no
//! CPU. One reactor thread services *all* of its connections, so
//! concurrent sessions are not capped by a thread per connection, and a
//! connection can have a whole window of frames pipelined at once.
//!
//! The park protocol ([`Parker`] / [`Waker`]) loses no wakeup. The
//! reactor sets its waker's `parked` flag, fences, and re-checks the
//! connection channel and the stop flag, calling `poll` only if both are
//! empty; afterwards it clears `parked` and drains the wake socket. A
//! waker (the accept loop's registrar, shutdown) first publishes its
//! message, fences, and writes one wake byte only if it is the one that
//! flips `parked` back off — so there is at most one byte per park, and
//! none while the reactor is busy. Whichever side fences second sees the
//! other's write. The accept loop parks the same way on its listener and
//! the stop flag.
//!
//! The owning reactor thread does everything for a connection: socket
//! I/O, framing (a [`FrameDecoder`]), and [`process_frame`] — the
//! budget/trace/decode/execute/encode path the conformance harness also
//! runs — for one whole frame at a time, appending each reply to the
//! connection's output before it pulls the next frame. Replies are
//! therefore in request order because execution is. Each frame runs
//! under `catch_unwind`: a handler that panics fails its own connection,
//! not the reactor. A service pass runs at most [`FRAME_BUDGET`] frames
//! of one connection before the reactor turns to its siblings, so a
//! connection that floods the server cannot starve the others. Replies
//! are batched and written before the reactor parks; a connection whose
//! unwritten replies reach [`MAX_UNWRITTEN`] is not read again until its
//! peer drains them, so a client that never reads cannot make the
//! server buffer without limit.
//!
//! Every way a connection can end is accounted in `NetStats`; a clean
//! EOF mid-frame is a normal client disconnect, not a connection error.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::codec::{compact, encode_frame, FrameDecoder, FrameError};
use crate::engine::ServerPlane;
use crate::net::{process_frame, ActiveGuard, NetError, StatsInner};
use crate::sync::lock;

/// Frames one service pass runs on a connection before the reactor turns
/// to its siblings: a connection that floods the server gets its turn
/// again after every other connection on its reactor has had one.
const FRAME_BUDGET: usize = 64;

/// Unwritten reply bytes at which a connection stops being read until
/// its peer drains them: the bound on what a client that never reads can
/// make the server buffer (plus one read's worth of replies).
const MAX_UNWRITTEN: usize = 1 << 20;

/// Reactor threads per server. Accepted connections are dealt to them
/// round-robin, and each runs the frames of the connections it owns.
pub(crate) const REACTORS: usize = 2;

/// `struct pollfd` as Linux lays it out.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

pub(crate) const POLLIN: c_short = 0x001;
pub(crate) const POLLOUT: c_short = 0x004;

extern "C" {
    /// `poll(2)` of the C library `std` already links; `nfds_t` is
    /// `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Pokes one parked thread out of `poll`.
pub(crate) struct Waker {
    /// Set by the parking thread just before it may block in `poll`.
    parked: AtomicBool,
    /// Write end of the thread's wake socket (non-blocking).
    tx: UnixStream,
}

impl Waker {
    /// Call *after* publishing what the parked thread should see (a sent
    /// connection, the stop flag).
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            // A full wake socket already holds a byte; losing this one is
            // harmless.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// The blocking side of the wake protocol: one per thread that waits on
/// sockets (each reactor, and the accept loop).
pub(crate) struct Parker {
    waker: Arc<Waker>,
    /// Read end of the wake socket (non-blocking).
    rx: UnixStream,
    /// The sockets the next park waits on.
    fds: Vec<PollFd>,
}

impl Parker {
    pub(crate) fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self {
            waker: Arc::new(Waker {
                parked: AtomicBool::new(false),
                tx,
            }),
            rx,
            fds: Vec::new(),
        })
    }

    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Adds a socket to the next park, waiting for `events` (`POLLIN`,
    /// `POLLOUT` or both).
    pub(crate) fn watch(&mut self, fd: c_int, events: c_short) {
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
    }

    /// Blocks until a watched socket is ready or the waker is poked —
    /// unless `busy()`, asked after the park is announced, says a wake
    /// source already holds something. Returns whether it polled; the
    /// watch list is empty again afterwards.
    pub(crate) fn park(&mut self, busy: impl FnOnce() -> bool) -> bool {
        self.waker.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let polled = !busy();
        let mut woken = false;
        if polled {
            self.watch(self.rx.as_raw_fd(), POLLIN);
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `struct pollfd`s (the `repr(C)` layout above),
            // each naming a socket its owner keeps open for the whole
            // call; `poll` writes only their `revents`. Errors (EINTR)
            // simply end the park like any other wakeup.
            unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, -1) };
            woken = self.fds.last().is_some_and(|w| w.revents != 0);
        }
        self.fds.clear();
        self.waker.parked.store(false, Ordering::SeqCst);
        if woken {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        polled
    }
}

/// An accepted connection on its way to a reactor thread.
type Handover = (TcpStream, ActiveGuard);

/// The connections handed to one reactor thread and not yet admitted.
/// The registrar pushes, then wakes; the reactor takes them all.
type Inbox = Arc<Mutex<Vec<Handover>>>;

/// Hands accepted connections to reactor threads round-robin. Owned by
/// the accept loop.
pub(crate) struct Registrar {
    inboxes: Vec<(Inbox, Arc<Waker>)>,
    next: usize,
}

impl Registrar {
    pub(crate) fn register(&mut self, stream: TcpStream, guard: ActiveGuard) {
        let (inbox, waker) = &self.inboxes[self.next % self.inboxes.len()];
        self.next = self.next.wrapping_add(1);
        // After shutdown the pair waits in the inbox until the accept loop
        // and the reactor have both ended; dropping it then closes the
        // socket and releases the active slot.
        lock(inbox).push((stream, guard));
        waker.wake();
    }
}

/// The reactor threads; joined on server shutdown.
pub(crate) struct ReactorPool {
    reactors: Vec<JoinHandle<()>>,
    wakers: Vec<Arc<Waker>>,
}

impl ReactorPool {
    pub(crate) fn spawn(
        plane: &Arc<ServerPlane>,
        stats: &Arc<StatsInner>,
        stop: &Arc<AtomicBool>,
    ) -> std::io::Result<(Self, Registrar)> {
        // Every fallible step before any thread starts.
        let parkers = (0..REACTORS)
            .map(|_| Parker::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut reactors = Vec::with_capacity(parkers.len());
        let mut wakers = Vec::with_capacity(parkers.len());
        let mut inboxes = Vec::with_capacity(parkers.len());
        for parker in parkers {
            let inbox = Inbox::default();
            inboxes.push((Arc::clone(&inbox), parker.waker()));
            wakers.push(parker.waker());
            let mut thread = ReactorThread {
                plane: Arc::clone(plane),
                stats: Arc::clone(stats),
                stop: Arc::clone(stop),
                inbox,
                parker,
                conns: HashMap::new(),
                next_conn: 0,
            };
            reactors.push(std::thread::spawn(move || thread.run()));
        }
        Ok((Self { reactors, wakers }, Registrar { inboxes, next: 0 }))
    }

    /// Wakes every reactor to see the (already set) stop flag and joins
    /// it; each drops the connections it owns on the way out.
    pub(crate) fn join(&mut self) {
        for w in &self.wakers {
            w.wake();
        }
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Framed replies in request order; `..out_start` is already written.
    out: Vec<u8>,
    out_start: usize,
    peer: String,
    _guard: ActiveGuard,
}

/// Why a connection was closed.
enum Close {
    /// Clean disconnect at a frame boundary: no accounting.
    Clean,
    /// Clean EOF mid-frame: a normal disconnect, counted separately so
    /// it never triggers connection-error quarantine.
    HalfFrame,
    /// A protocol violation or I/O failure: counted and logged.
    Error(NetError),
}

struct ReactorThread {
    plane: Arc<ServerPlane>,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
    inbox: Inbox,
    parker: Parker,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
}

impl ReactorThread {
    fn run(&mut self) {
        let mut scratch = vec![0u8; 64 * 1024];
        while !self.stop.load(Ordering::Relaxed) {
            let handed = std::mem::take(&mut *lock(&self.inbox));
            for (stream, guard) in handed {
                self.admit(stream, guard);
            }
            let mut work_left = false;
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                work_left |= self.service(id, &mut scratch);
            }
            if !work_left {
                self.park();
            }
        }
        // Dropping the connections releases their active slots.
        self.conns.clear();
    }

    /// Blocks until a socket is ready or a waker pokes the wake socket.
    /// Every socket has just been read dry (or closed, or stopped at the
    /// output cap) with no whole frame left buffered, each pending reply
    /// flushed up to `WouldBlock`, so with level-triggered readiness plus
    /// the waker nothing that arrives can be missed.
    fn park(&mut self) {
        for conn in self.conns.values() {
            let unwritten = conn.unwritten().len();
            // A connection at the output cap waits for its peer to
            // drain it; polling it for input would spin.
            let events = match unwritten {
                0 => POLLIN,
                n if n < MAX_UNWRITTEN => POLLIN | POLLOUT,
                _ => POLLOUT,
            };
            self.parker.watch(conn.stream.as_raw_fd(), events);
        }
        let (inbox, stop) = (&self.inbox, &self.stop);
        if self
            .parker
            .park(|| !lock(inbox).is_empty() || stop.load(Ordering::Relaxed))
        {
            crate::tel::net_server().reactor_wakeups.inc();
        }
    }

    fn admit(&mut self, stream: TcpStream, guard: ActiveGuard) {
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            return; // dropping stream + guard closes and deregisters
        }
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| String::from("<unknown>"));
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_start: 0,
                peer,
                _guard: guard,
            },
        );
    }

    /// One pass over a connection: run the whole frames already
    /// buffered, flush the replies, and read only when no whole frame is
    /// left, until the socket runs dry, the output cap is hit, or the
    /// pass has run [`FRAME_BUDGET`] frames. Returns whether the budget
    /// stopped it with work left.
    fn service(&mut self, id: u64, scratch: &mut [u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        let mut budget = FRAME_BUDGET;
        let outcome = loop {
            if let Err(why) = conn.execute(&self.plane, &self.stats, &mut budget) {
                break Err(why);
            }
            // Writes before a read adds more.
            if let Err(e) = conn.flush() {
                break Err(Close::Error(e));
            }
            if conn.unwritten().len() >= MAX_UNWRITTEN {
                break Ok(false);
            }
            if budget == 0 {
                break Ok(true);
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    break Err(if conn.decoder.mid_frame() {
                        Close::HalfFrame
                    } else {
                        Close::Clean
                    })
                }
                Ok(n) => conn.decoder.push(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(Close::Error(e.into())),
            }
        };
        outcome.unwrap_or_else(|why| {
            self.close(id, why);
            false
        })
    }

    fn close(&mut self, id: u64, why: Close) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        match why {
            Close::Clean => {}
            Close::HalfFrame => {
                self.stats
                    .half_frame_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                crate::tel::net_server().half_frame_disconnects.inc();
            }
            Close::Error(e) => {
                self.stats.connection_errors.fetch_add(1, Ordering::Relaxed);
                crate::tel::net_server().connection_errors.inc();
                eprintln!("casper-net: closing connection {}: {e}", conn.peer);
            }
        }
    }
}

impl Conn {
    /// Reply bytes not yet written, in request order.
    fn unwritten(&self) -> &[u8] {
        &self.out[self.out_start..]
    }

    /// Writes the replies until they are gone or the socket would block.
    fn flush(&mut self) -> Result<(), NetError> {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
                Ok(n) => {
                    self.out_start += n;
                    compact(&mut self.out, &mut self.out_start);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Runs the whole frames the decoder holds, one at a time and in
    /// request order, appending each framed reply, until none is left or
    /// `budget` is spent. A handler that panics fails this connection
    /// only.
    fn execute(
        &mut self,
        plane: &ServerPlane,
        stats: &StatsInner,
        budget: &mut usize,
    ) -> Result<(), Close> {
        while *budget > 0 {
            let next = self.decoder.next_frame();
            let Some(frame) = next.map_err(|e| Close::Error(account_frame_error(stats, e)))? else {
                break;
            };
            *budget -= 1;
            let reply =
                std::panic::catch_unwind(AssertUnwindSafe(|| process_frame(plane, stats, frame)))
                    .unwrap_or(Err(NetError::Protocol("request handler panicked")))
                    .map_err(Close::Error)?;
            self.out.extend_from_slice(&encode_frame(&reply));
        }
        Ok(())
    }
}

/// Bumps the per-kind counter for a decoder error and converts it to the
/// [`NetError`] the connection dies with. A free function so it can run
/// while a connection is mutably borrowed from the reactor's map.
fn account_frame_error(stats: &StatsInner, e: FrameError) -> NetError {
    match e {
        FrameError::Oversize { .. } => {
            stats.oversize_frames.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().oversize_frames.inc();
        }
        FrameError::ChecksumMismatch => {
            stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().checksum_failures.inc();
        }
    }
    e.into()
}
