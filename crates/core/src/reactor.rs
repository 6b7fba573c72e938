//! Event-driven server transport: a small reactor pool multiplexing many
//! connections, with a shared executor pool completing pipelined frames
//! out of order.
//!
//! The workspace's dependency budget has no async runtime and no raw
//! epoll binding, so "event-driven" here is a std-only poll loop:
//! non-blocking sockets serviced in a tight tick, napping on the
//! completion channel when nothing moved. That trades a sub-millisecond
//! idle latency for zero new dependencies while keeping the property
//! that matters: one reactor thread services *all* of its connections,
//! so concurrent sessions are no longer capped by a thread per
//! connection, and a connection can have a whole window of frames in
//! flight at once.
//!
//! Division of labour per connection:
//!
//! * the owning **reactor thread** does all socket I/O and owns the
//!   [`PipelineMachine`] (framing, slot assignment, reply reordering);
//! * the shared **executor pool** runs [`process_frame`] — the
//!   budget/trace/decode/execute/encode path the conformance harness
//!   also runs serially — and sends completions back, in whatever order
//!   they finish;
//! * the machine releases replies strictly in request order, batching
//!   every contiguous completed prefix into one write.
//!
//! Every way a connection can end is accounted in `NetStats`; a clean
//! EOF mid-frame is a normal client disconnect, not a connection error.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::codec::{FrameError, PipelineMachine, WorkItem};
use crate::engine::ServerPlane;
use crate::net::{process_frame, ActiveGuard, NetError, ServerConfig, StatsInner};

/// One frame dispatched for execution.
struct Job {
    conn: u64,
    slot: u64,
    frame: Vec<u8>,
    /// Routes the completion back to the reactor that owns the
    /// connection.
    done: Sender<Completion>,
}

struct Completion {
    conn: u64,
    slot: u64,
    result: Result<Vec<u8>, NetError>,
}

/// Hands accepted connections to reactor threads round-robin. Owned by
/// the accept loop.
pub(crate) struct Registrar {
    txs: Vec<Sender<(TcpStream, ActiveGuard)>>,
    next: usize,
}

impl Registrar {
    pub(crate) fn register(&mut self, stream: TcpStream, guard: ActiveGuard) {
        let i = self.next % self.txs.len();
        self.next = self.next.wrapping_add(1);
        // A send can only fail after shutdown; dropping the pair closes
        // the socket and releases the active slot.
        let _ = self.txs[i].send((stream, guard));
    }
}

/// The reactor threads plus the shared executor pool; joined on server
/// shutdown.
pub(crate) struct ReactorPool {
    reactors: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    pub(crate) fn spawn(
        plane: &Arc<ServerPlane>,
        stats: &Arc<StatsInner>,
        stop: &Arc<AtomicBool>,
        config: &ServerConfig,
    ) -> (Self, Registrar) {
        let reactor_threads = config.reactor_threads.max(1);
        let executor_threads = config.executor_threads.max(1);
        let (job_tx, job_rx) = unbounded::<Job>();
        let mut executors = Vec::with_capacity(executor_threads);
        for _ in 0..executor_threads {
            let plane = Arc::clone(plane);
            let stats = Arc::clone(stats);
            let job_rx = job_rx.clone();
            executors.push(std::thread::spawn(move || {
                // Exits when every reactor (the only job senders) has
                // dropped its channel end.
                while let Ok(job) = job_rx.recv() {
                    let result = process_frame(&plane, &stats, job.frame);
                    let _ = job.done.send(Completion {
                        conn: job.conn,
                        slot: job.slot,
                        result,
                    });
                }
            }));
        }
        drop(job_rx);
        let mut reactors = Vec::with_capacity(reactor_threads);
        let mut txs = Vec::with_capacity(reactor_threads);
        for _ in 0..reactor_threads {
            let (conn_tx, conn_rx) = unbounded::<(TcpStream, ActiveGuard)>();
            txs.push(conn_tx);
            let mut thread = ReactorThread {
                stats: Arc::clone(stats),
                stop: Arc::clone(stop),
                conn_rx,
                job_tx: job_tx.clone(),
                done: unbounded::<Completion>(),
                conns: HashMap::new(),
                next_conn: 0,
                max_frame_len: config.max_frame_len,
                max_pipeline: config.max_pipeline.max(1),
            };
            reactors.push(std::thread::spawn(move || thread.run()));
        }
        drop(job_tx);
        (
            Self {
                reactors,
                executors,
            },
            Registrar { txs, next: 0 },
        )
    }

    /// Joins every thread; reactors first (dropping their connections
    /// and job senders), which unblocks the executors.
    pub(crate) fn join(&mut self) {
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        for t in self.executors.drain(..) {
            let _ = t.join();
        }
    }
}

struct Conn {
    stream: TcpStream,
    machine: PipelineMachine,
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
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
    conn_rx: Receiver<(TcpStream, ActiveGuard)>,
    job_tx: Sender<Job>,
    done: (Sender<Completion>, Receiver<Completion>),
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    max_frame_len: usize,
    max_pipeline: usize,
}

impl ReactorThread {
    fn run(&mut self) {
        let mut scratch = vec![0u8; 64 * 1024];
        while !self.stop.load(Ordering::Relaxed) {
            let mut progress = false;
            while let Ok((stream, guard)) = self.conn_rx.try_recv() {
                self.admit(stream, guard);
                progress = true;
            }
            while let Ok(c) = self.done.1.try_recv() {
                self.on_completion(c);
                progress = true;
            }
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                if self.service(id, &mut scratch) {
                    progress = true;
                }
            }
            if !progress {
                // Nap on the completion channel: an executor finishing
                // wakes the reactor immediately; fresh socket bytes wait
                // at most one tick.
                match self.done.1.recv_timeout(Duration::from_micros(500)) {
                    Ok(c) => self.on_completion(c),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        // Dropping the connections releases their active slots; dropping
        // `job_tx` (with every other reactor's clone) stops the
        // executors.
        self.conns.clear();
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
                machine: PipelineMachine::new(self.max_frame_len, self.max_pipeline),
                peer,
                _guard: guard,
            },
        );
    }

    fn on_completion(&mut self, c: Completion) {
        // The connection may have died while its frame was executing;
        // the completion is then simply dropped.
        let mut work = Vec::new();
        let mut close: Option<Close> = None;
        let Some(conn) = self.conns.get_mut(&c.conn) else {
            return;
        };
        match c.result {
            Ok(reply) => {
                conn.machine.complete(c.slot, &reply);
                // A freed slot may admit frames parked in the decoder.
                if let Err(e) = conn.machine.poll_work(&mut work) {
                    close = Some(Close::Error(account_frame_error(&self.stats, e)));
                }
            }
            Err(e) => close = Some(Close::Error(e)),
        }
        self.dispatch(c.conn, work);
        if let Some(why) = close {
            self.close(c.conn, why);
        }
    }

    fn dispatch(&self, conn: u64, work: Vec<WorkItem>) {
        for item in work {
            let _ = self.job_tx.send(Job {
                conn,
                slot: item.slot,
                frame: item.frame,
                done: self.done.0.clone(),
            });
        }
    }

    /// One I/O tick for a connection: flush pending replies, then read
    /// whatever the socket has. Returns whether anything moved.
    fn service(&mut self, id: u64, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        let mut close: Option<Close> = None;
        let mut work = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            // Writes first: completed replies leave before new reads can
            // fill the window again.
            while close.is_none() && !conn.machine.pending_output().is_empty() {
                match conn.stream.write(conn.machine.pending_output()) {
                    Ok(0) => {
                        close = Some(Close::Error(NetError::Io(std::io::Error::from(
                            std::io::ErrorKind::WriteZero,
                        ))))
                    }
                    Ok(n) => {
                        conn.machine.consume_output(n);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => close = Some(Close::Error(e.into())),
                }
            }
            // Bounded reads per tick so one firehose connection cannot
            // starve its siblings on the same reactor.
            let mut reads = 0;
            while close.is_none() && reads < 4 {
                reads += 1;
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        close = Some(if conn.machine.mid_frame() {
                            Close::HalfFrame
                        } else {
                            Close::Clean
                        });
                    }
                    Ok(n) => {
                        progress = true;
                        if let Err(e) = conn.machine.on_bytes(&scratch[..n], &mut work) {
                            close = Some(Close::Error(account_frame_error(&self.stats, e)));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => close = Some(Close::Error(e.into())),
                }
            }
        }
        self.dispatch(id, work);
        if let Some(why) = close {
            self.close(id, why);
            progress = true;
        }
        progress
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

/// Bumps the per-kind counter for a decoder error and converts it to the
/// [`NetError`] the connection dies with. A free function so it can run
/// while a connection is mutably borrowed from the reactor's map.
fn account_frame_error(stats: &StatsInner, e: FrameError) -> NetError {
    match e {
        FrameError::Oversize { .. } => {
            stats.oversize_frames.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().oversize_frames.inc();
            NetError::Protocol("frame length exceeds MAX_FRAME_LEN")
        }
        FrameError::ChecksumMismatch => {
            stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
            crate::tel::net_server().checksum_failures.inc();
            NetError::Protocol("frame checksum mismatch")
        }
    }
}
