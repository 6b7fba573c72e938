//! Causal span tracing: trace ids, parent/child spans with monotonic
//! timestamps, head sampling with tail-keep, and a bounded in-memory span
//! store.
//!
//! A *trace id* is minted once per end-to-end request ([`next_trace_id`])
//! and carried through cloak → query → transmission. A *span* covers one
//! stage of that request (a client retry attempt, a server frame,
//! a shard lock wait, the WAL group-commit fsync, ...) and records its
//! parent, so the spans of one trace assemble into a tree that attributes
//! the request's latency stage by stage. State transitions (a
//! recovery, a promotion, a server restart seen by a client) are spans
//! too: flagged, so tail-keep retains them.
//!
//! # Propagation model
//!
//! Span context travels two ways:
//!
//! * **Within a thread** — a thread-local context stack. Opening a span
//!   ([`SpanStore::root`] / [`SpanStore::child`]) pushes its context;
//!   dropping the [`SpanGuard`] pops it and files the finished record.
//!   Deep layers (shard locks, the WAL, the candidate cache) open child
//!   spans without any parameter plumbing.
//! * **Across threads and processes** — an explicit [`SpanContext`]
//!   value. The wire layer stamps the context into the §8 frame, and the
//!   thread that serves the frame opens a [`SpanStore::remote_root`]
//!   under it, so the server's spans parent under the client's.
//!
//! # Sampling
//!
//! Head sampling keeps 1-in-N traces (decided at trace start from the
//! trace id). Spans of *unsampled* traces are still buffered while the
//! trace is in flight so the **tail-keep** rule can promote them: a trace
//! that ends slow, shed, or degraded is kept regardless of the head
//! decision. Everything is bounded — pending traces, spans per trace, and
//! the finished-trace ring all have caps, and overflow is counted, never
//! blocking.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide span epoch (first use). Monotonic
/// (never wall-clock): backed by the invariant TSC where available —
/// spans take two timestamps each, and a ~60ns `clock_gettime` per
/// timestamp would be most of the tracing budget — with [`Instant`] as
/// the calibration reference and fallback.
pub fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(cal) = tsc_calibration() {
        let ticks = unsafe { core::arch::x86_64::_rdtsc() }.wrapping_sub(cal.tsc0);
        return (ticks as f64 * cal.ns_per_tick) as u64;
    }
    fallback_now_ns()
}

fn fallback_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

#[cfg(target_arch = "x86_64")]
struct TscCalibration {
    tsc0: u64,
    ns_per_tick: f64,
}

/// One-shot TSC calibration against [`Instant`] over a short spin.
/// `None` (→ permanent [`Instant`] fallback) when the measured rate is
/// implausible — a non-invariant TSC would warp every duration.
#[cfg(target_arch = "x86_64")]
fn tsc_calibration() -> Option<&'static TscCalibration> {
    static CAL: OnceLock<Option<TscCalibration>> = OnceLock::new();
    CAL.get_or_init(|| {
        let epoch = Instant::now();
        let tsc0 = unsafe { core::arch::x86_64::_rdtsc() };
        while epoch.elapsed() < std::time::Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        let ticks = unsafe { core::arch::x86_64::_rdtsc() }.wrapping_sub(tsc0);
        let ns = epoch.elapsed().as_nanos() as f64;
        if ticks == 0 {
            return None;
        }
        let ns_per_tick = ns / ticks as f64;
        // Plausible core frequencies only: 50 MHz .. 20 GHz.
        if !(0.05..=20.0).contains(&ns_per_tick) {
            return None;
        }
        Some(TscCalibration { tsc0, ns_per_tick })
    })
    .as_ref()
}

/// A 16-bit per-boot salt mixed into every trace id, so ids minted by
/// different process incarnations cannot collide in merged flight/span
/// dumps. Derived from the wall clock at first use (splitmix64-whitened);
/// uniqueness across restarts is probabilistic but collision needs two
/// boots in the same 2^-16 slice of hash space.
pub fn boot_salt() -> u64 {
    static SALT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SALT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        // splitmix64 finaliser: spreads the low-entropy nanos over all bits.
        let mut z = nanos.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 0xFFFF
    })
}

/// Process-wide trace-id mint: `boot_salt << 32 | counter` — monotone
/// within a boot, never zero, distinct across boots, and ≤ 48 bits so the
/// id survives the wire frame's 6-byte trace-context field losslessly.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
    (boot_salt() << 32) | n.max(1)
}

/// Process-wide span-id mint (monotone, never zero).
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A small per-thread fingerprint used as the `tid` of exported trace
/// events, so concurrent spans land on distinct tracks in a viewer.
fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Propagatable span context: which trace we are in and which span is the
/// current parent. Stamp it into the wire frame and open a
/// [`SpanStore::remote_root`] under it where the frame is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this context belongs to.
    pub trace_id: u64,
    /// The span that new children should parent under.
    pub span_id: u64,
    /// Head-sampling decision for the whole trace.
    pub sampled: bool,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (process-unique, never zero).
    pub span_id: u64,
    /// Parent span id; zero for a trace root. May refer to a span
    /// recorded by *another* process when the context arrived by wire.
    pub parent_id: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Stage name (`"query"`, `"attempt"`, `"wal_fsync"`, ...).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time (`>= start_ns`).
    pub end_ns: u64,
    /// How the span ended (`"ok"`, `"error"`, `"shed"`, `"hit"`, ...).
    pub outcome: &'static str,
    /// Free-form context (shard index, retry number, ...).
    pub detail: String,
    /// Thread fingerprint (export track id).
    pub tid: u64,
}

/// One line per span, as `/flight` serves it.
impl std::fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace={:<16} span={:<8} parent={:<8} {:<16} {:<10} {:>10.1}us  {}",
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.outcome,
            self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3,
            self.detail
        )
    }
}

#[derive(Debug, Default)]
struct PendingTrace {
    spans: Vec<SpanRecord>,
    sampled: bool,
    /// Tail-keep promotion: set when the trace saw a shed, retry,
    /// degraded outcome or state transition.
    flagged: bool,
    opened_ns: u64,
}

/// One trace retained after its end-of-trace keep decision.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The trace id.
    pub trace_id: u64,
    /// All retained spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Wall time of the whole trace (max end − min start of its spans).
    pub duration_ns: u64,
    /// Why the trace was kept (`"sampled"`, `"flagged"`, `"slow"`).
    pub kept: &'static str,
}

/// Default head-sampling rate: keep one trace in 64.
pub const DEFAULT_SAMPLE_RATE: u64 = 64;
/// Default tail-keep threshold: traces slower than this are kept even
/// when head sampling said no.
pub const DEFAULT_SLOW_NS: u64 = 50_000_000; // 50 ms
/// Default bound on in-flight traces buffering spans.
pub const DEFAULT_PENDING_CAP: usize = 256;
/// Default bound on spans buffered per trace.
pub const DEFAULT_SPANS_PER_TRACE: usize = 512;
/// Default bound on retained finished traces.
pub const DEFAULT_FINISHED_CAP: usize = 128;

const PENDING_SHARDS: usize = 8;

thread_local! {
    /// The per-thread context stack. Entries are pushed by span guards
    /// and popped on drop.
    static CONTEXT: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
    /// Traces whose local root lives on this thread. Same-thread spans —
    /// the overwhelming majority — buffer here without touching a lock;
    /// they meet the shared pending table exactly once, when the root
    /// guard drops. Keyed by store identity so independent stores (tests)
    /// sharing a thread do not cross-contaminate.
    static LOCAL: RefCell<Vec<LocalTrace>> = const { RefCell::new(Vec::new()) };
    /// Recycled span buffers from discarded traces: at the default
    /// sample rate most traces are dropped at end, so the steady state
    /// allocates no buffer per trace.
    static POOL: RefCell<Vec<Vec<SpanRecord>>> = const { RefCell::new(Vec::new()) };
}

thread_local! {
    /// The most recently [`SpanStore::flag`]ged trace id on this thread:
    /// lets [`SpanStore::child`] restore full span fidelity for a
    /// tail-keep-promoted trace without a buffer scan per span site.
    static FLAGGED: Cell<u64> = const { Cell::new(0) };
}

/// Whether this thread flagged `trace_id` for tail keeping.
fn locally_flagged(trace_id: u64) -> bool {
    FLAGGED.with(|f| f.get() == trace_id)
}

/// Span buffer of a trace rooted on the current thread.
#[derive(Debug)]
struct LocalTrace {
    /// Identity of the owning store (`&SpanStore` address).
    store_id: usize,
    trace_id: u64,
    sampled: bool,
    flagged: bool,
    spans: Vec<SpanRecord>,
}

/// Buffers worth recycling: anything bigger went through a span flood
/// and would pin its worst-case footprint forever.
const POOL_MAX_CAPACITY: usize = 1024;
const POOL_MAX_BUFFERS: usize = 8;

fn pool_put(mut spans: Vec<SpanRecord>) {
    spans.clear();
    if spans.capacity() <= POOL_MAX_CAPACITY {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_MAX_BUFFERS {
                p.push(spans);
            }
        });
    }
}

/// Bounded store of spans: in-flight traces buffer into a sharded pending
/// table; [`SpanStore::end_trace`] applies the keep decision and moves
/// survivors into a finished-trace ring.
#[derive(Debug)]
pub struct SpanStore {
    /// 0 disables tracing entirely; 1 samples everything; N keeps 1-in-N.
    sample_rate: AtomicU64,
    slow_ns: AtomicU64,
    pending: Vec<Mutex<HashMap<u64, PendingTrace>>>,
    /// Live entry count across all pending shards. Lets the hot
    /// single-thread path skip the shard lock entirely at trace end:
    /// zero entries means no cross-thread span, flag, or parked remote
    /// buffer exists for *any* trace, so there is nothing to merge.
    pending_len: AtomicU64,
    finished: Mutex<VecDeque<FinishedTrace>>,
    pending_cap: usize,
    spans_per_trace: usize,
    finished_cap: usize,
    started: AtomicU64,
    kept: AtomicU64,
    discarded: AtomicU64,
    overflow: AtomicU64,
}

impl Default for SpanStore {
    fn default() -> Self {
        Self::new(DEFAULT_SAMPLE_RATE)
    }
}

impl SpanStore {
    /// Creates a store with the given head-sampling rate and default
    /// bounds.
    pub fn new(sample_rate: u64) -> Self {
        Self {
            sample_rate: AtomicU64::new(sample_rate),
            slow_ns: AtomicU64::new(DEFAULT_SLOW_NS),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            pending_len: AtomicU64::new(0),
            finished: Mutex::new(VecDeque::new()),
            pending_cap: DEFAULT_PENDING_CAP,
            spans_per_trace: DEFAULT_SPANS_PER_TRACE,
            finished_cap: DEFAULT_FINISHED_CAP,
            started: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Changes the head-sampling rate (0 = tracing off, 1 = every trace,
    /// N = one in N).
    pub fn set_sample_rate(&self, rate: u64) {
        self.sample_rate.store(rate, Ordering::Relaxed);
    }

    /// The current head-sampling rate.
    pub fn sample_rate(&self) -> u64 {
        self.sample_rate.load(Ordering::Relaxed)
    }

    /// Changes the tail-keep slow-trace threshold.
    pub fn set_slow_threshold(&self, slow: std::time::Duration) {
        self.slow_ns
            .store(slow.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Whether tracing is enabled at all. One relaxed load — the entire
    /// cost of the subsystem when disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sample_rate.load(Ordering::Relaxed) != 0
    }

    /// Head-sampling decision for a trace id: deterministic, so every
    /// process in the request path agrees without coordination.
    fn head_sample(&self, trace_id: u64) -> bool {
        match self.sample_rate.load(Ordering::Relaxed) {
            0 => false,
            1 => true,
            n => trace_id.is_multiple_of(n),
        }
    }

    /// The locked pending-table shard holding `trace_id`.
    fn shard(&self, trace_id: u64) -> MutexGuard<'_, HashMap<u64, PendingTrace>> {
        self.pending[(trace_id as usize) % PENDING_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `rec` to a trace's buffer, or counts it as overflow when
    /// the buffer is at the per-trace cap.
    fn push_capped(&self, spans: &mut Vec<SpanRecord>, rec: SpanRecord) {
        if spans.len() >= self.spans_per_trace {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(rec);
        }
    }

    /// Removes this thread's buffer for `trace_id`, folding in `last` (a
    /// dropping root's own record) during the same scan.
    fn take_local(&self, trace_id: u64, last: &mut Option<SpanRecord>) -> Option<LocalTrace> {
        let store_id = self.id();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let pos = l
                .iter()
                .rposition(|t| t.store_id == store_id && t.trace_id == trace_id)?;
            let mut t = l.remove(pos);
            if let Some(rec) = last.take() {
                self.push_capped(&mut t.spans, rec);
            }
            Some(t)
        })
    }

    /// Why an ended trace is kept (head-sampled, flagged, or slow), or
    /// `None` after counting it discarded.
    fn keep_reason(&self, sampled: bool, flagged: bool, duration_ns: u64) -> Option<&'static str> {
        let kept = if sampled {
            "sampled"
        } else if flagged {
            "flagged"
        } else if duration_ns >= self.slow_ns.load(Ordering::Relaxed) {
            "slow"
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.kept.fetch_add(1, Ordering::Relaxed);
        Some(kept)
    }

    /// Files a kept trace in the finished ring, evicting the oldest.
    fn file_finished(&self, trace: FinishedTrace) {
        let mut finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        if finished.len() >= self.finished_cap {
            finished.pop_front();
        }
        finished.push_back(trace);
    }

    /// This store's identity for the thread-local trace buffers.
    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// The shared pending entry for `trace_id`, created (with eviction of
    /// the stalest entry when the shard is full) if absent. Callers hold
    /// the shard lock.
    fn shared_entry<'m>(
        &self,
        shard: &'m mut HashMap<u64, PendingTrace>,
        trace_id: u64,
        sampled: bool,
    ) -> &'m mut PendingTrace {
        if !shard.contains_key(&trace_id) {
            if shard.len() >= self.pending_cap.div_ceil(PENDING_SHARDS).max(1) {
                // Evict the stalest in-flight trace rather than block.
                if let Some((&victim, _)) = shard.iter().min_by_key(|(_, t)| t.opened_ns) {
                    shard.remove(&victim);
                    self.pending_len.fetch_sub(1, Ordering::Relaxed);
                    self.discarded.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.pending_len.fetch_add(1, Ordering::Relaxed);
            shard.insert(
                trace_id,
                PendingTrace {
                    sampled,
                    opened_ns: now_ns(),
                    ..PendingTrace::default()
                },
            );
        }
        shard.get_mut(&trace_id).expect("entry just ensured")
    }

    /// Opens a trace-root span: begins buffering the trace (the head
    /// sampling decision is taken here) and pushes its context on the
    /// calling thread. Dropping the guard ends the whole trace.
    ///
    /// Unsampled roots travel light: no thread-local buffer is created,
    /// since their children are no-ops (see [`child`](Self::child)) and
    /// any flag, manual record, or flagged-trace child lands in the
    /// shared pending table, which trace end still merges. The root's
    /// own record — all a discarded trace ever needs for the slow-trace
    /// keep decision — rides in the guard itself.
    pub fn root(&self, trace_id: u64, name: &'static str) -> SpanGuard<'_> {
        let sampled = self.head_sample(trace_id);
        self.open(trace_id, 0, name, sampled, true, sampled)
    }

    /// Opens a *local* root whose parent span lives in another process
    /// (the context arrived by wire). Does **not** end the trace on drop
    /// — the originating process owns the trace lifetime; this side's
    /// spans are parked in the shared table when the guard drops.
    /// `sampled` should come from the wire context so both sides agree.
    pub fn remote_root(&self, ctx: SpanContext, name: &'static str) -> SpanGuard<'_> {
        self.open(ctx.trace_id, ctx.span_id, name, ctx.sampled, false, true)
    }

    /// Opens a child of the calling thread's current span; a no-op guard
    /// when no context is active or tracing is off.
    ///
    /// Child fidelity follows the head-sampling decision: children of
    /// *unsampled* traces are no-ops (a context read and a branch), so
    /// the 63-in-64 default-rate traces cost one root span each. Tail
    /// keeping still works — slowness is a property of the root span,
    /// sheds and degradations [`flag`](Self::flag) the trace, and spans
    /// emitted on the flagging thread *after* the flag record normally,
    /// so the decision that promoted the trace is itself captured. The
    /// per-stage totals of every query, sampled or not, live in the
    /// `casper_stage_latency_ns` histograms, not here.
    pub fn child(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard::noop(self);
        }
        match self.current() {
            Some(ctx) if ctx.sampled || locally_flagged(ctx.trace_id) => {
                self.open(ctx.trace_id, ctx.span_id, name, ctx.sampled, false, false)
            }
            _ => SpanGuard::noop(self),
        }
    }

    fn open(
        &self,
        trace_id: u64,
        parent: u64,
        name: &'static str,
        sampled: bool,
        ends_trace: bool,
        local_root: bool,
    ) -> SpanGuard<'_> {
        if !self.enabled() || trace_id == 0 {
            return SpanGuard::noop(self);
        }
        let span_id = next_span_id();
        let start_ns = now_ns();
        if ends_trace {
            self.started.fetch_add(1, Ordering::Relaxed);
        }
        if local_root {
            let spans = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
            LOCAL.with(|l| {
                l.borrow_mut().push(LocalTrace {
                    store_id: self.id(),
                    trace_id,
                    sampled,
                    flagged: false,
                    spans,
                })
            });
        }
        let ctx = SpanContext {
            trace_id,
            span_id,
            sampled,
        };
        CONTEXT.with(|c| c.borrow_mut().push(ctx));
        SpanGuard {
            store: self,
            ctx: Some(ctx),
            parent,
            name,
            start_ns,
            outcome: "ok",
            detail: String::new(),
            ends_trace,
            local_root,
        }
    }

    /// The calling thread's innermost active context, if any.
    pub fn current(&self) -> Option<SpanContext> {
        CONTEXT.with(|c| c.borrow().last().copied())
    }

    /// Records a span with explicit timestamps (for intervals measured
    /// before a worker thread had any context, e.g. queue sojourn).
    #[allow(clippy::too_many_arguments)]
    pub fn record_manual(
        &self,
        ctx: SpanContext,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        outcome: &'static str,
        detail: impl Into<String>,
    ) {
        if !self.enabled() || ctx.trace_id == 0 {
            return;
        }
        self.push_record(
            SpanRecord {
                span_id: next_span_id(),
                parent_id: ctx.span_id,
                trace_id: ctx.trace_id,
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                outcome,
                detail: detail.into(),
                tid: thread_tid(),
            },
            ctx.sampled,
        );
    }

    fn push_record(&self, rec: SpanRecord, sampled: bool) {
        // Fast path: the trace's root lives on this thread — buffer
        // without a lock.
        let store_id = self.id();
        let mut rec = Some(rec);
        let buffered = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(t) = l.iter_mut().rev().find(|t| {
                t.store_id == store_id && t.trace_id == rec.as_ref().expect("unconsumed").trace_id
            }) else {
                return false;
            };
            self.push_capped(&mut t.spans, rec.take().expect("unconsumed"));
            true
        });
        if buffered {
            return;
        }
        // Slow path: the trace has no buffer on this thread (a flagged
        // child of an unsampled root, a manual backfill). Park the
        // record in the shared table; the root thread merges it at trace
        // end. The entry is created on demand — the trace's own buffer
        // lives thread-locally, so absence here does not mean the trace
        // is unknown.
        let rec = rec.expect("not buffered");
        let mut shard = self.shard(rec.trace_id);
        let t = self.shared_entry(&mut shard, rec.trace_id, sampled);
        self.push_capped(&mut t.spans, rec);
    }

    /// Promotes a trace for tail-keep: it will be retained at end even if
    /// head sampling said no. Call on shed, retry, or degraded outcomes.
    pub fn flag(&self, trace_id: u64) {
        if !self.enabled() || trace_id == 0 {
            return;
        }
        // Restore full child fidelity for this trace on this thread from
        // here on (see [`child`](Self::child)).
        FLAGGED.with(|f| f.set(trace_id));
        let store_id = self.id();
        let local = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            match l
                .iter_mut()
                .rev()
                .find(|t| t.store_id == store_id && t.trace_id == trace_id)
            {
                Some(t) => {
                    t.flagged = true;
                    true
                }
                None => false,
            }
        });
        if local {
            return;
        }
        self.shared_entry(&mut self.shard(trace_id), trace_id, false)
            .flagged = true;
    }

    /// Ends a trace: merges this thread's local buffer with any spans
    /// other threads parked in the shared table, applies the keep
    /// decision (head-sampled, flagged, or slow), and either moves the
    /// spans into the finished ring or drops them. Returns whether the
    /// trace was kept.
    pub fn end_trace(&self, trace_id: u64) -> bool {
        self.end_trace_with(trace_id, None, false)
    }

    /// [`end_trace`](Self::end_trace), folding in the root's own record
    /// (the guard-drop path): the thread-local buffer is scanned once
    /// for both the final push and the removal.
    fn end_trace_with(
        &self,
        trace_id: u64,
        mut last: Option<SpanRecord>,
        last_sampled: bool,
    ) -> bool {
        let local = self.take_local(trace_id, &mut last);
        // The whole pending table being empty (the overwhelmingly common
        // case: all of this trace's spans were same-thread) means there is
        // nothing to merge — skip the lock. A concurrent cross-thread
        // insert can race past this load, but that insert races the
        // removal below identically: either way it lands after trace end
        // and ages out by eviction.
        let shared = if self.pending_len.load(Ordering::Relaxed) == 0 {
            None
        } else {
            let t = self.shard(trace_id).remove(&trace_id);
            if t.is_some() {
                self.pending_len.fetch_sub(1, Ordering::Relaxed);
            }
            t
        };
        // Lite-root fast path (the common case at the default sample
        // rate): no buffer anywhere, the root's own record decides — and
        // a discarded trace never touches the heap.
        if local.is_none() && shared.is_none() {
            let Some(rec) = last.take() else {
                return false; // unknown trace
            };
            let duration_ns = rec.end_ns.saturating_sub(rec.start_ns);
            let Some(kept) = self.keep_reason(last_sampled, locally_flagged(trace_id), duration_ns)
            else {
                return false;
            };
            self.file_finished(FinishedTrace {
                trace_id,
                spans: vec![rec],
                duration_ns,
                kept,
            });
            return true;
        }
        let (mut spans, mut sampled, mut flagged) = match local {
            Some(t) => (t.spans, t.sampled, t.flagged),
            None => (Vec::new(), false, false),
        };
        if let Some(rec) = last.take() {
            // No local buffer: an unsampled lite root whose trace has
            // shared-table spans, or a guard that moved across threads.
            // Its record is the trace's spine — keep it.
            sampled |= last_sampled;
            spans.push(rec);
        }
        match shared {
            Some(t) => {
                sampled |= t.sampled;
                flagged |= t.flagged;
                if spans.is_empty() {
                    spans = t.spans;
                } else {
                    for rec in t.spans {
                        self.push_capped(&mut spans, rec);
                    }
                }
            }
            None if spans.is_empty() => return false, // unknown trace
            None => {}
        }
        let (min_start, max_end) = spans.iter().fold((u64::MAX, 0u64), |(lo, hi), s| {
            (lo.min(s.start_ns), hi.max(s.end_ns))
        });
        let duration_ns = max_end.saturating_sub(if min_start == u64::MAX { 0 } else { min_start });
        let Some(kept) = self.keep_reason(sampled, flagged, duration_ns) else {
            pool_put(spans);
            return false;
        };
        self.file_finished(FinishedTrace {
            trace_id,
            spans,
            duration_ns,
            kept,
        });
        true
    }

    /// Parks a wire-grafted local root's buffer in the shared table when
    /// its guard drops: the originating process owns the trace end, this
    /// side only contributes spans. `last` is the dropping root's own
    /// record, folded in during the same buffer scan.
    fn park_local(&self, trace_id: u64, mut last: Option<SpanRecord>) {
        let Some(local) = self.take_local(trace_id, &mut last) else {
            if let Some(rec) = last {
                // Guard moved across threads; its buffer stayed behind.
                self.push_record(rec, false);
            }
            return;
        };
        let mut shard = self.shard(trace_id);
        let t = self.shared_entry(&mut shard, trace_id, local.sampled);
        t.flagged |= local.flagged;
        for rec in local.spans {
            self.push_capped(&mut t.spans, rec);
        }
    }

    /// The spans of one trace: finished if available, else the in-flight
    /// view (the shared table plus, when called from the trace's root
    /// thread, its local buffer — a trace live on *another* thread shows
    /// only the spans parked in the shared table so far). Empty when the
    /// trace is unknown.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        {
            let finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = finished.iter().rev().find(|t| t.trace_id == trace_id) {
                return t.spans.clone();
            }
        }
        let mut out = self
            .shard(trace_id)
            .get(&trace_id)
            .map(|t| t.spans.clone())
            .unwrap_or_default();
        let store_id = self.id();
        LOCAL.with(|l| {
            if let Some(t) = l
                .borrow()
                .iter()
                .rev()
                .find(|t| t.store_id == store_id && t.trace_id == trace_id)
            {
                out.extend(t.spans.iter().cloned());
            }
        });
        out
    }

    /// Retained finished traces, oldest first.
    pub fn finished(&self) -> Vec<FinishedTrace> {
        self.finished
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// One-line-per-trace summary of the finished ring (newest last).
    pub fn render_summary(&self) -> String {
        let traces = self.finished();
        let mut out = String::from("--- span store: finished traces (oldest first) ---\n");
        for t in &traces {
            out.push_str(&format!(
                "trace={:<20} spans={:<4} dur={:>10.1}us kept={}\n",
                t.trace_id,
                t.spans.len(),
                t.duration_ns as f64 / 1e3,
                t.kept
            ));
        }
        out.push_str(&format!("--- {} traces ---\n", traces.len()));
        out
    }

    /// `(started, kept, discarded, overflowed-spans)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.started.load(Ordering::Relaxed),
            self.kept.load(Ordering::Relaxed),
            self.discarded.load(Ordering::Relaxed),
            self.overflow.load(Ordering::Relaxed),
        )
    }
}

/// RAII span: times itself from creation to drop, then files a
/// [`SpanRecord`] and pops the thread-local context.
#[must_use = "a span measures the scope it lives in"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    store: &'a SpanStore,
    /// `None` for a no-op guard (tracing off / no context).
    ctx: Option<SpanContext>,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    outcome: &'static str,
    detail: String,
    ends_trace: bool,
    /// True for [`SpanStore::root`] and [`SpanStore::remote_root`] guards
    /// — the ones owning a thread-local trace buffer.
    local_root: bool,
}

impl<'a> SpanGuard<'a> {
    fn noop(store: &'a SpanStore) -> Self {
        Self {
            store,
            ctx: None,
            parent: 0,
            name: "",
            start_ns: 0,
            outcome: "ok",
            detail: String::new(),
            ends_trace: false,
            local_root: false,
        }
    }

    /// Whether this guard records anything (false for no-op guards).
    pub fn is_active(&self) -> bool {
        self.ctx.is_some()
    }

    /// This span's propagatable context (`None` for no-op guards).
    pub fn context(&self) -> Option<SpanContext> {
        self.ctx
    }

    /// Sets the span outcome (default `"ok"`).
    pub fn set_outcome(&mut self, outcome: &'static str) {
        self.outcome = outcome;
    }

    /// Sets free-form detail text.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if self.ctx.is_some() {
            self.detail = detail.into();
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx else { return };
        CONTEXT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|e| e.span_id == ctx.span_id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            span_id: ctx.span_id,
            parent_id: self.parent,
            trace_id: ctx.trace_id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns().max(self.start_ns),
            outcome: self.outcome,
            detail: std::mem::take(&mut self.detail),
            tid: thread_tid(),
        };
        // Root guards fold their own record into the end-of-trace (or
        // park) scan of the thread-local buffer instead of paying a
        // separate push_record lookup.
        if self.ends_trace {
            self.store
                .end_trace_with(ctx.trace_id, Some(record), ctx.sampled);
        } else if self.local_root {
            self.store.park_local(ctx.trace_id, Some(record));
        } else {
            self.store.push_record(record, ctx.sampled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_ids_carry_the_boot_salt_and_fit_48_bits() {
        let salt = boot_salt();
        assert!(salt <= 0xFFFF);
        for _ in 0..10 {
            let id = next_trace_id();
            assert_eq!(id >> 32, salt, "high bits carry the boot salt");
            assert!(id < (1u64 << 48), "id must survive the 6-byte wire field");
            assert_ne!(id & 0xFFFF_FFFF, 0, "low word never zero");
        }
    }

    #[test]
    fn root_and_children_form_a_tree() {
        let store = SpanStore::new(1);
        let tid = 42;
        {
            let root = store.root(tid, "query");
            let root_ctx = root.context().unwrap();
            {
                let child = store.child("cloak");
                assert_eq!(child.context().unwrap().trace_id, tid);
                let _grand = store.child("lock_wait");
                drop(child);
            }
            assert_eq!(store.current().unwrap().span_id, root_ctx.span_id);
        }
        let spans = store.trace(tid);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.parent_id == 0).unwrap();
        assert_eq!(root.name, "query");
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
            if s.parent_id != 0 {
                assert!(spans.iter().any(|p| p.span_id == s.parent_id));
            }
        }
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = SpanStore::new(0);
        {
            let g = store.root(7, "query");
            assert!(!g.is_active());
            assert!(store.current().is_none());
        }
        assert!(store.trace(7).is_empty());
        assert_eq!(store.stats().0, 0);
    }

    #[test]
    fn head_sampling_is_deterministic_and_tail_keep_promotes() {
        let store = SpanStore::new(1000);
        // Trace 5 is not head-sampled at rate 1000...
        drop(store.root(5, "query"));
        assert!(store.trace(5).is_empty(), "unsampled fast trace dropped");
        // ...but flagging promotes it.
        {
            let _g = store.root(5, "query");
            store.flag(5);
        }
        let f = store.finished();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kept, "flagged");
        // Trace 2000 is head-sampled (2000 % 1000 == 0).
        drop(store.root(2000, "query"));
        assert_eq!(store.finished().len(), 2);
    }

    #[test]
    fn slow_traces_are_tail_kept() {
        let store = SpanStore::new(u64::MAX);
        store.set_slow_threshold(std::time::Duration::ZERO);
        drop(store.root(3, "query"));
        let f = store.finished();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kept, "slow");
    }

    #[test]
    fn remote_root_carries_context_across_threads() {
        let store: &'static SpanStore = Box::leak(Box::new(SpanStore::new(1)));
        let root = store.root(10, "query");
        let ctx = root.context().unwrap();
        std::thread::spawn(move || {
            let _served = store.remote_root(ctx, "server");
            let _child = store.child("worker");
        })
        .join()
        .unwrap();
        drop(root);
        let spans = store.trace(10);
        assert_eq!(spans.len(), 3);
        let served = spans.iter().find(|s| s.name == "server").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(served.parent_id, ctx.span_id);
        assert_eq!(worker.parent_id, served.span_id);
    }

    #[test]
    fn record_manual_backfills_intervals() {
        let store = SpanStore::new(1);
        let root = store.root(11, "query");
        let ctx = root.context().unwrap();
        store.record_manual(ctx, "sojourn", 100, 200, "ok", "slot=3");
        drop(root);
        let spans = store.trace(11);
        let s = spans.iter().find(|s| s.name == "sojourn").unwrap();
        assert_eq!((s.start_ns, s.end_ns), (100, 200));
        assert_eq!(s.parent_id, ctx.span_id);
    }

    #[test]
    fn bounds_hold_under_span_floods() {
        let store = SpanStore::new(1);
        let root = store.root(13, "query");
        let ctx = root.context().unwrap();
        for i in 0..(DEFAULT_SPANS_PER_TRACE as u64 + 100) {
            store.record_manual(ctx, "flood", i, i + 1, "ok", "");
        }
        drop(root);
        let spans = store.trace(13);
        assert!(spans.len() <= DEFAULT_SPANS_PER_TRACE + 1);
        assert!(store.stats().3 > 0, "overflow counted");
    }
}
