//! Deterministic protocol-conformance harness for the network plane.
//!
//! [`ScriptedLink`] is a loopback transport: it replays a scripted
//! request sequence through the *exact* production machinery — the
//! sans-IO [`PipelineMachine`] the reactor runs per connection, and
//! `process_frame`, its one execute path — but with every byte boundary and every completion
//! order drawn from a seeded generator instead of from scheduler and
//! network timing. The same seed replays the same interleaving forever.
//!
//! Three scripted hostilities, one per constructor knob:
//!
//! * **partial/coalesced frames** — the request byte stream is re-cut at
//!   seeded boundaries, from single bytes to multi-frame gulps;
//! * **reordered completions** — in-flight frames complete in a seeded
//!   shuffled order, constrained only as the real executor pool is:
//!   queries act as barriers (the reply reorder buffer never releases a
//!   query result until everything before it has executed, and nothing
//!   after it starts while it is the oldest outstanding frame), while
//!   updates commute freely because per-handle sequence numbers make
//!   their application order irrelevant;
//! * **mid-pipeline resets** — the stream is severed at an arbitrary
//!   byte (possibly mid-frame), and a reconnecting client re-delivers
//!   the acked prefix (the idempotent replay) plus the unacked suffix.
//!
//! Conformance is asserted by comparing a scripted run against
//! [`ScriptedLink::run_serial`] — the serial reference: whole
//! frames, strictly serial execution — byte for byte on the reply
//! stream and entry for entry on the final server state.

use bytes::Bytes;
use casper_index::Entry;

use crate::codec::{encode_frame, FrameDecoder, PipelineMachine, WorkItem};
use crate::engine::ServerPlane;
use crate::net::{process_frame, StatsInner, MAX_FRAME_LEN};
use crate::retry::SplitMix64;
use crate::wire::{decode, encode, Message};

/// Everything a client can observe from one scripted session, plus the
/// server state it leaves behind.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// The reply byte stream exactly as it would hit the client's
    /// socket: framed, in request order, batched prefixes concatenated.
    pub reply_stream: Vec<u8>,
    /// The decoded replies, one per request, in request order.
    pub replies: Vec<Message>,
    /// The server's private entries after the session, sorted by handle.
    pub entries: Vec<Entry>,
    /// Well-formed frames the server executed (replays re-count).
    pub frames: u64,
}

/// A seeded loopback transport replaying one scripted interleaving.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedLink {
    seed: u64,
    window: usize,
}

impl ScriptedLink {
    /// A link replaying the interleaving drawn from `seed`, with up to
    /// `window` frames in flight.
    pub fn new(seed: u64, window: usize) -> Self {
        Self {
            seed,
            window: window.max(1),
        }
    }

    /// The serial reference: whole frames, one in flight, strictly
    /// serial execution.
    pub fn run_serial(&self, plane: &ServerPlane, requests: &[Message]) -> ScriptOutcome {
        let stats = StatsInner::default();
        let mut reply_stream = Vec::new();
        for msg in requests {
            let frame = encode(msg).to_vec();
            let reply =
                process_frame(plane, &stats, frame).expect("scripted frames are well-formed");
            reply_stream.extend_from_slice(&encode_frame(&reply));
        }
        outcome(reply_stream, plane, &stats)
    }

    /// The reactor's semantics under this link's seed: the request
    /// stream re-cut at arbitrary boundaries, frames completing out of
    /// order within the window.
    pub fn run_pipelined(&self, plane: &ServerPlane, requests: &[Message]) -> ScriptOutcome {
        let stats = StatsInner::default();
        let stream = frame_stream(requests);
        let mut rng = SplitMix64::new(self.seed);
        let mut machine = PipelineMachine::new(MAX_FRAME_LEN, self.window);
        let mut pending: Vec<WorkItem> = Vec::new();
        let mut offset = 0usize;
        while offset < stream.len() || !pending.is_empty() {
            let feed =
                offset < stream.len() && (pending.is_empty() || rng.next_u64().is_multiple_of(2));
            if feed {
                let chunk = self.chunk_len(&mut rng, stream.len() - offset);
                machine
                    .on_bytes(&stream[offset..offset + chunk], &mut pending)
                    .expect("scripted frames are well-formed");
                offset += chunk;
            } else {
                self.complete_one(plane, &stats, &mut machine, &mut pending, &mut rng);
            }
        }
        assert!(!machine.mid_frame(), "script consumed every frame");
        outcome(machine.take_output(), plane, &stats)
    }

    /// A mid-pipeline reset: the stream is severed after `cut` bytes
    /// (possibly mid-frame, exactly the half-frame disconnect the
    /// transport must treat as clean). The reconnecting client then
    /// re-delivers the acked prefix — the idempotent replay, which the
    /// per-handle sequence numbers render a no-op — followed by the
    /// unacked suffix. The returned outcome covers the second session
    /// (`replies[i]` answers `requests[i]`, replay acks included).
    pub fn run_pipelined_with_reset(
        &self,
        plane: &ServerPlane,
        requests: &[Message],
        cut: usize,
    ) -> ScriptOutcome {
        let stats = StatsInner::default();
        let stream = frame_stream(requests);
        let cut = cut.min(stream.len());
        let mut rng = SplitMix64::new(self.seed);
        // Session one: everything before the cut, fully drained (any
        // frame whose bytes all arrived gets executed and acked).
        let mut machine = PipelineMachine::new(MAX_FRAME_LEN, self.window);
        let mut pending: Vec<WorkItem> = Vec::new();
        let mut offset = 0usize;
        while offset < cut || !pending.is_empty() {
            let feed = offset < cut && (pending.is_empty() || rng.next_u64().is_multiple_of(2));
            if feed {
                let chunk = self.chunk_len(&mut rng, cut - offset);
                machine
                    .on_bytes(&stream[offset..offset + chunk], &mut pending)
                    .expect("scripted frames are well-formed");
                offset += chunk;
            } else {
                self.complete_one(plane, &stats, &mut machine, &mut pending, &mut rng);
            }
        }
        // Count the acks the client actually received before the reset.
        let acked = count_frames(&machine.take_output());
        drop(machine);
        // Session two: replay of the acked prefix + the unacked suffix,
        // under a fresh machine (a fresh connection) and fresh seeded
        // interleavings.
        debug_assert!(acked <= requests.len());
        let second = Self {
            seed: rng.next_u64(),
            window: self.window,
        };
        second.run_pipelined(plane, requests)
    }

    /// Seeded chunk length in `1..=min(remaining, 96)`: small enough to
    /// split headers and payloads, large enough to coalesce frames.
    fn chunk_len(&self, rng: &mut SplitMix64, remaining: usize) -> usize {
        1 + (rng.next_u64() as usize) % remaining.min(96)
    }

    /// Executes one seeded-random *eligible* pending frame and feeds the
    /// completion back. Eligibility mirrors what the real executor pool
    /// can produce: the oldest outstanding frame may always complete;
    /// a younger frame may overtake only if it and everything older
    /// outstanding are updates (which commute under per-handle seqs).
    fn complete_one(
        &self,
        plane: &ServerPlane,
        stats: &StatsInner,
        machine: &mut PipelineMachine,
        pending: &mut Vec<WorkItem>,
        rng: &mut SplitMix64,
    ) {
        debug_assert!(!pending.is_empty());
        let mut eligible = vec![0usize];
        if is_update(&pending[0].frame) {
            for (i, w) in pending.iter().enumerate().skip(1) {
                if !is_update(&w.frame) {
                    break;
                }
                eligible.push(i);
            }
        }
        let pick = eligible[(rng.next_u64() as usize) % eligible.len()];
        let item = pending.remove(pick);
        let reply =
            process_frame(plane, stats, item.frame).expect("scripted frames are well-formed");
        machine.complete(item.slot, &reply);
        machine
            .poll_work(pending)
            .expect("scripted frames are well-formed");
    }
}

/// Whether a request frame is a cloaked update (commutes under seqs).
fn is_update(frame: &[u8]) -> bool {
    matches!(
        decode(Bytes::from(frame.to_vec())),
        Ok(Message::CloakedUpdate { .. })
    )
}

/// The scripted requests as one contiguous framed byte stream.
fn frame_stream(requests: &[Message]) -> Vec<u8> {
    requests
        .iter()
        .flat_map(|m| encode_frame(&encode(m)))
        .collect()
}

/// Counts whole frames in a reply byte stream.
fn count_frames(stream: &[u8]) -> usize {
    let mut dec = FrameDecoder::new();
    dec.push(stream);
    let mut n = 0;
    while let Ok(Some(_)) = dec.next_frame() {
        n += 1;
    }
    n
}

fn outcome(reply_stream: Vec<u8>, plane: &ServerPlane, stats: &StatsInner) -> ScriptOutcome {
    let mut dec = FrameDecoder::new();
    dec.push(&reply_stream);
    let mut replies = Vec::new();
    while let Some(frame) = dec.next_frame().expect("reply stream is well-formed") {
        replies.push(decode(Bytes::from(frame)).expect("server replies decode"));
    }
    let mut entries = plane.read().private_entries();
    entries.sort_by_key(|e| e.id.0);
    ScriptOutcome {
        reply_stream,
        replies,
        entries,
        frames: stats.frames.load(std::sync::atomic::Ordering::Relaxed),
    }
}
