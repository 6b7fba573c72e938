//! Wire format between the anonymizer and the server.
//!
//! Every message is framed into fixed-size 64-byte records — the record
//! size the Section 6.3 cost model assumes — so the modelled transmission
//! time of a message equals
//! `TransmissionModel::time_for_records(record count)` exactly.
//!
//! Layout (big-endian):
//!
//! * **region record** (updates/queries): tag `u8`, pad `[u8; 7]`,
//!   pseudonym/handle `u64`, rect `4 x f64`, sequence `u64`, pad to 64.
//! * **candidate record** (answers): tag `u8`, pad `[u8; 7]`, object id
//!   `u64`, rect `4 x f64`, pad to 64.
//!
//! A candidate list is a `u32` count followed by that many candidate
//! records.
//!
//! The sequence number (meaningful for updates only; zero elsewhere) lives
//! in bytes that were previously padding, so record size — and therefore
//! the cost model — is unchanged. It makes cloaked-update replay after a
//! reconnect idempotent: the server discards updates whose sequence is
//! older than the newest it has applied for that handle.
//!
//! Two more fields ride former padding the same way: the deadline budget
//! (bytes 56..64, [`encode_with_budget`] / [`frame_budget`]) and the
//! span-tracing context (flags + 48-bit trace id in pad bytes 1..8, plus
//! the parent span id in a query's unused sequence field;
//! [`stamp_trace`] / [`frame_trace`]). All of them decode to zero /
//! "absent" on frames from peers that never stamp them.

use bytes::{BufMut, Bytes, BytesMut};
use casper_geometry::{Point, Rect};
use casper_index::{Entry, ObjectId};

use crate::binary::{ReadError, Reader};

/// One record is 64 bytes (Section 6.3).
pub const RECORD_BYTES: usize = 64;

const TAG_UPDATE: u8 = 1;
const TAG_QUERY: u8 = 2;
const TAG_CANDIDATE: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_METRICS_REQ: u8 = 5;
const TAG_OVERLOADED: u8 = 6;

/// Byte offset of the deadline-budget field inside a region record: the
/// tail padding (bytes 56..64) of update/query records, unused by every
/// other field. Like the sequence number before it, parking the budget in
/// former padding keeps the record exactly [`RECORD_BYTES`] long, so the
/// Section 6.3 cost model is unchanged. A zero budget means "no deadline"
/// — which is also what pre-deadline senders naturally emit.
const BUDGET_OFFSET: usize = 56;

/// Marker distinguishing a [`Message::MetricsText`] payload from a
/// candidate-list count prefix. Record tags are small and candidate counts
/// are bounded by the frame length, so neither can collide with it.
const METRICS_MAGIC: u32 = 0xFFFF_FFFF;

/// Marker prefixing replication-stream frames ([`Message::Replicate`] /
/// [`Message::ReplicateAck`]). Like [`METRICS_MAGIC`], nothing else can
/// start with it: record frames begin with a small tag byte and a hostile
/// candidate count this large is rejected by the length bound before any
/// allocation.
const REPLICATE_MAGIC: u32 = 0xFFFF_FFFE;

/// Sub-tag after [`REPLICATE_MAGIC`]: a primary→standby record batch.
const REPL_TAG_SHIP: u8 = 1;
/// Sub-tag after [`REPLICATE_MAGIC`]: a standby→primary acknowledgement.
const REPL_TAG_ACK: u8 = 2;

/// Byte offset of the trace-context flags inside a region record: the
/// first of the 7 pad bytes after the tag. `0` (what every pre-tracing
/// sender emits) means "no context"; bit 0 marks a context present, bit 1
/// carries the head-sampling decision so client and server agree without
/// coordination.
const TRACE_FLAGS_OFFSET: usize = 1;
/// Bit 0 of the trace flags: a trace context is stamped.
const TRACE_FLAG_PRESENT: u8 = 0x01;
/// Bit 1 of the trace flags: the trace is head-sampled.
const TRACE_FLAG_SAMPLED: u8 = 0x02;
/// Byte offset of the 48-bit trace id (big-endian) inside a region
/// record: the remaining 6 pad bytes after the flags. Trace ids are
/// minted ≤ 48 bits (`boot_salt << 32 | counter`) so they fit losslessly.
const TRACE_ID_OFFSET: usize = 2;
/// Byte offset of the sequence field — which query records leave at zero,
/// so a stamped query parks the parent span id there. Update records need
/// the field for replay idempotence and carry no parent span.
const SEQ_OFFSET: usize = 48;

/// Trace context propagated inside the §8 frame, the same way the
/// deadline budget rides: in bytes that were padding, so record size —
/// and the Section 6.3 cost model — is unchanged, and pre-tracing peers
/// interoperate (their frames read back as "no context").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace id (≤ 48 bits on the wire).
    pub trace_id: u64,
    /// The sender's current span id, which the receiver's spans parent
    /// under (`0` = unknown; update frames always carry `0`).
    pub parent_span: u64,
    /// The sender's head-sampling decision for this trace.
    pub sampled: bool,
}

/// Messages exchanged between the anonymizer and the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A cloaked location update: opaque handle + region.
    CloakedUpdate {
        /// Opaque private-store handle.
        handle: u64,
        /// Per-handle sequence number (monotone at the sender). The
        /// server drops updates older than the newest applied for the
        /// handle, which makes reconnect replay idempotent.
        seq: u64,
        /// The cloaked spatial region.
        region: Rect,
    },
    /// A cloaked NN query: single-use pseudonym + query region.
    CloakedQuery {
        /// Single-use pseudonym for routing the answer back.
        pseudonym: u64,
        /// The cloaked query region.
        region: Rect,
    },
    /// The candidate list shipped back to the client.
    Candidates(Vec<Entry>),
    /// Asks the server for its rendered metrics page (operations channel;
    /// carries no location data).
    MetricsRequest,
    /// The server's metrics page in the Prometheus text exposition format,
    /// answering a [`Message::MetricsRequest`].
    MetricsText(String),
    /// The server shed the request instead of executing it (deadline
    /// already expired, or a standby that does not serve yet). The client
    /// should back off for at least the carried hint before retrying —
    /// and must treat this as a *complete* answer, never as license to
    /// weaken the cloak and try again.
    Overloaded {
        /// Suggested back-off before the next attempt, in milliseconds.
        retry_after_ms: u64,
    },
    /// A primary→standby replication batch: raw WAL-record bytes (zero or
    /// more whole records, exactly as `durability::wal` framed them) plus
    /// the primary's commit horizon. An empty batch is a heartbeat — it
    /// advances nothing but proves the primary is alive.
    Replicate {
        /// The sender's cluster epoch (its boot epoch). A standby rejects
        /// frames from a fenced epoch older than the one it has promoted
        /// past.
        epoch: u64,
        /// Highest WAL sequence the primary has made locally durable;
        /// everything in `records` is at or below it.
        commit_horizon: u64,
        /// Raw WAL-record bytes, CRC-framed per record by the durability
        /// layer; the standby re-verifies each record before applying.
        records: Vec<u8>,
    },
    /// A standby→primary acknowledgement of the replication stream.
    ReplicateAck {
        /// The acker's cluster epoch. A primary seeing an epoch newer
        /// than its own has been superseded and must fence itself.
        epoch: u64,
        /// Highest contiguous WAL sequence the standby has received and
        /// applied in memory.
        received_seq: u64,
        /// Highest WAL sequence the standby has made durable on its own
        /// storage (its group-commit flush horizon).
        durable_seq: u64,
    },
    /// Acknowledgement of a [`Message::CloakedUpdate`].
    UpdateAck {
        /// The server instance's boot identifier. A client seeing this
        /// change knows the server restarted (losing its private store)
        /// and replays every tracked region — the *only* reliable restart
        /// signal, since a reconnect alone is indistinguishable from a
        /// transient network blip.
        boot_id: u64,
        /// The acknowledged handle, echoed back. Pipelined clients keep
        /// many updates in flight and match acks positionally; the
        /// handle makes that matching *sound* — sequence numbers alone
        /// can alias, since different handles routinely carry the same
        /// seq within one window.
        handle: u64,
        /// The acknowledged sequence number, echoed back.
        seq: u64,
    },
}

/// Errors surfaced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-record.
    Truncated,
    /// Unknown record tag.
    BadTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown record tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wire messages have no varints, so every reader failure is a
/// truncation.
impl From<ReadError> for WireError {
    fn from(_: ReadError) -> Self {
        WireError::Truncated
    }
}

fn put_rect(buf: &mut BytesMut, r: &Rect) {
    buf.put_f64(r.min.x);
    buf.put_f64(r.min.y);
    buf.put_f64(r.max.x);
    buf.put_f64(r.max.y);
}

fn get_rect(r: &mut Reader<'_>) -> Result<Rect, ReadError> {
    let (ax, ay, bx, by) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    Ok(Rect::new(Point::new(ax, ay), Point::new(bx, by)))
}

fn put_record(buf: &mut BytesMut, tag: u8, id: u64, rect: &Rect, seq: u64) {
    let start = buf.len();
    buf.put_u8(tag);
    buf.put_bytes(0, 7);
    buf.put_u64(id);
    put_rect(buf, rect);
    buf.put_u64(seq);
    // Pad the record to exactly RECORD_BYTES.
    let written = buf.len() - start;
    buf.put_bytes(0, RECORD_BYTES - written);
}

fn get_record(r: &mut Reader<'_>) -> Result<(u8, u64, Rect, u64), ReadError> {
    let tag = r.u8()?;
    r.bytes(7)?;
    let id = r.u64()?;
    let rect = get_rect(r)?;
    let seq = r.u64()?;
    r.bytes(RECORD_BYTES - 56)?;
    Ok((tag, id, rect, seq))
}

/// Encodes a message. The output length is always a whole number of
/// 64-byte records (plus a 4-byte count prefix for candidate lists).
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::new();
    match msg {
        Message::CloakedUpdate {
            handle,
            seq,
            region,
        } => {
            put_record(&mut buf, TAG_UPDATE, *handle, region, *seq);
        }
        Message::CloakedQuery { pseudonym, region } => {
            put_record(&mut buf, TAG_QUERY, *pseudonym, region, 0);
        }
        Message::Candidates(entries) => {
            buf.put_u32(entries.len() as u32);
            for e in entries {
                put_record(&mut buf, TAG_CANDIDATE, e.id.0, &e.mbr, 0);
            }
        }
        Message::UpdateAck {
            boot_id,
            handle,
            seq,
        } => {
            // Dedicated ack layout, still exactly one 64-byte record:
            // the (unused) rect slot's first word echoes the handle.
            let start = buf.len();
            buf.put_u8(TAG_ACK);
            buf.put_bytes(0, 7);
            buf.put_u64(*boot_id);
            buf.put_u64(*handle);
            buf.put_bytes(0, 24);
            buf.put_u64(*seq);
            buf.put_bytes(0, RECORD_BYTES - (buf.len() - start));
        }
        Message::MetricsRequest => {
            put_record(&mut buf, TAG_METRICS_REQ, 0, &Rect::unit(), 0);
        }
        Message::Overloaded { retry_after_ms } => {
            put_record(&mut buf, TAG_OVERLOADED, *retry_after_ms, &Rect::unit(), 0);
        }
        Message::Replicate {
            epoch,
            commit_horizon,
            records,
        } => {
            buf.put_u32(REPLICATE_MAGIC);
            buf.put_u8(REPL_TAG_SHIP);
            buf.put_u64(*epoch);
            buf.put_u64(*commit_horizon);
            buf.put_u32(records.len() as u32);
            buf.put_slice(records);
        }
        Message::ReplicateAck {
            epoch,
            received_seq,
            durable_seq,
        } => {
            buf.put_u32(REPLICATE_MAGIC);
            buf.put_u8(REPL_TAG_ACK);
            buf.put_u64(*epoch);
            buf.put_u64(*received_seq);
            buf.put_u64(*durable_seq);
        }
        Message::MetricsText(text) => {
            buf.put_u32(METRICS_MAGIC);
            buf.put_u32(text.len() as u32);
            buf.put_slice(text.as_bytes());
            // A 56-byte page would make the whole frame exactly one record
            // long and collide with the single-record decode path; one pad
            // byte breaks the tie (the decoder reads only `len` bytes).
            if buf.len() == RECORD_BYTES {
                buf.put_u8(0);
            }
        }
    }
    buf.freeze()
}

/// Decodes one message. A leading `u32` is only present for candidate
/// lists, so the caller indicates the expected shape by what it reads;
/// this decoder sniffs: buffers whose length is a multiple of 64 decode as
/// a single record, others as candidate lists.
pub fn decode(bytes: Bytes) -> Result<Message, WireError> {
    let mut r = Reader::new(&bytes);
    // Metrics pages carry a magic prefix no other frame can start with:
    // record frames begin with a small tag byte and candidate-list counts
    // are bounded by the frame length, far below the all-ones marker.
    if bytes.starts_with(&METRICS_MAGIC.to_be_bytes()) {
        r.bytes(4)?;
        let len = r.u32()? as usize;
        let text = String::from_utf8_lossy(r.bytes(len)?).into_owned();
        return Ok(Message::MetricsText(text));
    }
    // Replication frames carry their own magic for the same reason.
    if bytes.starts_with(&REPLICATE_MAGIC.to_be_bytes()) {
        r.bytes(4)?;
        return match r.u8()? {
            REPL_TAG_SHIP => Ok(Message::Replicate {
                epoch: r.u64()?,
                commit_horizon: r.u64()?,
                records: {
                    let len = r.u32()? as usize;
                    r.bytes(len)?.to_vec()
                },
            }),
            REPL_TAG_ACK => Ok(Message::ReplicateAck {
                epoch: r.u64()?,
                received_seq: r.u64()?,
                durable_seq: r.u64()?,
            }),
            t => Err(WireError::BadTag(t)),
        };
    }
    if bytes.len() == RECORD_BYTES {
        if bytes[0] == TAG_ACK {
            // The ack's dedicated layout: boot id in the id slot, the
            // echoed handle in the first rect word (see `encode`).
            r.bytes(8)?;
            let (boot_id, handle) = (r.u64()?, r.u64()?);
            r.bytes(24)?;
            return Ok(Message::UpdateAck {
                boot_id,
                handle,
                seq: r.u64()?,
            });
        }
        let (tag, id, rect, seq) = get_record(&mut r)?;
        return match tag {
            TAG_UPDATE => Ok(Message::CloakedUpdate {
                handle: id,
                seq,
                region: rect,
            }),
            TAG_QUERY => Ok(Message::CloakedQuery {
                pseudonym: id,
                region: rect,
            }),
            TAG_METRICS_REQ => Ok(Message::MetricsRequest),
            TAG_OVERLOADED => Ok(Message::Overloaded { retry_after_ms: id }),
            t => Err(WireError::BadTag(t)),
        };
    }
    let count = r.u32()? as usize;
    // The count is peer-controlled: reject before allocating if the
    // buffer cannot possibly hold that many records (a hostile 4-billion
    // count must not reserve gigabytes).
    if count > r.remaining() / RECORD_BYTES {
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let (tag, id, rect, _seq) = get_record(&mut r)?;
        if tag != TAG_CANDIDATE {
            return Err(WireError::BadTag(tag));
        }
        entries.push(Entry::new(ObjectId(id), rect));
    }
    Ok(Message::Candidates(entries))
}

/// Encodes a message, stamping a deadline budget (remaining milliseconds;
/// `0` = no deadline) into the tail padding of update/query records.
///
/// Messages with no region record to carry it (candidate lists, acks,
/// metrics) are returned unchanged — answers flow *back* to the client,
/// which owns the deadline. Decoding a stamped frame with [`decode`]
/// yields the same [`Message`] as an unstamped one; the budget is
/// recovered separately with [`frame_budget`] so pre-deadline peers
/// interoperate unchanged.
pub fn encode_with_budget(msg: &Message, budget_ms: u64) -> Bytes {
    let bytes = encode(msg);
    if budget_ms == 0 || region_tag(&bytes).is_none() {
        return bytes;
    }
    let mut buf = BytesMut::from(&bytes[..]);
    buf[BUDGET_OFFSET..BUDGET_OFFSET + 8].copy_from_slice(&budget_ms.to_be_bytes());
    buf.freeze()
}

/// The tag of a single-record update/query frame: the only frames whose
/// padding carries a deadline budget or a trace context.
fn region_tag(payload: &[u8]) -> Option<u8> {
    (payload.len() == RECORD_BYTES)
        .then(|| payload[0])
        .filter(|&tag| matches!(tag, TAG_UPDATE | TAG_QUERY))
}

/// The big-endian word at `offset` of a record.
fn word_at(record: &[u8], offset: usize) -> u64 {
    Reader::new(&record[offset..]).u64().unwrap_or(0)
}

/// Reads the deadline budget (remaining milliseconds) stamped into a
/// single-record update/query frame; `0` means "no deadline" — which is
/// what every frame from a sender that never stamps budgets reads as.
pub fn frame_budget(payload: &[u8]) -> u64 {
    region_tag(payload).map_or(0, |_| word_at(payload, BUDGET_OFFSET))
}

/// Stamps a trace context into an already-encoded single-record
/// update/query frame (other frames pass through unchanged). The flags
/// and 48-bit trace id occupy the record's pad bytes 1..8; for *query*
/// records — whose sequence field is unused and zero — the parent span id
/// additionally rides bytes 48..56. [`decode`] of a stamped frame yields
/// the same [`Message`]; receivers recover the context separately with
/// [`frame_trace`], exactly like the deadline budget.
pub fn stamp_trace(bytes: Bytes, ctx: &TraceContext) -> Bytes {
    let wire_id = ctx.trace_id & 0xFFFF_FFFF_FFFF;
    let Some(tag) = region_tag(&bytes).filter(|_| wire_id != 0) else {
        return bytes;
    };
    let mut buf = BytesMut::from(&bytes[..]);
    buf[TRACE_FLAGS_OFFSET] = TRACE_FLAG_PRESENT | if ctx.sampled { TRACE_FLAG_SAMPLED } else { 0 };
    buf[TRACE_ID_OFFSET..TRACE_ID_OFFSET + 6].copy_from_slice(&wire_id.to_be_bytes()[2..8]);
    if tag == TAG_QUERY {
        buf[SEQ_OFFSET..SEQ_OFFSET + 8].copy_from_slice(&ctx.parent_span.to_be_bytes());
    }
    buf.freeze()
}

/// Reads the trace context stamped into a single-record update/query
/// frame; `None` for every frame from a sender that never stamps — the
/// pad bytes it reads were zero before tracing existed.
pub fn frame_trace(payload: &[u8]) -> Option<TraceContext> {
    let tag = region_tag(payload)?;
    let flags = payload[TRACE_FLAGS_OFFSET];
    (flags & TRACE_FLAG_PRESENT != 0).then(|| TraceContext {
        // The id is the low 48 bits of the record's first word.
        trace_id: word_at(payload, 0) & 0xFFFF_FFFF_FFFF,
        parent_span: if tag == TAG_QUERY {
            word_at(payload, SEQ_OFFSET)
        } else {
            0
        },
        sampled: flags & TRACE_FLAG_SAMPLED != 0,
    })
}

/// Number of 64-byte records a message occupies — feed this to
/// [`crate::TransmissionModel::time_for_records`].
pub fn record_count(msg: &Message) -> usize {
    match msg {
        Message::CloakedUpdate { .. }
        | Message::CloakedQuery { .. }
        | Message::UpdateAck { .. }
        | Message::MetricsRequest
        | Message::Overloaded { .. } => 1,
        Message::Candidates(entries) => entries.len(),
        // Metrics pages are free-form text on the ops channel; bill them
        // as the number of records their bytes would occupy.
        Message::MetricsText(text) => (8 + text.len()).div_ceil(RECORD_BYTES),
        // Replication frames ride the trusted-tier interconnect, not the
        // §6.3 client link; bill them by occupied bytes all the same.
        Message::Replicate { records, .. } => (25 + records.len()).div_ceil(RECORD_BYTES).max(1),
        Message::ReplicateAck { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rect {
        Rect::from_coords(0.25, 0.5, 0.375, 0.625)
    }

    #[test]
    fn hostile_candidate_count_is_rejected_without_allocation() {
        // A 4-byte frame advertising u32::MAX candidate records must fail
        // fast: `decode` may not reserve count * RECORD_BYTES bytes.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        assert_eq!(decode(buf.freeze()), Err(WireError::Truncated));
        // Same with a little trailing garbage.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_bytes(0xAB, 100);
        assert_eq!(decode(buf.freeze()), Err(WireError::Truncated));
    }

    #[test]
    fn candidate_list_round_trips() {
        let entries: Vec<Entry> = (0..7)
            .map(|i| {
                Entry::new(
                    ObjectId(i),
                    Rect::centered_at(Point::new(0.5, 0.5), 0.01 * i as f64, 0.02),
                )
            })
            .collect();
        let msg = Message::Candidates(entries.clone());
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), 4 + 7 * RECORD_BYTES);
        match decode(bytes).unwrap() {
            Message::Candidates(got) => assert_eq!(got, entries),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn metrics_text_round_trips() {
        for len in [0usize, 1, 55, 56, 57, 64, 1000] {
            let text: String = "x".repeat(len);
            let msg = Message::MetricsText(text);
            let bytes = encode(&msg);
            // Never exactly one record long: that shape is reserved for
            // single-record frames.
            assert_ne!(bytes.len(), RECORD_BYTES, "len {len}");
            assert_eq!(decode(bytes).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn budget_rides_the_record_padding() {
        let msg = Message::CloakedQuery {
            pseudonym: 7,
            region: rect(),
        };
        let stamped = encode_with_budget(&msg, 1234);
        // Same size, same decoded message — the budget lives in padding.
        assert_eq!(stamped.len(), RECORD_BYTES);
        assert_eq!(decode(stamped.clone()).unwrap(), msg);
        assert_eq!(frame_budget(&stamped), 1234);
        // Unstamped frames read as "no deadline".
        assert_eq!(frame_budget(&encode(&msg)), 0);
        // Non-region frames never carry a budget.
        let ack = Message::UpdateAck {
            boot_id: 1,
            handle: 3,
            seq: 2,
        };
        assert_eq!(encode_with_budget(&ack, 99), encode(&ack));
        assert_eq!(frame_budget(&encode(&ack)), 0);
    }

    #[test]
    fn trace_context_rides_the_record_padding() {
        let msg = Message::CloakedQuery {
            pseudonym: 7,
            region: rect(),
        };
        let ctx = TraceContext {
            trace_id: (0xBEEF << 32) | 0x1234_5678,
            parent_span: 0xDEAD_BEEF_CAFE,
            sampled: true,
        };
        let stamped = stamp_trace(encode(&msg), &ctx);
        // Same size, same decoded message — the context lives in padding.
        assert_eq!(stamped.len(), RECORD_BYTES);
        assert_eq!(decode(stamped.clone()).unwrap(), msg);
        assert_eq!(frame_trace(&stamped), Some(ctx));
        // Context and budget coexist: they occupy disjoint pad bytes.
        let both = stamp_trace(encode_with_budget(&msg, 1234), &ctx);
        assert_eq!(frame_budget(&both), 1234);
        assert_eq!(frame_trace(&both), Some(ctx));
        assert_eq!(decode(both).unwrap(), msg);
        // Unstamped frames read as "no context".
        assert_eq!(frame_trace(&encode(&msg)), None);
        // Non-region frames never carry a context.
        let ack = Message::UpdateAck {
            boot_id: 1,
            handle: 3,
            seq: 2,
        };
        assert_eq!(stamp_trace(encode(&ack), &ctx), encode(&ack));
        assert_eq!(frame_trace(&encode(&ack)), None);
    }

    #[test]
    fn update_trace_context_preserves_seq_and_drops_parent() {
        let msg = Message::CloakedUpdate {
            handle: 42,
            seq: 9001,
            region: rect(),
        };
        let ctx = TraceContext {
            trace_id: 77,
            parent_span: 123,
            sampled: false,
        };
        let stamped = stamp_trace(encode(&msg), &ctx);
        // The update's sequence field is load-bearing (replay
        // idempotence), so the parent span id must not clobber it.
        assert_eq!(decode(stamped.clone()).unwrap(), msg);
        let got = frame_trace(&stamped).unwrap();
        assert_eq!(got.trace_id, 77);
        assert_eq!(got.parent_span, 0);
        assert!(!got.sampled);
    }

    #[test]
    fn replicate_round_trips() {
        // A heartbeat (empty batch), a small batch, and a batch whose
        // total frame length happens to be exactly one record long — the
        // magic prefix must win over the single-record sniff.
        for len in [0usize, 17, 39, 64, 300] {
            let msg = Message::Replicate {
                epoch: 7,
                commit_horizon: 9001,
                records: (0..len as u32).map(|i| i as u8).collect(),
            };
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), 25 + len);
            assert!(record_count(&msg) >= 1);
            assert_eq!(decode(bytes).unwrap(), msg, "len {len}");
        }
    }

    /// One encoding of each of the nine message kinds (two candidate
    /// lists), with its encoded length and §6.3 record count.
    fn one_of_each() -> Vec<(Message, usize, usize)> {
        let update = Message::CloakedUpdate {
            handle: 42,
            seq: 9001,
            region: rect(),
        };
        let query = Message::CloakedQuery {
            pseudonym: u64::MAX,
            region: rect(),
        };
        let entries = (0..2).map(|i| Entry::new(ObjectId(i), rect())).collect();
        let replicate = Message::Replicate {
            epoch: 3,
            commit_horizon: 120,
            records: vec![0xAB; 41],
        };
        let replicate_ack = Message::ReplicateAck {
            epoch: 3,
            received_seq: 120,
            durable_seq: 112,
        };
        let ack = Message::UpdateAck {
            boot_id: 0x00B0_071D,
            handle: 0xAB5E_0001,
            seq: 17,
        };
        vec![
            (update, RECORD_BYTES, 1),
            (query, RECORD_BYTES, 1),
            (Message::Candidates(entries), 4 + 2 * RECORD_BYTES, 2),
            (Message::Candidates(Vec::new()), 4, 0),
            (Message::MetricsRequest, RECORD_BYTES, 1),
            (Message::MetricsText("casper_up 1\n".into()), 8 + 12, 1),
            (
                Message::Overloaded {
                    retry_after_ms: 150,
                },
                RECORD_BYTES,
                1,
            ),
            (replicate, 25 + 41, 2),
            (replicate_ack, 29, 1),
            (ack, RECORD_BYTES, 1),
        ]
    }

    #[test]
    fn every_kind_round_trips_and_decode_survives_truncation_and_flips() {
        for (msg, len, records) in one_of_each() {
            let bytes = encode(&msg);
            assert_eq!((bytes.len(), record_count(&msg)), (len, records), "{msg:?}");
            assert_eq!(decode(bytes.clone()).as_ref(), Ok(&msg));
            // Every strict prefix is truncated, never a shorter message (a
            // one-record prefix of a candidate list sniffs as tag 0).
            for cut in 0..bytes.len() {
                let got = decode(bytes.slice(0..cut));
                assert!(
                    matches!(got, Err(WireError::Truncated))
                        || (cut == RECORD_BYTES && got == Err(WireError::BadTag(0))),
                    "{msg:?} cut {cut}: {got:?}"
                );
            }
            // Every single-byte flip returns, whatever it decodes to.
            for i in 0..bytes.len() {
                for flip in 1..=255u8 {
                    let mut raw = bytes.to_vec();
                    raw[i] ^= flip;
                    let _ = decode(Bytes::from(raw));
                }
            }
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut buf = BytesMut::new();
        put_record(&mut buf, 99, 1, &rect(), 0);
        assert_eq!(decode(buf.freeze()), Err(WireError::BadTag(99)));
        // Unknown replication sub-tag.
        let mut buf = BytesMut::new();
        buf.put_u32(super::REPLICATE_MAGIC);
        buf.put_u8(99);
        assert_eq!(decode(buf.freeze()), Err(WireError::BadTag(99)));
    }
}
