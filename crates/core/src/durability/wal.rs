//! Append-only write-ahead log of anonymizer operations.
//!
//! Every state-changing op on the trusted tier is encoded as one WAL
//! record before it is applied:
//!
//! ```text
//! | len u32 | crc u32 | seq u64 | tag u8 | fields... |
//! ```
//!
//! `len` counts the bytes after the two header words (`seq` + `tag` +
//! fields). `crc` is CRC-32 (IEEE, the same polynomial as the §7 wire
//! frames) over `len || seq || tag || fields`, so a corrupted length
//! prefix is just as detectable as corrupted payload — any single-byte
//! corruption anywhere in a record is caught, and CRC-32 catches all
//! burst errors up to 32 bits, which covers the torn-write failure
//! mode (a tear mid-record truncates it, failing the length check; a
//! tear plus bit flips fails the CRC).
//!
//! Records carry strictly increasing sequence numbers; replay rejects
//! any record whose `seq` is not exactly `previous + 1`, which turns a
//! corrupted-but-CRC-valid impossibility into a hard stop rather than
//! silent reordering.
//!
//! [`GroupWal`] adds *group commit* on top: concurrent writers encode
//! into a shared buffer and one of them flushes (append + fsync) on
//! behalf of everyone, so `ParallelEngine`'s shard-keyed batches
//! amortise the fsync instead of paying one per op.

use bytes::{Buf, BufMut};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use parking_lot::{Condvar, Mutex};

use crate::net::crc32;

use super::storage::Storage;
use super::DurabilityError;

/// One logged anonymizer operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp {
    /// `register(uid, profile, pos)` — also logged for re-registration.
    Register {
        /// The registering user.
        uid: UserId,
        /// Her `(k, A_min)` privacy profile.
        profile: Profile,
        /// Her exact position.
        pos: Point,
    },
    /// `update_location(uid, pos)`.
    UpdateLocation {
        /// The moving user.
        uid: UserId,
        /// Her new exact position.
        pos: Point,
    },
    /// `update_profile(uid, profile)`.
    UpdateProfile {
        /// The user changing her profile.
        uid: UserId,
        /// The new `(k, A_min)` profile.
        profile: Profile,
    },
    /// `deregister(uid)`.
    Deregister {
        /// The departing user.
        uid: UserId,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_UPDATE_LOCATION: u8 = 2;
const TAG_UPDATE_PROFILE: u8 = 3;
const TAG_DEREGISTER: u8 = 4;

/// Header bytes before the CRC-covered region starts being variable:
/// `len u32 | crc u32`.
const RECORD_PREFIX: usize = 8;
/// Fixed bytes inside the CRC-covered region: `seq u64 | tag u8`.
const RECORD_FIXED: usize = 9;
/// Largest legal `len` value; anything bigger is corruption. The widest
/// op (`Register`) is 9 + 8 + 12 + 16 bytes.
const MAX_RECORD_LEN: u32 = 64;

impl WalOp {
    fn tag(&self) -> u8 {
        match self {
            WalOp::Register { .. } => TAG_REGISTER,
            WalOp::UpdateLocation { .. } => TAG_UPDATE_LOCATION,
            WalOp::UpdateProfile { .. } => TAG_UPDATE_PROFILE,
            WalOp::Deregister { .. } => TAG_DEREGISTER,
        }
    }
}

fn put_profile(buf: &mut Vec<u8>, profile: Profile) {
    buf.put_u32(profile.k);
    buf.put_f64(profile.a_min);
}

fn put_point(buf: &mut Vec<u8>, pos: Point) {
    buf.put_f64(pos.x);
    buf.put_f64(pos.y);
}

/// Encodes one record (`seq`, `op`) into `out`.
pub fn encode_record(out: &mut Vec<u8>, seq: u64, op: &WalOp) {
    let start = out.len();
    out.put_u32(0); // len placeholder
    out.put_u32(0); // crc placeholder
    out.put_u64(seq);
    out.put_u8(op.tag());
    match *op {
        WalOp::Register { uid, profile, pos } => {
            out.put_u64(uid.0);
            put_profile(out, profile);
            put_point(out, pos);
        }
        WalOp::UpdateLocation { uid, pos } => {
            out.put_u64(uid.0);
            put_point(out, pos);
        }
        WalOp::UpdateProfile { uid, profile } => {
            out.put_u64(uid.0);
            put_profile(out, profile);
        }
        WalOp::Deregister { uid } => {
            out.put_u64(uid.0);
        }
    }
    let len = (out.len() - start - RECORD_PREFIX) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    // CRC over len || seq || tag || fields — everything except the crc
    // word itself.
    let crc = {
        let mut h = crc32(&len.to_be_bytes());
        h = crc32_continue(h, &out[start + RECORD_PREFIX..]);
        h
    };
    out[start + 4..start + 8].copy_from_slice(&crc.to_be_bytes());
}

/// Continues a CRC-32 computation over more bytes. The net-layer
/// [`crc32`] is one-shot; this re-enters the bit loop from a previous
/// digest so the record CRC can cover two discontiguous slices without
/// concatenating them.
fn crc32_continue(prev: u32, data: &[u8]) -> u32 {
    let mut crc = !prev;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why decoding stopped at a record boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStop {
    /// Clean end of input: the previous record was the last one.
    End,
    /// The remaining bytes are shorter than the declared record — the
    /// classic torn tail.
    Truncated,
    /// The CRC did not match (bit flips, or a tear that happened to
    /// leave enough bytes).
    BadCrc,
    /// The declared length is impossible for any op.
    BadLength,
    /// The tag byte is not a known op.
    BadTag,
    /// The sequence number did not follow its predecessor.
    BadSeq,
}

/// One decoded record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord {
    /// The record's sequence number.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Decodes records from `data` until the end or the first invalid
/// record. Returns the records, the byte offset of the valid prefix,
/// and why decoding stopped. `expect_seq` is the sequence number the
/// first record must carry (`None` accepts any start). Never panics on
/// arbitrary input.
pub fn decode_records(
    data: &[u8],
    mut expect_seq: Option<u64>,
) -> (Vec<WalRecord>, usize, DecodeStop) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &data[offset..];
        if rest.is_empty() {
            return (records, offset, DecodeStop::End);
        }
        if rest.len() < RECORD_PREFIX {
            return (records, offset, DecodeStop::Truncated);
        }
        let mut cursor = rest;
        let len = cursor.get_u32();
        let crc = cursor.get_u32();
        if len < RECORD_FIXED as u32 || len > MAX_RECORD_LEN {
            return (records, offset, DecodeStop::BadLength);
        }
        let body_len = len as usize;
        if cursor.remaining() < body_len {
            return (records, offset, DecodeStop::Truncated);
        }
        let body = &rest[RECORD_PREFIX..RECORD_PREFIX + body_len];
        let actual = crc32_continue(crc32(&len.to_be_bytes()), body);
        if actual != crc {
            return (records, offset, DecodeStop::BadCrc);
        }
        let mut body_cur = body;
        let seq = body_cur.get_u64();
        if let Some(want) = expect_seq {
            if seq != want {
                return (records, offset, DecodeStop::BadSeq);
            }
        }
        let tag = body_cur.get_u8();
        let op = match decode_op(tag, body_cur) {
            Some(op) => op,
            None => return (records, offset, DecodeStop::BadTag),
        };
        records.push(WalRecord { seq, op });
        expect_seq = Some(seq + 1);
        offset += RECORD_PREFIX + body_len;
    }
}

fn decode_op(tag: u8, mut body: &[u8]) -> Option<WalOp> {
    match tag {
        TAG_REGISTER => {
            if body.remaining() != 8 + 12 + 16 {
                return None;
            }
            let uid = UserId(body.get_u64());
            let k = body.get_u32();
            let a_min = body.get_f64();
            let x = body.get_f64();
            let y = body.get_f64();
            if !a_min.is_finite() || !x.is_finite() || !y.is_finite() {
                return None;
            }
            Some(WalOp::Register {
                uid,
                profile: Profile::new(k, a_min),
                pos: Point::new(x, y),
            })
        }
        TAG_UPDATE_LOCATION => {
            if body.remaining() != 8 + 16 {
                return None;
            }
            let uid = UserId(body.get_u64());
            let x = body.get_f64();
            let y = body.get_f64();
            if !x.is_finite() || !y.is_finite() {
                return None;
            }
            Some(WalOp::UpdateLocation {
                uid,
                pos: Point::new(x, y),
            })
        }
        TAG_UPDATE_PROFILE => {
            if body.remaining() != 8 + 12 {
                return None;
            }
            let uid = UserId(body.get_u64());
            let k = body.get_u32();
            let a_min = body.get_f64();
            if !a_min.is_finite() {
                return None;
            }
            Some(WalOp::UpdateProfile {
                uid,
                profile: Profile::new(k, a_min),
            })
        }
        TAG_DEREGISTER => {
            if body.remaining() != 8 {
                return None;
            }
            Some(WalOp::Deregister {
                uid: UserId(body.get_u64()),
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Group commit.

struct WalState {
    /// Records encoded but not yet flushed.
    pending: Vec<u8>,
    /// Highest seq sitting in `pending`.
    pending_seq: u64,
    /// Highest seq known durable (appended + fsynced).
    durable_seq: u64,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// True while some thread is inside append+fsync.
    flushing: bool,
    /// Sticky: once an append or fsync fails, the log refuses further
    /// work — acknowledging anything after a failed fsync would break
    /// the no-acked-op-lost guarantee.
    poisoned: bool,
}

/// A group-committing WAL over a [`Storage`] file.
///
/// [`GroupWal::commit`] is the whole API: it logs an op and returns
/// once the op is durable. Under concurrency, writers that arrive while
/// a flush is in flight batch their records together and ride the next
/// fsync — one disk round-trip per convoy, not per op.
pub struct GroupWal<S: Storage + ?Sized> {
    storage: std::sync::Arc<S>,
    file: Mutex<String>,
    state: Mutex<WalState>,
    flushed: Condvar,
}

impl<S: Storage + ?Sized> GroupWal<S> {
    /// Opens a group-commit WAL appending to `file`; the first record
    /// will carry `next_seq`.
    pub fn new(storage: std::sync::Arc<S>, file: String, next_seq: u64) -> Self {
        Self {
            storage,
            file: Mutex::new(file),
            state: Mutex::new(WalState {
                pending: Vec::new(),
                pending_seq: next_seq.saturating_sub(1),
                durable_seq: next_seq.saturating_sub(1),
                next_seq,
                flushing: false,
                poisoned: false,
            }),
            flushed: Condvar::new(),
        }
    }

    /// The file currently being appended to.
    pub fn current_file(&self) -> String {
        self.file.lock().clone()
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().durable_seq
    }

    /// Next sequence number that will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Redirects future appends to `file`, with `next_seq` continuing
    /// the sequence. Used at checkpoint rotation; the caller must have
    /// flushed (no commits in flight).
    pub fn rotate(&self, file: String, next_seq: u64) {
        let mut name = self.file.lock();
        let mut state = self.state.lock();
        debug_assert!(state.pending.is_empty(), "rotate with pending records");
        *name = file;
        state.next_seq = next_seq;
        state.pending_seq = next_seq.saturating_sub(1);
        state.durable_seq = next_seq.saturating_sub(1);
    }

    /// Logs `op` durably and returns its sequence number. Blocks until
    /// the record (and, incidentally, every record batched with it) is
    /// fsynced. Returns [`DurabilityError::WalPoisoned`] for every call
    /// after the first IO failure.
    pub fn commit(&self, op: &WalOp) -> Result<u64, DurabilityError> {
        let my_seq;
        {
            let mut state = self.state.lock();
            if state.poisoned {
                return Err(DurabilityError::WalPoisoned);
            }
            my_seq = state.next_seq;
            state.next_seq += 1;
            let mut buf = std::mem::take(&mut state.pending);
            encode_record(&mut buf, my_seq, op);
            state.pending = buf;
            state.pending_seq = my_seq;
        }
        // The group-commit wait — queueing behind the current flusher
        // plus the fsync itself — is where a traced request spends its
        // durability time, so it gets its own span on the requester.
        let mut wal_span = crate::tel::span("wal_commit");
        let waited = self.wait_durable(my_seq);
        wal_span.set_outcome(if waited.is_ok() { "ok" } else { "error" });
        drop(wal_span);
        waited?;
        Ok(my_seq)
    }

    /// Blocks until every op with sequence `<= seq` is durable, flushing
    /// on behalf of the group if no one else is.
    fn wait_durable(&self, seq: u64) -> Result<(), DurabilityError> {
        let mut state = self.state.lock();
        loop {
            if state.poisoned {
                return Err(DurabilityError::WalPoisoned);
            }
            if state.durable_seq >= seq {
                return Ok(());
            }
            if state.flushing {
                // Someone else is at the disk; our record is in their
                // batch or the next one.
                self.flushed.wait(&mut state);
                continue;
            }
            // We are the flusher: take the whole pending batch.
            let batch = std::mem::take(&mut state.pending);
            let batch_seq = state.pending_seq;
            state.flushing = true;
            drop(state);

            let file = self.file.lock().clone();
            let result = self
                .storage
                .append(&file, &batch)
                .and_then(|()| self.storage.sync(&file));

            state = self.state.lock();
            state.flushing = false;
            match result {
                Ok(()) => {
                    state.durable_seq = state.durable_seq.max(batch_seq);
                    crate::tel::wal_flush(batch.len() as u64);
                }
                Err(_) => {
                    state.poisoned = true;
                }
            }
            self.flushed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::storage::MemStorage;
    use super::*;
    use std::sync::Arc;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Register {
                uid: UserId(7),
                profile: Profile::new(5, 0.01),
                pos: Point::new(0.25, 0.75),
            },
            WalOp::UpdateLocation {
                uid: UserId(7),
                pos: Point::new(0.3, 0.7),
            },
            WalOp::UpdateProfile {
                uid: UserId(7),
                profile: Profile::new(9, 0.05),
            },
            WalOp::Deregister { uid: UserId(7) },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut buf = Vec::new();
        for (i, op) in ops().iter().enumerate() {
            encode_record(&mut buf, 10 + i as u64, op);
        }
        let (records, valid, stop) = decode_records(&buf, Some(10));
        assert_eq!(stop, DecodeStop::End);
        assert_eq!(valid, buf.len());
        assert_eq!(records.len(), 4);
        for (i, (rec, op)) in records.iter().zip(ops()).enumerate() {
            assert_eq!(rec.seq, 10 + i as u64);
            assert_eq!(rec.op, op);
        }
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, op) in ops().iter().enumerate() {
            encode_record(&mut buf, i as u64, op);
            boundaries.push(buf.len());
        }
        // Tear at every possible offset: the decoded prefix must always
        // be a whole number of records and never panic. A cut exactly on
        // a record boundary is indistinguishable from a clean end (those
        // records were whole), so only mid-record cuts must report a tear.
        for cut in 0..buf.len() {
            let (records, valid, stop) = decode_records(&buf[..cut], Some(0));
            assert!(valid <= cut);
            assert!(records.len() <= 4);
            assert!(boundaries.contains(&valid), "valid={valid} not a boundary");
            if boundaries.contains(&cut) {
                assert_eq!(stop, DecodeStop::End, "cut={cut} is a whole prefix");
                assert_eq!(valid, cut);
            } else {
                assert_ne!(stop, DecodeStop::End, "cut={cut} should not look complete");
            }
        }
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let mut clean = Vec::new();
        encode_record(&mut clean, 3, &ops()[0]);
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x41;
            let (records, _, stop) = decode_records(&bad, Some(3));
            assert!(
                records.is_empty() && stop != DecodeStop::End,
                "corruption at byte {i} went undetected: {stop:?}"
            );
        }
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 5, &ops()[0]);
        encode_record(&mut buf, 7, &ops()[1]); // gap!
        let (records, _, stop) = decode_records(&buf, Some(5));
        assert_eq!(records.len(), 1);
        assert_eq!(stop, DecodeStop::BadSeq);
    }

    #[test]
    fn group_commit_is_durable_and_ordered() {
        let storage = Arc::new(MemStorage::new());
        let wal = Arc::new(GroupWal::new(storage.clone(), "wal-test.log".into(), 1));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                let mut seqs = Vec::new();
                for i in 0..50 {
                    let seq = wal
                        .commit(&WalOp::UpdateLocation {
                            uid: UserId(t),
                            pos: Point::new(0.1, 0.1 * (i as f64 % 10.0)),
                        })
                        .unwrap();
                    seqs.push(seq);
                }
                seqs
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=400).collect();
        assert_eq!(all, expect, "every op got a unique contiguous seq");
        assert_eq!(wal.durable_seq(), 400);
        let data = storage.read("wal-test.log").unwrap();
        let (records, _, stop) = decode_records(&data, Some(1));
        assert_eq!(stop, DecodeStop::End);
        assert_eq!(records.len(), 400);
    }

    #[test]
    fn poisoned_wal_refuses_further_commits() {
        use super::super::storage::FaultPlan;
        let storage = Arc::new(MemStorage::with_faults(FaultPlan {
            seed: 1,
            crash_after_writes: Some(2),
            ..FaultPlan::default()
        }));
        let wal = GroupWal::new(storage, "w.log".into(), 1);
        let op = WalOp::Deregister { uid: UserId(1) };
        assert!(wal.commit(&op).is_ok()); // append+sync = writes 1,2
        let err = wal.commit(&op).unwrap_err(); // write 3 crashes
        assert!(matches!(
            err,
            DurabilityError::WalPoisoned | DurabilityError::Io(_)
        ));
        assert!(matches!(
            wal.commit(&op).unwrap_err(),
            DurabilityError::WalPoisoned
        ));
    }
}
