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
//! fields). `crc` is CRC-32 (IEEE) over `len || seq || tag || fields`,
//! so a corrupted length prefix is just as detectable as corrupted
//! payload — any single-byte corruption anywhere in a record is caught,
//! and CRC-32 catches all burst errors up to 32 bits, which covers the
//! torn-write failure mode (a tear mid-record truncates it, failing the
//! length check; a tear plus bit flips fails the CRC). The CRC and the
//! bounds-checked reader records decode through are `binary.rs`'s, the
//! one home both share with the §7 wire frames and the checkpoints.
//!
//! Records carry strictly increasing sequence numbers; replay rejects
//! any record whose `seq` is not exactly `previous + 1`, which turns a
//! corrupted-but-CRC-valid impossibility into a hard stop rather than
//! silent reordering.
//!
//! `GroupWal` adds *group commit* on top: concurrent writers encode
//! into a shared buffer and one of them flushes (append + fsync) on
//! behalf of everyone, so concurrent committers (two drivers, or every
//! client of a replicated primary) amortise the fsync instead of paying
//! one per op. A commit is two
//! steps, `log` (reserve consecutive seqs for a run of ops, encode them
//! into the pending buffer) and `wait_durable` (block until a flush
//! covers them); `commit_batch` runs both, which is how a standby logs a
//! whole replication frame with one flush. The replicated primary does
//! something between the two: it queues the record for the standby, so
//! the ship overlaps the local fsync.

use std::sync::{Condvar, Mutex};

use bytes::BufMut;
use casper_geometry::Point;
use casper_grid::{Profile, UserId};

use crate::binary::{crc32, crc32_update, ReadError, Reader};
use crate::sync::{lock, wait};

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
    let crc = record_crc(len, &out[start + RECORD_PREFIX..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_be_bytes());
}

/// The record CRC: over `len` and the body, two discontiguous slices.
fn record_crc(len: u32, body: &[u8]) -> u32 {
    crc32_update(crc32(&len.to_be_bytes()), body)
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
    /// The declared length is impossible for any op, or is not the
    /// length of the op its tag names.
    BadLength,
    /// The tag byte is not a known op, or the op carries a non-finite
    /// coordinate or `a_min`.
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
        match decode_record(rest, expect_seq) {
            Ok((record, len)) => {
                records.push(record);
                expect_seq = Some(record.seq + 1);
                offset += len;
            }
            Err(stop) => return (records, offset, stop),
        }
    }
}

/// Decodes a whole WAL file as [`decode_records`] does, except that a
/// remainder of nothing but zero bytes after the last whole record is a
/// clean end: `DirStorage` preallocates its files with zeros, so a log
/// that ends cleanly ends in zero fill. A record torn anywhere before
/// that fill still stops decoding with its own reason, because its bytes
/// are not all zero. (A tear that left only zero bytes of a record looks
/// like fill, and loses nothing: that record was never whole.)
pub fn decode_log(data: &[u8], expect_seq: Option<u64>) -> (Vec<WalRecord>, usize, DecodeStop) {
    let (records, valid, stop) = decode_records(data, expect_seq);
    let stop = if data[valid..].iter().all(|&b| b == 0) {
        DecodeStop::End
    } else {
        stop
    };
    (records, valid, stop)
}

/// Decodes the record at the front of `rest`, returning it and its
/// encoded length.
fn decode_record(rest: &[u8], expect_seq: Option<u64>) -> Result<(WalRecord, usize), DecodeStop> {
    let mut r = Reader::new(rest);
    let truncated = |_: ReadError| DecodeStop::Truncated;
    let len = r.u32().map_err(truncated)?;
    let crc = r.u32().map_err(truncated)?;
    if !(RECORD_FIXED as u32..=MAX_RECORD_LEN).contains(&len) {
        return Err(DecodeStop::BadLength);
    }
    let body = r.bytes(len as usize).map_err(truncated)?;
    if record_crc(len, body) != crc {
        return Err(DecodeStop::BadCrc);
    }
    // `len >= RECORD_FIXED`, so `seq` and `tag` are present.
    let mut r = Reader::new(body);
    let (seq, tag) = (r.u64().map_err(truncated)?, r.u8().map_err(truncated)?);
    if expect_seq.is_some_and(|want| seq != want) {
        return Err(DecodeStop::BadSeq);
    }
    if !(TAG_REGISTER..=TAG_DEREGISTER).contains(&tag) {
        return Err(DecodeStop::BadTag);
    }
    // A known tag must be followed by exactly its op's fields.
    let op = read_fields(tag, &mut r)
        .ok()
        .filter(|_| r.remaining() == 0)
        .ok_or(DecodeStop::BadLength)?
        .ok_or(DecodeStop::BadTag)?;
    Ok((WalRecord { seq, op }, RECORD_PREFIX + len as usize))
}

/// Reads a known op's fields in encoding order; `Ok(None)` when a float
/// is not finite (checked raw: `Profile::new` would clamp an infinite
/// `a_min` into range).
fn read_fields(tag: u8, r: &mut Reader<'_>) -> Result<Option<WalOp>, ReadError> {
    let uid = UserId(r.u64()?);
    let finite = |vs: &[f64]| vs.iter().all(|v| v.is_finite());
    Ok(match tag {
        TAG_REGISTER => {
            let (k, a_min, x, y) = (r.u32()?, r.f64()?, r.f64()?, r.f64()?);
            finite(&[a_min, x, y]).then(|| WalOp::Register {
                uid,
                profile: Profile::new(k, a_min),
                pos: Point::new(x, y),
            })
        }
        TAG_UPDATE_LOCATION => {
            let (x, y) = (r.f64()?, r.f64()?);
            finite(&[x, y]).then(|| WalOp::UpdateLocation {
                uid,
                pos: Point::new(x, y),
            })
        }
        TAG_UPDATE_PROFILE => {
            let (k, a_min) = (r.u32()?, r.f64()?);
            finite(&[a_min]).then(|| WalOp::UpdateProfile {
                uid,
                profile: Profile::new(k, a_min),
            })
        }
        _ => Some(WalOp::Deregister { uid }),
    })
}

// ---------------------------------------------------------------------
// Group commit.

struct WalState {
    /// Records encoded but not yet flushed: every seq below `next_seq`
    /// that a flush has not taken yet.
    pending: Vec<u8>,
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
/// `commit_batch` logs a run of ops and returns once all of them are
/// durable; `log` + `wait_durable` are its two halves.
/// Under concurrency, writers that arrive while a flush is in flight
/// batch their records together and ride the next fsync — one disk
/// round-trip per convoy, not per op.
pub(crate) struct GroupWal<S: Storage + ?Sized> {
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
                durable_seq: next_seq.saturating_sub(1),
                next_seq,
                flushing: false,
                poisoned: false,
            }),
            flushed: Condvar::new(),
        }
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        lock(&self.state).durable_seq
    }

    /// Next sequence number that will be assigned.
    pub fn next_seq(&self) -> u64 {
        lock(&self.state).next_seq
    }

    /// Whether an append or fsync has failed: the log then refuses every
    /// further write, for good.
    pub fn poisoned(&self) -> bool {
        lock(&self.state).poisoned
    }

    /// Redirects future appends to `file`, with `next_seq` continuing
    /// the sequence. Used at checkpoint rotation; the caller must have
    /// flushed (no commits in flight).
    pub fn rotate(&self, file: String, next_seq: u64) {
        let mut name = lock(&self.file);
        let mut state = lock(&self.state);
        debug_assert!(state.pending.is_empty(), "rotate with pending records");
        *name = file;
        state.next_seq = next_seq;
        state.durable_seq = next_seq.saturating_sub(1);
    }

    /// Logs `ops` at consecutive sequence numbers and blocks until all
    /// of them (and, incidentally, every record batched with them) are
    /// fsynced — one flush for the run, not one per op. Returns the last
    /// op's sequence number, or [`DurabilityError::WalPoisoned`] for
    /// every call after the first IO failure.
    pub(crate) fn commit_batch(&self, ops: &[WalOp]) -> Result<u64, DurabilityError> {
        let last = self.log(ops, |_| {})?;
        self.wait_durable(last)?;
        Ok(last)
    }

    /// The first half of a commit: reserves consecutive sequence numbers
    /// for `ops` and encodes them into the pending batch, without waiting
    /// for the disk, and returns the last seq. Nothing is durable until
    /// [`GroupWal::wait_durable`] covers it. `on_logged` runs with that
    /// seq while the log's state lock is still held, so whatever it
    /// records sees ops in sequence order; it must not call back into
    /// this log.
    pub(crate) fn log(
        &self,
        ops: &[WalOp],
        on_logged: impl FnOnce(u64),
    ) -> Result<u64, DurabilityError> {
        let mut state = lock(&self.state);
        if state.poisoned {
            return Err(DurabilityError::WalPoisoned);
        }
        for op in ops {
            let seq = state.next_seq;
            state.next_seq += 1;
            encode_record(&mut state.pending, seq, op);
        }
        let last = state.next_seq.saturating_sub(1);
        on_logged(last);
        Ok(last)
    }

    /// Blocks until every op with sequence `<= seq` is durable, flushing
    /// on behalf of the group if no one else is. Fails with
    /// [`DurabilityError::WalPoisoned`] only for a seq no flush made
    /// durable.
    pub(crate) fn wait_durable(&self, seq: u64) -> Result<(), DurabilityError> {
        // The group-commit wait — queueing behind the current flusher
        // plus the fsync itself — is where a traced request spends its
        // durability time, so it gets its own span on the requester.
        let mut wal_span = crate::tel::span("wal_commit");
        let mut state = lock(&self.state);
        let waited = loop {
            // Durable first: a seq the disk holds is committed even if a
            // later flush has failed since, and its commit must apply.
            if state.durable_seq >= seq {
                break Ok(());
            }
            if state.poisoned {
                break Err(DurabilityError::WalPoisoned);
            }
            if state.flushing {
                // Someone else is at the disk; our record is in their
                // batch or the next one.
                state = wait(&self.flushed, state);
                continue;
            }
            // We are the flusher: take the whole pending batch.
            let batch = std::mem::take(&mut state.pending);
            let batch_seq = state.next_seq.saturating_sub(1);
            state.flushing = true;
            drop(state);

            let file = lock(&self.file).clone();
            let result = self
                .storage
                .append(&file, &batch)
                .and_then(|()| self.storage.sync(&file));

            state = lock(&self.state);
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
        };
        drop(state);
        wal_span.set_outcome(if waited.is_ok() { "ok" } else { "error" });
        waited
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
    fn zero_fill_is_a_clean_end_but_a_tear_before_it_is_not() {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, op) in ops().iter().enumerate() {
            encode_record(&mut log, i as u64, op);
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let mut file = log[..cut].to_vec();
            file.resize(cut + 4096, 0);
            let (records, valid, stop) = decode_log(&file, Some(0));
            assert!(boundaries.contains(&valid), "valid={valid} not a boundary");
            assert_eq!(
                records.len(),
                boundaries.iter().position(|&b| b == valid).unwrap()
            );
            // A record cut just before bytes that are zero anyway reads
            // back whole from the fill: it is the op that was written.
            let torn = &log[valid.min(cut)..cut];
            assert!(log[cut..valid.max(cut)].iter().all(|&b| b == 0));
            if torn.iter().all(|&b| b == 0) {
                // Whole records, or a tear that left only zero bytes of
                // the next one: nothing durable was lost either way.
                assert_eq!(stop, DecodeStop::End, "cut={cut}");
            } else {
                assert_ne!(stop, DecodeStop::End, "cut={cut}: torn bytes read as fill");
            }
        }
        // Zero fill then a record again is not fill.
        let mut file = log.clone();
        file.extend_from_slice(&[0; 512]);
        encode_record(&mut file, 4, &ops()[0]);
        assert_eq!(decode_log(&file, Some(0)).2, DecodeStop::BadLength);
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
    fn known_tag_with_a_short_body_is_bad_length() {
        // A CRC-valid UpdateLocation record one byte short: the tag is
        // known, the body is not its op's length.
        let mut rec = Vec::new();
        encode_record(&mut rec, 1, &ops()[1]);
        rec.pop();
        let len = (rec.len() - RECORD_PREFIX) as u32;
        rec[..4].copy_from_slice(&len.to_be_bytes());
        let crc = record_crc(len, &rec[RECORD_PREFIX..]);
        rec[4..8].copy_from_slice(&crc.to_be_bytes());
        let (records, valid, stop) = decode_records(&rec, Some(1));
        assert_eq!((records.len(), valid), (0, 0));
        assert_eq!(stop, DecodeStop::BadLength);
    }

    /// Format freeze: one record per op, byte for byte as the PR 21
    /// build wrote them, so its WAL files still replay.
    #[test]
    fn golden_records_for_every_op() {
        const GOLDEN: [&str; 4] = [
            "0000002de3f4ad61 000000000000000a 01 0000000000000007 00000005
             3f847ae147ae147b 3fd0000000000000 3fe8000000000000",
            "00000021e8449c73 000000000000000b 02 0000000000000007
             3fd3333333333333 3fe6666666666666",
            "0000001d5a5b4398 000000000000000c 03 0000000000000007 00000009
             3fa999999999999a",
            "00000011b683606d 000000000000000d 04 0000000000000007",
        ];
        let mut log = Vec::new();
        for (i, (op, golden)) in ops().iter().zip(GOLDEN).enumerate() {
            let mut rec = Vec::new();
            encode_record(&mut rec, 10 + i as u64, op);
            assert_eq!(rec, crate::binary::from_hex(golden), "{op:?}");
            log.extend(rec);
        }
        let (records, _, stop) = decode_records(&log, Some(10));
        assert_eq!(stop, DecodeStop::End);
        assert_eq!(records.iter().map(|r| r.op).collect::<Vec<_>>(), ops());
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
                        .commit_batch(&[WalOp::UpdateLocation {
                            uid: UserId(t),
                            pos: Point::new(0.1, 0.1 * (i as f64 % 10.0)),
                        }])
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
        assert!(wal.commit_batch(&[op]).is_ok()); // append+sync = writes 1,2
        let err = wal.commit_batch(&[op]).unwrap_err(); // write 3 crashes
        assert!(matches!(
            err,
            DurabilityError::WalPoisoned | DurabilityError::Io(_)
        ));
        assert!(matches!(
            wal.commit_batch(&[op]).unwrap_err(),
            DurabilityError::WalPoisoned
        ));
    }

    /// Two commits ride one flush; before the earlier one's thread looks
    /// again, a later flush fails. The earlier seq is on disk, so its
    /// wait succeeds: were it refused, its commit would leave without
    /// applying and the later one would wait for its turn for ever.
    #[test]
    fn a_seq_made_durable_stays_committed_after_a_later_flush_fails() {
        use super::super::storage::FaultPlan;
        let storage = Arc::new(MemStorage::with_faults(FaultPlan {
            seed: 1,
            crash_after_writes: Some(2),
            ..FaultPlan::default()
        }));
        let wal = GroupWal::new(storage, "w.log".into(), 1);
        let op = WalOp::Deregister { uid: UserId(1) };
        let first = wal.log(std::slice::from_ref(&op), |_| {}).unwrap();
        let second = wal.log(std::slice::from_ref(&op), |_| {}).unwrap();
        wal.wait_durable(second).unwrap(); // append+sync = writes 1,2
        let third = wal.log(std::slice::from_ref(&op), |_| {}).unwrap();
        assert!(wal.wait_durable(third).is_err()); // write 3 crashes
        assert!(wal.poisoned());
        assert!(wal.wait_durable(first).is_ok(), "a durable seq was refused");
    }
}
