//! Checkpoint files: the `CSPA` member of the `CSPR` format family.
//!
//! A checkpoint is a full serialisation of the trusted tier's user
//! table at a known WAL position, so recovery replays only the log
//! tail. Where the server-side `CSPR` snapshot (§ [`crate::snapshot`])
//! carries *cost-model* records, `CSPA` carries the anonymizer's real
//! state: every `(uid, profile, position)` record, grouped per shard so
//! a [`crate::ShardedAnonymizer`] restores without re-hashing.
//!
//! ```text
//! | magic "CSPA" | version u16 | wal_seq u64 | shard_count u32 |
//! | segment * shard_count                                      |
//! | file_crc u32                                               |
//!
//! segment := | shard_idx u32 | count u32 | columns | seg_crc u32 |
//! columns := | uid zigzag-delta varints * count |
//!            | k varints * count                |
//!            | a_min bitmap ceil(count/8)       |
//!            | a_min f64 * popcount(bitmap)     |
//!            | x f64 * count | y f64 * count    |
//! ```
//!
//! The format (version 2, the only one decoded) is columnar: the flat
//! per-shard arrays the anonymizer keeps serialise as contiguous column
//! runs. UIDs are zigzag-encoded deltas (consecutive registration
//! collapses to one byte each), `k` values are varints, and `a_min` —
//! almost always the 0.0 default — is a presence bitmap plus only the
//! non-zero values. Coordinates stay as exact f64 arrays, so decoding
//! is bit-identical to what was encoded. Record order within a segment
//! is preserved.
//!
//! Both CRCs are CRC-32 (IEEE): `seg_crc` covers its segment's header
//! and columns, `file_crc` covers every preceding byte of the
//! file. Per-segment CRCs localise damage — diagnostics can say *which*
//! shard of a checkpoint is bad — while the file CRC is the
//! accept/reject gate recovery actually uses: a checkpoint is either
//! wholly valid or it is skipped in favour of the previous generation.

use bytes::{Buf, BufMut};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};

use crate::net::crc32;

/// `"CSPA"` — Casper Anonymizer checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CSPA";
/// The checkpoint format version (columnar segments).
pub const CHECKPOINT_VERSION: u16 = 2;

const HEADER_BYTES: usize = 4 + 2 + 8 + 4;
const SEG_HEADER_BYTES: usize = 4 + 4;
/// Smallest possible record footprint: 1-byte uid varint + 1-byte k
/// varint + x f64 + y f64 (the a_min bitmap amortises below one byte).
const MIN_RECORD_BYTES: usize = 1 + 1 + 8 + 8;

/// One user record inside a checkpoint.
pub type UserRecord = (UserId, Profile, Point);

/// Why a checkpoint file was rejected. Recovery treats every variant
/// the same way — fall back to the previous generation — but the
/// distinction matters for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with `"CSPA"`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The file ended before the declared content.
    Truncated,
    /// A segment's CRC did not match, for the given shard index.
    BadSegmentChecksum(u32),
    /// The whole-file CRC did not match.
    BadChecksum,
    /// A structural impossibility: duplicate shard index, hostile
    /// count, non-finite coordinate.
    Malformed,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a CSPA checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadSegmentChecksum(s) => {
                write!(f, "checkpoint segment for shard {s} failed CRC")
            }
            CheckpointError::BadChecksum => write!(f, "checkpoint file CRC mismatch"),
            CheckpointError::Malformed => write!(f, "checkpoint structurally malformed"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Highest WAL sequence number whose effect is included in the
    /// records; replay starts at `wal_seq + 1`.
    pub wal_seq: u64,
    /// Per-shard user records, indexed by shard. Single-structure
    /// anonymizers use one segment at shard index 0.
    pub shards: Vec<Vec<UserRecord>>,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(cursor: &mut &[u8]) -> Result<u64, CheckpointError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if !cursor.has_remaining() {
            return Err(CheckpointError::Truncated);
        }
        let byte = cursor.get_u8();
        if shift == 63 && byte > 1 {
            return Err(CheckpointError::Malformed);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CheckpointError::Malformed)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serialises a checkpoint.
/// `shards[i]` becomes the segment for shard index `i`; empty shards
/// still get cheap 12-byte segments so the segment count always equals
/// the shard count.
pub fn encode_checkpoint(wal_seq: u64, shards: &[Vec<UserRecord>]) -> Vec<u8> {
    let records: usize = shards.iter().map(Vec::len).sum();
    // Worst case per record: 10-byte uid varint + 5-byte k varint +
    // bitmap bit + a_min f64 + x f64 + y f64. Typical is far smaller.
    let mut out =
        Vec::with_capacity(HEADER_BYTES + shards.len() * (SEG_HEADER_BYTES + 4) + records * 40 + 4);
    out.put_slice(&CHECKPOINT_MAGIC);
    out.put_u16(CHECKPOINT_VERSION);
    out.put_u64(wal_seq);
    out.put_u32(shards.len() as u32);
    for (idx, records) in shards.iter().enumerate() {
        let seg_start = out.len();
        out.put_u32(idx as u32);
        out.put_u32(records.len() as u32);
        // uid column: zigzag deltas, wrapping so every u64 round-trips.
        let mut prev = 0u64;
        for &(uid, _, _) in records {
            put_varint(&mut out, zigzag(uid.0.wrapping_sub(prev) as i64));
            prev = uid.0;
        }
        // k column.
        for &(_, profile, _) in records {
            put_varint(&mut out, u64::from(profile.k));
        }
        // a_min column: presence bitmap, then only the non-zero values.
        let bitmap_start = out.len();
        out.resize(bitmap_start + records.len().div_ceil(8), 0);
        for (i, &(_, profile, _)) in records.iter().enumerate() {
            if profile.a_min.to_bits() != 0 {
                out[bitmap_start + i / 8] |= 1 << (i % 8);
            }
        }
        for &(_, profile, _) in records {
            if profile.a_min.to_bits() != 0 {
                out.put_f64(profile.a_min);
            }
        }
        // Position columns: contiguous f64 runs, exact round-trip.
        for &(_, _, pos) in records {
            out.put_f64(pos.x);
        }
        for &(_, _, pos) in records {
            out.put_f64(pos.y);
        }
        let seg_crc = crc32(&out[seg_start..]);
        out.put_u32(seg_crc);
    }
    let file_crc = crc32(&out);
    out.put_u32(file_crc);
    out
}

/// Parses and validates a checkpoint file. Never panics on arbitrary
/// input.
pub fn decode_checkpoint(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if data.len() < HEADER_BYTES + 4 {
        return Err(if data.len() >= 4 && data[..4] != CHECKPOINT_MAGIC {
            CheckpointError::BadMagic
        } else {
            CheckpointError::Truncated
        });
    }
    // File CRC first: it subsumes every other integrity failure, and
    // checking it up front means the parse below runs on bytes already
    // known good (segment CRCs then only catch encoder bugs).
    let (body, trailer) = data.split_at(data.len() - 4);
    let declared = u32::from_be_bytes(trailer.try_into().expect("4 bytes"));
    let mut cursor = body;
    let mut magic = [0u8; 4];
    cursor.copy_to_slice(&mut magic);
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if crc32(body) != declared {
        return Err(CheckpointError::BadChecksum);
    }
    let version = cursor.get_u16();
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let wal_seq = cursor.get_u64();
    let shard_count = cursor.get_u32() as usize;
    // Hostile-count guard, same idiom as snapshot::load.
    if shard_count > cursor.remaining() / SEG_HEADER_BYTES {
        return Err(CheckpointError::Malformed);
    }
    let mut shards: Vec<Vec<UserRecord>> = vec![Vec::new(); shard_count];
    let mut seen = vec![false; shard_count];
    for _ in 0..shard_count {
        if cursor.remaining() < SEG_HEADER_BYTES {
            return Err(CheckpointError::Truncated);
        }
        let seg_bytes = cursor;
        let mut seg_cur = seg_bytes;
        let idx = seg_cur.get_u32() as usize;
        let count = seg_cur.get_u32() as usize;
        if idx >= shard_count || seen[idx] {
            return Err(CheckpointError::Malformed);
        }
        let records = decode_records(&mut seg_cur, count)?;
        // Columns have variable width, so the segment length is however
        // many bytes the record parse consumed.
        let seg_len = seg_bytes.len() - seg_cur.remaining();
        if seg_cur.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let declared_seg = seg_cur.get_u32();
        if crc32(&seg_bytes[..seg_len]) != declared_seg {
            return Err(CheckpointError::BadSegmentChecksum(idx as u32));
        }
        shards[idx] = records;
        seen[idx] = true;
        cursor = seg_cur;
    }
    if cursor.has_remaining() {
        return Err(CheckpointError::Malformed);
    }
    Ok(Checkpoint { wal_seq, shards })
}

fn decode_records(seg_cur: &mut &[u8], count: usize) -> Result<Vec<UserRecord>, CheckpointError> {
    if count > seg_cur.remaining() / MIN_RECORD_BYTES {
        return Err(CheckpointError::Truncated);
    }
    let mut uids = Vec::with_capacity(count);
    let mut prev = 0u64;
    for _ in 0..count {
        prev = prev.wrapping_add(unzigzag(get_varint(seg_cur)?) as u64);
        uids.push(UserId(prev));
    }
    let mut ks = Vec::with_capacity(count);
    for _ in 0..count {
        let k = get_varint(seg_cur)?;
        if k > u64::from(u32::MAX) {
            return Err(CheckpointError::Malformed);
        }
        ks.push(k as u32);
    }
    let bitmap_len = count.div_ceil(8);
    if seg_cur.remaining() < bitmap_len {
        return Err(CheckpointError::Truncated);
    }
    let (bitmap, rest) = seg_cur.split_at(bitmap_len);
    let present: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    // Trailing bitmap bits past `count` must be zero, or two encodings
    // of the same records would differ.
    if !count.is_multiple_of(8) && bitmap[bitmap_len - 1] >> (count % 8) != 0 {
        return Err(CheckpointError::Malformed);
    }
    let mut cur = rest;
    if cur.remaining() < present * 8 + count * 16 {
        return Err(CheckpointError::Truncated);
    }
    let mut a_mins = Vec::with_capacity(count);
    for i in 0..count {
        if bitmap[i / 8] >> (i % 8) & 1 == 1 {
            let a_min = cur.get_f64();
            if !a_min.is_finite() || a_min.to_bits() == 0 {
                return Err(CheckpointError::Malformed);
            }
            a_mins.push(a_min);
        } else {
            a_mins.push(0.0);
        }
    }
    let mut xs = Vec::with_capacity(count);
    for _ in 0..count {
        let x = cur.get_f64();
        if !x.is_finite() {
            return Err(CheckpointError::Malformed);
        }
        xs.push(x);
    }
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let y = cur.get_f64();
        if !y.is_finite() {
            return Err(CheckpointError::Malformed);
        }
        records.push((
            uids[i],
            Profile::new(ks[i], a_mins[i]),
            Point::new(xs[i], y),
        ));
    }
    *seg_cur = cur;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shards() -> Vec<Vec<UserRecord>> {
        vec![
            vec![
                (UserId(1), Profile::new(3, 0.01), Point::new(0.1, 0.2)),
                (UserId(9), Profile::new(8, 0.0), Point::new(0.9, 0.9)),
            ],
            vec![],
            vec![(UserId(4), Profile::new(1, 0.5), Point::new(0.5, 0.5))],
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bytes = encode_checkpoint(4242, &sample_shards());
        let ckpt = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ckpt.wal_seq, 4242);
        assert_eq!(ckpt.shards, sample_shards());
    }

    #[test]
    fn dense_uids_encode_in_half_a_fixed_width_row() {
        // Sequential uids, default a_min: the layout the columns are
        // built for.
        let shards: Vec<Vec<UserRecord>> = vec![(0..500u64)
            .map(|i| {
                (
                    UserId(i),
                    Profile::new(2 + (i % 7) as u32, 0.0),
                    Point::new(i as f64 / 501.0, (i * 3 % 500) as f64 / 501.0),
                )
            })
            .collect()];
        let bytes = encode_checkpoint(9, &shards);
        // ~18 bytes/record (1 uid + 1 k + bitmap bit + 16 position)
        // against the 36 of a fixed-width u64/u32/f64/f64/f64 row.
        assert!(
            bytes.len() * 100 < 500 * 36 * 55,
            "{} bytes for 500 users",
            bytes.len()
        );
    }

    #[test]
    fn extreme_values_round_trip() {
        // Descending and wrapping uid deltas, max k, subnormal a_min.
        let shards = vec![vec![
            (
                UserId(u64::MAX),
                Profile::new(u32::MAX, 0.0),
                Point::new(-1e300, 1e300),
            ),
            (
                UserId(0),
                Profile::new(0, f64::MIN_POSITIVE),
                Point::new(0.0, -0.0),
            ),
            (
                UserId(7),
                Profile::new(1, 0.25),
                Point::new(f64::MIN, f64::MAX),
            ),
        ]];
        let bytes = encode_checkpoint(1, &shards);
        let ckpt = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ckpt.shards, shards);
        // Bit-exact coordinates, not just PartialEq.
        let (_, _, pos) = ckpt.shards[0][1];
        assert_eq!(pos.y.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let bytes = encode_checkpoint(0, &[]);
        let ckpt = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ckpt.wal_seq, 0);
        assert!(ckpt.shards.is_empty());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let clean = encode_checkpoint(17, &sample_shards());
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x10;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let clean = encode_checkpoint(17, &sample_shards());
        for cut in 0..clean.len() {
            assert!(
                decode_checkpoint(&clean[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_distinct_errors() {
        let mut bytes = encode_checkpoint(1, &[vec![]]);
        bytes[0] = b'X';
        assert_eq!(decode_checkpoint(&bytes), Err(CheckpointError::BadMagic));

        let mut bytes = encode_checkpoint(1, &[vec![]]);
        bytes[5] = 9; // version low byte
                      // Version check happens after the CRC gate, so flipping the
                      // version byte first trips the checksum — as it should: the
                      // file no longer matches what the encoder wrote.
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CheckpointError::BadChecksum)
        ));

        // A version the decoder does not know — the retired row format
        // 1 included — under a *valid* file CRC is rejected by name.
        for version in [0u16, 1, 3] {
            let mut bytes = encode_checkpoint(1, &sample_shards());
            bytes[4..6].copy_from_slice(&version.to_be_bytes());
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_be_bytes());
            assert_eq!(
                decode_checkpoint(&bytes),
                Err(CheckpointError::BadVersion(version))
            );
        }
    }
}
