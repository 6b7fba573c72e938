//! Server-state snapshots: serialise the whole privacy-aware store to a
//! byte buffer and restore it.
//!
//! A location-based server restarts without losing its target catalogue or
//! the current cloaked-region population (the anonymizer would otherwise
//! have to re-push every user). The format reuses the 64-byte record
//! layout of [`crate::wire`]'s cost model:
//!
//! ```text
//! magic "CSPR" | version u16 | public count u32 | private count u32 |
//! public records... | private records... | crc u32
//! ```
//!
//! Every record is `id u64 | rect 4 x f64 | pad`, 64 bytes, so
//! `snapshot.len() ≈ 8 + 64 * (objects)` and the transmission model can
//! price a snapshot transfer directly.
//!
//! The CRC-32 trailer covers everything before it — same polynomial as
//! the §7 wire frames and the durability WAL — so a snapshot corrupted at
//! rest or in transit is rejected with [`SnapshotError::BadChecksum`]
//! instead of silently restoring wrong regions. The format is version 2,
//! the only one loaded.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use casper_geometry::{Point, Rect};
use casper_index::ObjectId;

use crate::wire::RECORD_BYTES;
use crate::{CasperServer, PrivateHandle};

const MAGIC: &[u8; 4] = b"CSPR";
/// The format version: CRC-32 trailer over the whole preceding buffer.
const VERSION: u16 = 2;

/// Snapshot decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Buffer does not start with the snapshot magic.
    BadMagic,
    /// Snapshot produced by an unsupported format version.
    BadVersion(u16),
    /// Buffer ended mid-record.
    Truncated,
    /// The CRC-32 trailer did not match (bit rot, torn write, tampering).
    BadChecksum,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a Casper snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_record(buf: &mut BytesMut, id: u64, rect: &Rect) {
    let start = buf.len();
    buf.put_u64(id);
    buf.put_f64(rect.min.x);
    buf.put_f64(rect.min.y);
    buf.put_f64(rect.max.x);
    buf.put_f64(rect.max.y);
    buf.put_bytes(0, RECORD_BYTES - (buf.len() - start));
}

fn get_record(buf: &mut Bytes) -> Result<(u64, Rect), SnapshotError> {
    if buf.remaining() < RECORD_BYTES {
        return Err(SnapshotError::Truncated);
    }
    let id = buf.get_u64();
    let rect = Rect::new(
        Point::new(buf.get_f64(), buf.get_f64()),
        Point::new(buf.get_f64(), buf.get_f64()),
    );
    buf.advance(RECORD_BYTES - 40);
    Ok((id, rect))
}

/// Serialises the server's stores.
pub fn save(server: &CasperServer) -> Bytes {
    let public = server.public_entries();
    let private = server.private_entries();
    let mut buf = BytesMut::with_capacity(14 + RECORD_BYTES * (public.len() + private.len()));
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u32(public.len() as u32);
    buf.put_u32(private.len() as u32);
    for e in &public {
        put_record(&mut buf, e.id.0, &e.mbr);
    }
    for e in &private {
        put_record(&mut buf, e.id.0, &e.mbr);
    }
    let crc = crate::net::crc32(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

/// Restores a server from a snapshot buffer, checksum-gated before any
/// record is parsed.
pub fn load(bytes: Bytes) -> Result<CasperServer, SnapshotError> {
    if bytes.remaining() < 14 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if bytes.len() < 18 {
        return Err(SnapshotError::Truncated);
    }
    let split = bytes.len() - 4;
    let stored = u32::from_be_bytes(bytes[split..].try_into().expect("4 bytes"));
    if crate::net::crc32(&bytes[..split]) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    let mut bytes = bytes.slice(0..split);
    bytes.advance(6); // past magic + version
    let public = bytes.get_u32() as usize;
    let private = bytes.get_u32() as usize;
    // The counts are attacker-controlled (snapshots may arrive over the
    // network): reject before reserving if the buffer cannot possibly
    // hold that many records.
    if public.saturating_add(private) > bytes.remaining() / RECORD_BYTES {
        return Err(SnapshotError::Truncated);
    }
    let mut server = CasperServer::new();
    let mut targets = Vec::with_capacity(public);
    for _ in 0..public {
        let (id, rect) = get_record(&mut bytes)?;
        targets.push((ObjectId(id), rect.min));
    }
    server.load_public_targets(targets);
    for _ in 0..private {
        let (id, rect) = get_record(&mut bytes)?;
        server.upsert_private_region(PrivateHandle(id), rect);
    }
    Ok(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_qp::FilterCount;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn populated_server(seed: u64) -> CasperServer {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = CasperServer::new();
        s.load_public_targets((0..200).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        for i in 0..50u64 {
            let c = Point::new(rng.gen(), rng.gen());
            s.upsert_private_region(
                PrivateHandle(i),
                Rect::centered_at(c, 0.02, 0.02).clamp_to(&Rect::unit()),
            );
        }
        s
    }

    #[test]
    fn snapshot_round_trips_counts() {
        let s = populated_server(1);
        let restored = load(save(&s)).unwrap();
        assert_eq!(restored.public_count(), 200);
        assert_eq!(restored.private_count(), 50);
    }

    #[test]
    fn restored_server_answers_identically() {
        let s = populated_server(2);
        let restored = load(save(&s)).unwrap();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let (a, _) = s.nn_public(&region, FilterCount::Four);
        let (b, _) = restored.nn_public(&region, FilterCount::Four);
        let ids = |l: &casper_qp::CandidateList| {
            let mut v: Vec<u64> = l.candidates.iter().map(|e| e.id.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&a), ids(&b));
        let ra = s.range_private(&region);
        let rb = restored.range_private(&region);
        assert_eq!(ra.max_count(), rb.max_count());
        assert!((ra.expected_count - rb.expected_count).abs() < 1e-12);
    }

    #[test]
    fn snapshot_size_matches_record_model() {
        let s = populated_server(3);
        let bytes = save(&s);
        // 14-byte header + records + 4-byte CRC trailer.
        assert_eq!(bytes.len(), 14 + RECORD_BYTES * (200 + 50) + 4);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let s = populated_server(4);
        let good = save(&s);
        // Wrong magic.
        let mut bad = BytesMut::from(&good[..]);
        bad[0] = b'X';
        assert!(matches!(load(bad.freeze()), Err(SnapshotError::BadMagic)));
        // Wrong version — the retired trailer-less format 1 included.
        for version in [1u8, 99] {
            let mut bad = BytesMut::from(&good[..]);
            bad[5] = version;
            assert_eq!(
                load(bad.freeze()).map(|_| ()),
                Err(SnapshotError::BadVersion(u16::from(version)))
            );
        }
        // Truncated: the shifted CRC window can no longer match.
        let cut = good.slice(0..good.len() - 10);
        assert!(load(cut).is_err());
        // Empty.
        assert!(matches!(load(Bytes::new()), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn any_body_bit_flip_fails_the_checksum() {
        let s = populated_server(7);
        let good = save(&s);
        // Flip one byte in a handful of positions across the counts,
        // records and trailer; every flip past the version field must
        // surface as BadChecksum.
        for idx in [6, 10, 14, 64, 137, good.len() - 5, good.len() - 1] {
            let mut bad = BytesMut::from(&good[..]);
            bad[idx] ^= 0x20;
            let err = load(bad.freeze()).map(|_| ()).unwrap_err();
            assert_eq!(err, SnapshotError::BadChecksum, "flip at byte {idx}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A header advertising u32::MAX records of each kind must fail
        // fast, not reserve ~550 GiB — with or without a valid trailer.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u32(u32::MAX);
        buf.put_u32(u32::MAX);
        assert!(matches!(
            load(buf.clone().freeze()),
            Err(SnapshotError::Truncated)
        ));
        let crc = crate::net::crc32(&buf);
        buf.put_u32(crc);
        assert!(matches!(load(buf.freeze()), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn empty_server_round_trips() {
        let s = CasperServer::new();
        let restored = load(save(&s)).unwrap();
        assert_eq!(restored.public_count(), 0);
        assert_eq!(restored.private_count(), 0);
    }
}
