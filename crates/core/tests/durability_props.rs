//! Property tests for the durability formats, mirroring the wire-format
//! suite: WAL and checkpoint decoding never panic on arbitrary hostile
//! bytes, valid encodings round-trip exactly, and corrupting any single
//! byte of an encoding is always detected (CRC-32 catches every burst
//! error up to 32 bits, so a one-byte flip can never slip through).

use casper_core::durability::checkpoint::{decode_checkpoint, encode_checkpoint};
use casper_core::durability::wal::{decode_records, encode_record, DecodeStop, WalOp};
use casper_geometry::Point;
use casper_grid::{Profile, UserId};
use proptest::prelude::*;

fn wal_op() -> impl Strategy<Value = WalOp> {
    let pos = (0.0..=1.0f64, 0.0..=1.0f64).prop_map(|(x, y)| Point::new(x, y));
    let profile = (1u32..64, 0.0..=1.0f64).prop_map(|(k, a)| Profile::new(k, a));
    prop_oneof![
        (any::<u64>(), profile.clone(), pos.clone()).prop_map(|(u, profile, pos)| {
            WalOp::Register {
                uid: UserId(u),
                profile,
                pos,
            }
        }),
        (any::<u64>(), pos).prop_map(|(u, pos)| WalOp::UpdateLocation {
            uid: UserId(u),
            pos
        }),
        (any::<u64>(), profile).prop_map(|(u, profile)| WalOp::UpdateProfile {
            uid: UserId(u),
            profile
        }),
        any::<u64>().prop_map(|u| WalOp::Deregister { uid: UserId(u) }),
    ]
}

fn user_shards() -> impl Strategy<Value = Vec<Vec<(UserId, Profile, Point)>>> {
    let record = (
        any::<u64>(),
        1u32..32,
        0.0..=1.0f64,
        0.0..=1.0f64,
        0.0..=1.0f64,
    )
        .prop_map(|(u, k, a, x, y)| (UserId(u), Profile::new(k, a), Point::new(x, y)));
    prop::collection::vec(prop::collection::vec(record, 0..12), 0..5)
}

proptest! {
    #[test]
    fn wal_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Any byte soup: decoding terminates without panicking and the
        // valid prefix never exceeds the input.
        let (records, valid, _stop) = decode_records(&bytes, None);
        prop_assert!(valid <= bytes.len());
        prop_assert!(records.len() <= bytes.len() / 17); // min record size
    }

    #[test]
    fn checkpoint_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_checkpoint(&bytes); // must return, not panic
    }

    #[test]
    fn wal_round_trips(ops in prop::collection::vec(wal_op(), 1..20), start in 0u64..1 << 48) {
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_record(&mut buf, start + i as u64, op);
        }
        let (records, valid, stop) = decode_records(&buf, Some(start));
        prop_assert_eq!(stop, DecodeStop::End);
        prop_assert_eq!(valid, buf.len());
        prop_assert_eq!(records.len(), ops.len());
        for (i, (rec, op)) in records.iter().zip(&ops).enumerate() {
            prop_assert_eq!(rec.seq, start + i as u64);
            prop_assert_eq!(&rec.op, op);
        }
    }

    #[test]
    fn wal_detects_any_single_byte_corruption(
        ops in prop::collection::vec(wal_op(), 1..8),
        byte in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_record(&mut buf, i as u64, op);
        }
        let idx = byte % buf.len();
        buf[idx] ^= flip;
        let (records, _, stop) = decode_records(&buf, Some(0));
        // The stream must NOT decode to completion with the original
        // record count: the corruption either stops decoding or is
        // confined to the torn tail.
        prop_assert!(
            stop != DecodeStop::End || records.len() < ops.len(),
            "corruption at byte {} (flip {:#04x}) went undetected", idx, flip
        );
    }

    #[test]
    fn checkpoint_round_trips(seq in any::<u64>(), shards in user_shards()) {
        let bytes = encode_checkpoint(seq, &shards);
        let ckpt = decode_checkpoint(&bytes).unwrap();
        prop_assert_eq!(ckpt.wal_seq, seq);
        prop_assert_eq!(ckpt.shards, shards);
    }

    #[test]
    fn checkpoint_detects_any_single_byte_corruption(
        seq in any::<u64>(),
        shards in user_shards(),
        byte in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_checkpoint(seq, &shards);
        let idx = byte % bytes.len();
        bytes[idx] ^= flip;
        prop_assert!(
            decode_checkpoint(&bytes).is_err(),
            "corruption at byte {} (flip {:#04x}) went undetected", idx, flip
        );
    }

    #[test]
    fn checkpoint_detects_any_truncation(
        seq in any::<u64>(),
        shards in user_shards(),
        cut in any::<usize>(),
    ) {
        let bytes = encode_checkpoint(seq, &shards);
        let cut = cut % bytes.len(); // strictly shorter than the original
        prop_assert!(decode_checkpoint(&bytes[..cut]).is_err());
    }
}
